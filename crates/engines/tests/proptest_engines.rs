//! Property-based tests for the engine stack: answer invariants across
//! arbitrary queries and seeds.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind};

fn stack() -> &'static AnswerEngines {
    static STACK: OnceLock<AnswerEngines> = OnceLock::new();
    STACK.get_or_init(|| {
        let world = Arc::new(World::generate(&WorldConfig::small(), 5150));
        AnswerEngines::build(world)
    })
}

fn query() -> impl Strategy<Value = String> {
    prop_oneof![
        (
            prop_oneof![Just("best"), Just("top rated"), Just("most reliable")],
            prop_oneof![
                Just("smartphones"),
                Just("electric cars"),
                Just("airlines"),
                Just("gravel bikes"),
            ],
        )
            .prop_map(|(a, b)| format!("{a} {b}")),
        "\\PC{0,40}",
    ]
}

fn engine() -> impl Strategy<Value = EngineKind> {
    prop_oneof![
        Just(EngineKind::Google),
        Just(EngineKind::Gpt4o),
        Just(EngineKind::Claude),
        Just(EngineKind::Gemini),
        Just(EngineKind::Perplexity),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Answers never panic; citations are bounded, well-formed and carry
    /// registrable domains consistent with their URLs.
    #[test]
    fn answer_invariants(q in query(), kind in engine(), seed in 0u64..1000) {
        let stack = stack();
        let answer = stack.answer(kind, &q, 10, seed);
        prop_assert_eq!(answer.engine, kind);
        prop_assert!(answer.citations.len() <= 10);
        for c in answer.citations.iter() {
            let parsed = shift_urlkit::Url::parse(&c.url).expect("citation URL parses");
            let rd = shift_urlkit::registrable_domain(parsed.host());
            prop_assert_eq!(rd.as_deref(), Some(&*c.domain));
            prop_assert!(c.age_days >= 0.0);
        }
        let mix = answer.source_type_mix();
        let total: f64 = mix.iter().sum();
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
    }

    /// Same (engine, query, seed) → identical answer.
    #[test]
    fn answers_deterministic(q in query(), kind in engine(), seed in 0u64..50) {
        let stack = stack();
        let a = stack.answer(kind, &q, 10, seed);
        let b = stack.answer(kind, &q, 10, seed);
        prop_assert_eq!(a.domains(), b.domains());
        prop_assert_eq!(a.text, b.text);
        prop_assert_eq!(a.snippets.len(), b.snippets.len());
    }

    /// Per-domain citation caps hold for every persona.
    #[test]
    fn per_domain_caps(q in query(), seed in 0u64..100) {
        let stack = stack();
        for kind in EngineKind::GENERATIVE {
            let cap = stack.persona(kind).max_per_domain;
            let answer = stack.answer(kind, &q, 10, seed);
            let mut counts = std::collections::HashMap::new();
            for c in answer.citations.iter() {
                *counts.entry(&*c.domain).or_insert(0usize) += 1;
            }
            for (d, n) in counts {
                prop_assert!(n <= cap, "{kind:?} cited {d} {n} times (cap {cap})");
            }
        }
    }

    /// Snippets only attribute entities whose names are visible in the
    /// snippet text (or fall back to the page's primary subject).
    #[test]
    fn snippet_attribution_is_text_grounded(q in query(), seed in 0u64..50) {
        let stack = stack();
        let world = stack.world();
        let answer = stack.answer(EngineKind::Gpt4o, &q, 10, seed);
        for s in answer.snippets.iter() {
            if s.entities.len() > 1 {
                // Multi-entity snippets must name every attributed entity.
                let lower = s.text.to_lowercase();
                for (e, _) in &s.entities {
                    let name = world.entity(*e).name.to_lowercase();
                    prop_assert!(
                        lower.contains(&name),
                        "snippet attributes unnamed entity {name:?}: {:?}",
                        s.text
                    );
                }
            }
        }
    }
}
