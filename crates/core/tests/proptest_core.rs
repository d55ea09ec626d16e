//! Property-based tests for the experiment framework: perturbation
//! invariants over arbitrary evidence, and stage-seed behaviour.

use proptest::prelude::*;
use shift_core::perturb::{entity_swap_injection, snippet_shuffle, Perturbation};
use shift_corpus::EntityId;
use shift_llm::Snippet;

fn snippet_strategy() -> impl Strategy<Value = Snippet> {
    (
        "[a-z]{3,10}",
        prop::collection::vec((0u32..40, 0.0..1.0f64), 0..5),
        0.0..900.0f64,
    )
        .prop_map(|(slug, ents, age)| Snippet {
            url: format!("https://{slug}.com/x").into(),
            text: format!("about {slug}").into(),
            entities: ents.into_iter().map(|(e, s)| (EntityId(e), s)).collect(),
            age_days: age,
        })
}

fn evidence() -> impl Strategy<Value = Vec<Snippet>> {
    prop::collection::vec(snippet_strategy(), 0..16)
}

proptest! {
    /// Shuffle is a permutation and deterministic per seed.
    #[test]
    fn shuffle_is_seeded_permutation(ev in evidence(), seed in 0u64..1000) {
        let a = snippet_shuffle(&ev, seed);
        let b = snippet_shuffle(&ev, seed);
        prop_assert_eq!(&a, &b);
        let mut orig: Vec<&str> = ev.iter().map(|s| &*s.url).collect();
        let mut shuf: Vec<&str> = a.iter().map(|s| &*s.url).collect();
        orig.sort_unstable();
        shuf.sort_unstable();
        prop_assert_eq!(orig, shuf);
    }

    /// ESI preserves order, texts, per-snippet score multisets and the
    /// global entity multiset.
    #[test]
    fn esi_invariants(ev in evidence(), seed in 0u64..1000) {
        let swapped = entity_swap_injection(&ev, seed);
        prop_assert_eq!(swapped.len(), ev.len());
        let mut all_ids_before: Vec<u32> = Vec::new();
        let mut all_ids_after: Vec<u32> = Vec::new();
        for (a, b) in ev.iter().zip(&swapped) {
            prop_assert_eq!(&a.url, &b.url);
            prop_assert_eq!(&a.text, &b.text);
            prop_assert!((a.age_days - b.age_days).abs() < 1e-12);
            // Every attributed score is one of the snippet's own original
            // sentiments (swaps exchange *who* is talked about, never what
            // the snippet said; lists of unequal length cycle the scores).
            let sa: Vec<f64> = a.entities.iter().map(|(_, s)| *s).collect();
            for (_, s) in &b.entities {
                prop_assert!(
                    sa.iter().any(|x| (x - s).abs() < 1e-12) || sa.is_empty(),
                    "foreign score {s} in {}",
                    a.url
                );
            }
            all_ids_before.extend(a.entities.iter().map(|(e, _)| e.0));
            all_ids_after.extend(b.entities.iter().map(|(e, _)| e.0));
        }
        all_ids_before.sort_unstable();
        all_ids_after.sort_unstable();
        prop_assert_eq!(all_ids_before, all_ids_after, "entity multiset must be conserved");
    }

    /// Both perturbations are safe on arbitrary (including empty) inputs.
    #[test]
    fn perturbations_never_panic(ev in evidence(), seed in 0u64..1000) {
        let _ = Perturbation::SnippetShuffle.apply(&ev, seed);
        let _ = Perturbation::EntitySwapInjection.apply(&ev, seed);
    }
}

mod stage_seeds {
    use shift_core::study::{Study, StudyConfig};

    /// Stage seeds are stable across study instances with the same master
    /// seed and differ across labels.
    #[test]
    fn stage_seed_contract() {
        let mut cfg = StudyConfig::quick();
        // Minimal world: this test only exercises seed derivation.
        cfg.world = shift_corpus::WorldConfig {
            ranking_lists_per_topic: 1,
            reviews_per_popular_entity: 1,
            news_per_topic: 1,
            comparisons_per_topic: 1,
            guides_per_topic: 1,
            forum_threads_per_topic: 1,
            videos_per_topic: 1,
            archive_pages_per_entity: 1,
            ..shift_corpus::WorldConfig::default_scale()
        };
        let a = Study::generate(&cfg, 7);
        let b = Study::generate(&cfg, 7);
        let labels = ["fig1", "fig2", "fig3", "fig4", "tab1", "tab2", "tab3"];
        for l in labels {
            assert_eq!(a.stage_seed(l), b.stage_seed(l));
        }
        let mut seeds: Vec<u64> = labels.iter().map(|l| a.stage_seed(l)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), labels.len(), "stage seeds must be distinct");
    }
}
