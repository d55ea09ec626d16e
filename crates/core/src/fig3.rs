//! Figure 3 — source-category distribution by intent and model.
//!
//! Protocol (§2.2): 300 consumer-electronics queries balanced over
//! informational / consideration / transactional intent; classify every
//! citation with the typology classifier (standing in for GPT-4o) and
//! report the brand/earned/social composition per engine and per intent.

use shift_classify::classify_url;
use shift_corpus::SourceType;
use shift_engines::EngineKind;
use shift_queries::{intent_queries, QueryIntent};

use crate::report::{pct, Table};
use crate::study::Study;

/// Citation mix `[brand, earned, social]` as fractions summing to 1
/// (or all zeros when the engine produced no citations).
pub type Mix = [f64; 3];

/// Result of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `aggregate[engine_index]` — citation mix across all intents, in
    /// [`EngineKind::ALL`] order.
    pub aggregate: Vec<(EngineKind, Mix)>,
    /// `by_intent[intent_index][engine_index]` — mix per intent class.
    pub by_intent: Vec<(QueryIntent, Vec<(EngineKind, Mix)>)>,
    /// Fraction of queries where the engine returned *zero* citations
    /// (Claude's informational/transactional reticence).
    pub no_citation_rate: Vec<(EngineKind, f64)>,
    /// Total queries evaluated.
    pub queries: usize,
}

impl Fig3Result {
    /// Aggregate mix for one engine.
    pub fn mix(&self, kind: EngineKind) -> Option<Mix> {
        self.aggregate
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| *m)
    }

    /// Mix for one engine under one intent.
    pub fn mix_at(&self, intent: QueryIntent, kind: EngineKind) -> Option<Mix> {
        self.by_intent
            .iter()
            .find(|(i, _)| *i == intent)?
            .1
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| *m)
    }

    /// Renders the figure as text tables.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 3 — source-category distribution by intent and model ({} queries)\n\n",
            self.queries
        );
        let mut agg = Table::new(vec!["engine", "brand", "earned", "social", "no-cite rate"]);
        for ((kind, m), (_, nc)) in self.aggregate.iter().zip(&self.no_citation_rate) {
            agg.row(vec![
                kind.name().to_string(),
                pct(m[0]),
                pct(m[1]),
                pct(m[2]),
                pct(*nc),
            ]);
        }
        out.push_str("Aggregate:\n");
        out.push_str(&agg.render());
        for (intent, rows) in &self.by_intent {
            let mut t = Table::new(vec!["engine", "brand", "earned", "social"]);
            for (kind, m) in rows {
                t.row(vec![
                    kind.name().to_string(),
                    pct(m[0]),
                    pct(m[1]),
                    pct(m[2]),
                ]);
            }
            out.push_str(&format!("\n{}:\n{}", intent.label(), t.render()));
        }
        out
    }
}

/// Runs the Figure 3 experiment.
pub fn run(study: &Study) -> Fig3Result {
    let stack = study.engines();
    let k = study.config().top_k;
    let queries = intent_queries(
        study.world(),
        study.config().intent_per_class,
        study.stage_seed("fig3-queries"),
    );
    let seed = study.stage_seed("fig3-run");

    // counts[intent][engine][source_type]
    let mut counts = vec![vec![[0u64; 3]; EngineKind::ALL.len()]; QueryIntent::ALL.len()];
    let mut no_cite = vec![0u64; EngineKind::ALL.len()];
    let mut asked = vec![0u64; EngineKind::ALL.len()];

    for q in &queries {
        let intent_idx = QueryIntent::ALL
            .iter()
            .position(|i| *i == q.intent)
            .expect("known intent");
        for (ei, kind) in EngineKind::ALL.iter().enumerate() {
            let answer = stack.answer(*kind, &q.text, k, seed);
            asked[ei] += 1;
            if answer.citations.is_empty() {
                no_cite[ei] += 1;
                continue;
            }
            for c in answer.citations.iter() {
                // The paper classifies citations with GPT-4o; we classify
                // with the typology classifier rather than reading the
                // corpus ground truth — measurement error included.
                let st = classify_url(&c.url)
                    .map(|cl| cl.source_type)
                    .unwrap_or(SourceType::Earned);
                counts[intent_idx][ei][st.index()] += 1;
            }
        }
    }

    let to_mix = |c: &[u64; 3]| -> Mix {
        let total: u64 = c.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        [
            c[0] as f64 / total as f64,
            c[1] as f64 / total as f64,
            c[2] as f64 / total as f64,
        ]
    };

    let by_intent: Vec<(QueryIntent, Vec<(EngineKind, Mix)>)> = QueryIntent::ALL
        .iter()
        .enumerate()
        .map(|(ii, intent)| {
            let rows = EngineKind::ALL
                .iter()
                .enumerate()
                .map(|(ei, kind)| (*kind, to_mix(&counts[ii][ei])))
                .collect();
            (*intent, rows)
        })
        .collect();

    let aggregate: Vec<(EngineKind, Mix)> = EngineKind::ALL
        .iter()
        .enumerate()
        .map(|(ei, kind)| {
            let mut total = [0u64; 3];
            for row in counts.iter() {
                for (t, v) in total.iter_mut().zip(&row[ei]) {
                    *t += v;
                }
            }
            (*kind, to_mix(&total))
        })
        .collect();

    let no_citation_rate = EngineKind::ALL
        .iter()
        .enumerate()
        .map(|(ei, kind)| (*kind, no_cite[ei] as f64 / asked[ei].max(1) as f64))
        .collect();

    Fig3Result {
        aggregate,
        by_intent,
        no_citation_rate,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn result() -> Fig3Result {
        let study = Study::generate(&StudyConfig::quick(), 909);
        run(&study)
    }

    #[test]
    fn mixes_are_distributions() {
        let r = result();
        for (kind, m) in &r.aggregate {
            let sum: f64 = m.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9 || sum == 0.0,
                "{kind:?} mix sums to {sum}"
            );
        }
    }

    #[test]
    fn claude_is_most_earned_heavy_with_minimal_social() {
        let r = result();
        let claude = r.mix(EngineKind::Claude).unwrap();
        let google = r.mix(EngineKind::Google).unwrap();
        assert!(
            claude[1] > google[1],
            "Claude earned {:.2} must exceed Google {:.2}",
            claude[1],
            google[1]
        );
        assert!(claude[2] < 0.10, "Claude social share {:.2}", claude[2]);
    }

    #[test]
    fn google_has_most_social_content() {
        let r = result();
        let google = r.mix(EngineKind::Google).unwrap();
        for kind in EngineKind::GENERATIVE {
            let m = r.mix(kind).unwrap();
            assert!(
                google[2] >= m[2],
                "{kind:?} social {:.2} exceeds Google {:.2}",
                m[2],
                google[2]
            );
        }
    }

    #[test]
    fn transactional_intent_boosts_brand_for_ai_engines() {
        let r = result();
        for kind in EngineKind::GENERATIVE {
            let trans = r.mix_at(QueryIntent::Transactional, kind).unwrap();
            let consider = r.mix_at(QueryIntent::Consideration, kind).unwrap();
            if trans.iter().sum::<f64>() == 0.0 {
                continue; // engine declined to cite at this scale
            }
            assert!(
                trans[0] > consider[0],
                "{kind:?}: transactional brand {:.2} ≤ consideration {:.2}",
                trans[0],
                consider[0]
            );
        }
    }

    #[test]
    fn claude_has_highest_no_citation_rate() {
        let r = result();
        let rate = |k: EngineKind| {
            r.no_citation_rate
                .iter()
                .find(|(kind, _)| *kind == k)
                .unwrap()
                .1
        };
        for kind in [
            EngineKind::Google,
            EngineKind::Gpt4o,
            EngineKind::Perplexity,
        ] {
            assert!(
                rate(EngineKind::Claude) >= rate(kind),
                "Claude no-cite rate must top {kind:?}"
            );
        }
        assert!(rate(EngineKind::Claude) > 0.2);
    }

    #[test]
    fn render_mentions_each_intent() {
        let s = result().render();
        for intent in QueryIntent::ALL {
            assert!(s.contains(intent.label()));
        }
        assert!(s.contains("Figure 3"));
    }
}
