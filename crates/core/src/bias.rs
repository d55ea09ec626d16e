//! Shared machinery for the pre-training-bias experiments (§3):
//! trial construction — a query, its candidate entities, and retrieved
//! evidence snippets.

use shift_corpus::{topic_specs, EntityId, TopicId};
use shift_engines::EngineKind;
use shift_llm::Snippet;

use crate::study::Study;

/// One ranking trial: an interpretable testbed query with its candidate
/// roster and retrieved evidence.
#[derive(Debug, Clone)]
pub struct BiasTrial {
    /// The ranking query posed to the model.
    pub query: String,
    /// Topic the query belongs to.
    pub topic: TopicId,
    /// Candidate entities to rank.
    pub candidates: Vec<EntityId>,
    /// Retrieved evidence (presentation order), truncated to the evidence
    /// window.
    pub evidence: Vec<Snippet>,
}

/// Maximum snippets shown to the model per trial (a context-window stand-
/// in; also what makes tail entities lack support in Table 3).
pub const EVIDENCE_WINDOW: usize = 8;

/// Query templates for the bias trials.
const TEMPLATES: &[&str] = &[
    "best {plural} to buy in 2025",
    "top 10 {plural} ranked",
    "most reliable {plural} this year",
    "top {plural} for most buyers",
    "best {plural} overall",
    "{plural} ranked by overall quality",
];

/// Builds `n` popular-tier trials: mainstream topics, popular candidates
/// ("best SUVs to buy in 2025").
pub fn popular_trials(study: &Study, n: usize) -> Vec<BiasTrial> {
    let mainstream: Vec<usize> = topic_specs()
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_niche_topic())
        .map(|(i, _)| i)
        .collect();
    build_trials(study, n, &mainstream, true, "bias-popular")
}

/// Builds `n` niche-tier trials: niche-only topics, full (low-coverage)
/// rosters ("top 10 family law firms in Toronto").
pub fn niche_trials(study: &Study, n: usize) -> Vec<BiasTrial> {
    let niche: Vec<usize> = topic_specs()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_niche_topic())
        .map(|(i, _)| i)
        .collect();
    build_trials(study, n, &niche, false, "bias-niche")
}

fn build_trials(
    study: &Study,
    n: usize,
    topic_pool: &[usize],
    popular_tier_only: bool,
    label: &str,
) -> Vec<BiasTrial> {
    assert!(!topic_pool.is_empty(), "empty topic pool for {label}");
    let world = study.world();
    let stack = study.engines();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ti = topic_pool[i % topic_pool.len()];
        let spec = &topic_specs()[ti];
        let topic = TopicId::from(ti);
        let template = TEMPLATES[(i / topic_pool.len()) % TEMPLATES.len()];
        let query = template.replace("{plural}", spec.plural);

        let candidates: Vec<EntityId> = world
            .entities_of_topic(topic)
            .iter()
            .copied()
            .filter(|e| !popular_tier_only || world.entity(*e).is_popular())
            .collect();

        // Evidence retrieval through the GPT-4o persona (the paper's
        // gpt-4o-search-preview), truncated to the context window.
        let answer = stack.answer(
            EngineKind::Gpt4o,
            &query,
            study.config().top_k,
            study.stage_seed(label).wrapping_add(i as u64),
        );
        // Keep only snippets that speak about at least one candidate (an
        // off-topic "best X" page retrieved by lexical accident is not
        // evidence), then truncate to the context window.
        let mut evidence = answer.snippets.to_vec();
        evidence.retain(|s| s.entities.iter().any(|(e, _)| candidates.contains(e)));
        evidence.truncate(EVIDENCE_WINDOW);

        out.push(BiasTrial {
            query,
            topic,
            candidates,
            evidence,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn study() -> Study {
        Study::generate(&StudyConfig::quick(), 31337)
    }

    #[test]
    fn popular_trials_use_popular_candidates() {
        let s = study();
        let trials = popular_trials(&s, 8);
        assert_eq!(trials.len(), 8);
        for t in &trials {
            assert!(t.candidates.len() >= 3, "{} candidates", t.candidates.len());
            for e in &t.candidates {
                assert!(s.world().entity(*e).is_popular());
            }
            assert!(!t.evidence.is_empty(), "no evidence for {:?}", t.query);
            assert!(t.evidence.len() <= EVIDENCE_WINDOW);
        }
    }

    #[test]
    fn niche_trials_use_niche_topics() {
        let s = study();
        let trials = niche_trials(&s, 6);
        for t in &trials {
            let spec = &topic_specs()[t.topic.index()];
            assert!(spec.is_niche_topic(), "{} is not niche", spec.key);
            // Every candidate in a niche topic is low-popularity.
            for e in &t.candidates {
                assert!(!s.world().entity(*e).is_popular());
            }
        }
    }

    #[test]
    fn queries_are_instantiated_and_varied() {
        let s = study();
        let trials = popular_trials(&s, 12);
        for t in &trials {
            assert!(!t.query.contains("{plural}"));
        }
        let unique: std::collections::HashSet<&str> =
            trials.iter().map(|t| t.query.as_str()).collect();
        assert!(unique.len() > 4, "queries too repetitive");
    }

    #[test]
    fn trials_are_deterministic() {
        let s = study();
        let a = popular_trials(&s, 5);
        let b = popular_trials(&s, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.evidence.len(), y.evidence.len());
        }
    }
}
