//! Citation-support accounting (Table 3).
//!
//! The paper logs how often a ranked entity appears *without* snippet
//! support — evidence that the model filled the slot from its priors. This
//! module extracts that bookkeeping from a generated answer.

use std::collections::{HashMap, HashSet};

use shift_corpus::EntityId;

use crate::generate::{RankedAnswer, Snippet};

/// The set of entities mentioned by at least one snippet.
pub fn supported_entities(evidence: &[Snippet]) -> HashSet<EntityId> {
    evidence
        .iter()
        .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
        .collect()
}

/// Accumulates citation-miss statistics across many generated answers.
#[derive(Debug, Default, Clone)]
pub struct CitationAudit {
    appearances: HashMap<EntityId, u64>,
    misses: HashMap<EntityId, u64>,
}

impl CitationAudit {
    /// Creates an empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one answer: every ranked entity counts as an appearance;
    /// entities with zero support count as misses.
    pub fn record(&mut self, answer: &RankedAnswer) {
        for (entity, support) in answer.ranking.iter().zip(&answer.support) {
            *self.appearances.entry(*entity).or_insert(0) += 1;
            if *support == 0.0 {
                *self.misses.entry(*entity).or_insert(0) += 1;
            }
        }
    }

    /// Records only the top-`k` of an answer (the paper audits the ranked
    /// list the user actually sees).
    pub fn record_top_k(&mut self, answer: &RankedAnswer, k: usize) {
        for (entity, support) in answer.ranking.iter().zip(&answer.support).take(k) {
            *self.appearances.entry(*entity).or_insert(0) += 1;
            if *support == 0.0 {
                *self.misses.entry(*entity).or_insert(0) += 1;
            }
        }
    }

    /// Miss rate for one entity: misses / appearances. `None` when the
    /// entity never appeared.
    pub fn miss_rate(&self, entity: EntityId) -> Option<f64> {
        let apps = *self.appearances.get(&entity)?;
        if apps == 0 {
            return None;
        }
        let misses = self.misses.get(&entity).copied().unwrap_or(0);
        Some(misses as f64 / apps as f64)
    }

    /// Number of times an entity appeared in audited rankings.
    pub fn appearances(&self, entity: EntityId) -> u64 {
        self.appearances.get(&entity).copied().unwrap_or(0)
    }

    /// Overall fraction of ranked slots that lacked support (the paper's
    /// "16 % of ranked entities lacked snippet support").
    pub fn overall_miss_rate(&self) -> f64 {
        let apps: u64 = self.appearances.values().sum();
        if apps == 0 {
            return 0.0;
        }
        let misses: u64 = self.misses.values().sum();
        misses as f64 / apps as f64
    }

    /// All audited entities with their miss rates, sorted ascending by
    /// rate then by entity id.
    pub fn by_entity(&self) -> Vec<(EntityId, f64)> {
        let mut out: Vec<(EntityId, f64)> = self
            .appearances
            .keys()
            .filter_map(|e| self.miss_rate(*e).map(|r| (*e, r)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(entries: &[(u32, f64)]) -> RankedAnswer {
        RankedAnswer {
            ranking: entries.iter().map(|(e, _)| EntityId(*e)).collect(),
            support: entries.iter().map(|(_, s)| *s).collect(),
        }
    }

    #[test]
    fn supported_entities_unions_snippets() {
        let evidence = vec![
            Snippet {
                url: "https://a.com/1".into(),
                text: "".into(),
                entities: vec![(EntityId(1), 0.5), (EntityId(2), 0.6)].into(),
                age_days: 0.0,
            },
            Snippet {
                url: "https://a.com/2".into(),
                text: "".into(),
                entities: vec![(EntityId(2), 0.7)].into(),
                age_days: 0.0,
            },
        ];
        let set = supported_entities(&evidence);
        assert_eq!(set.len(), 2);
        assert!(set.contains(&EntityId(1)));
        assert!(!set.contains(&EntityId(3)));
    }

    #[test]
    fn miss_rates_accumulate() {
        let mut audit = CitationAudit::new();
        audit.record(&answer(&[(1, 2.0), (2, 0.0)]));
        audit.record(&answer(&[(1, 0.0), (2, 0.0)]));
        assert_eq!(audit.miss_rate(EntityId(1)), Some(0.5));
        assert_eq!(audit.miss_rate(EntityId(2)), Some(1.0));
        assert_eq!(audit.miss_rate(EntityId(9)), None);
        assert_eq!(audit.appearances(EntityId(1)), 2);
        assert!((audit.overall_miss_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn record_top_k_ignores_the_tail() {
        let mut audit = CitationAudit::new();
        audit.record_top_k(&answer(&[(1, 1.0), (2, 0.0), (3, 0.0)]), 2);
        assert_eq!(audit.appearances(EntityId(3)), 0);
        assert_eq!(audit.miss_rate(EntityId(2)), Some(1.0));
    }

    #[test]
    fn by_entity_sorted_by_rate() {
        let mut audit = CitationAudit::new();
        audit.record(&answer(&[(1, 1.0), (2, 0.0), (3, 1.0)]));
        audit.record(&answer(&[(1, 1.0), (2, 1.0), (3, 0.0)]));
        let rates = audit.by_entity();
        assert_eq!(rates[0].0, EntityId(1));
        assert_eq!(rates[0].1, 0.0);
        assert_eq!(rates.len(), 3);
        assert!(rates.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn empty_audit_is_zero() {
        let audit = CitationAudit::new();
        assert_eq!(audit.overall_miss_rate(), 0.0);
        assert!(audit.by_entity().is_empty());
    }
}
