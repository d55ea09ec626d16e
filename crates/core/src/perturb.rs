//! The §3.1 evidence perturbations.
//!
//! * **Snippet Shuffle (SS)** — randomizes snippet presentation order to
//!   probe positional/attention bias.
//! * **Entity-Swap Injection (ESI)** — swaps the entity attributions
//!   between pairs of snippets, so evidence about entity A now "speaks
//!   about" entity B. A prior-driven model shrugs; an evidence-driven
//!   model follows the corrupted context.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shift_llm::Snippet;

/// The perturbation kinds of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perturbation {
    /// Randomize snippet order.
    SnippetShuffle,
    /// Swap entity mentions across snippets.
    EntitySwapInjection,
}

impl Perturbation {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Perturbation::SnippetShuffle => "SS",
            Perturbation::EntitySwapInjection => "ESI",
        }
    }

    /// Applies the perturbation, returning a new evidence list.
    pub fn apply(self, evidence: &[Snippet], seed: u64) -> Vec<Snippet> {
        match self {
            Perturbation::SnippetShuffle => snippet_shuffle(evidence, seed),
            Perturbation::EntitySwapInjection => entity_swap_injection(evidence, seed),
        }
    }
}

/// Returns the evidence in a seeded-random order.
pub fn snippet_shuffle(evidence: &[Snippet], seed: u64) -> Vec<Snippet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5353); // "SS"
    let mut out = evidence.to_vec();
    out.shuffle(&mut rng);
    out
}

/// Swaps *which entities* snippet pairs speak about, while each snippet
/// keeps its own sentiment: "TechRadar praises the RAV4" becomes
/// "TechRadar praises the CR-V" — with TechRadar's original enthusiasm now
/// attached to the wrong entity. Roughly half the snippets are affected
/// per run.
///
/// Concretely, for a chosen pair (i, j) the entity ids of i and j are
/// exchanged but the scores stay in place (cycled when the lists have
/// different lengths). An evidence-driven model follows the corrupted
/// attributions; a prior-driven model shrugs.
pub fn entity_swap_injection(evidence: &[Snippet], seed: u64) -> Vec<Snippet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0045_5349); // "ESI"
    let mut out = evidence.to_vec();
    if out.len() < 2 {
        return out;
    }
    let swaps = (out.len() / 2).max(1);
    for _ in 0..swaps {
        let i = rng.gen_range(0..out.len());
        let j = rng.gen_range(0..out.len());
        if i == j || out[i].entities.is_empty() || out[j].entities.is_empty() {
            continue;
        }
        let ids_i: Vec<_> = out[i].entities.iter().map(|(e, _)| *e).collect();
        let ids_j: Vec<_> = out[j].entities.iter().map(|(e, _)| *e).collect();
        let scores_i: Vec<f64> = out[i].entities.iter().map(|(_, s)| *s).collect();
        let scores_j: Vec<f64> = out[j].entities.iter().map(|(_, s)| *s).collect();
        // Snippet i now "speaks about" j's entities with i's sentiments.
        out[i].entities = ids_j
            .iter()
            .enumerate()
            .map(|(k, e)| (*e, scores_i[k % scores_i.len()]))
            .collect();
        out[j].entities = ids_i
            .iter()
            .enumerate()
            .map(|(k, e)| (*e, scores_j[k % scores_j.len()]))
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::EntityId;

    fn snippets(n: usize) -> Vec<Snippet> {
        (0..n)
            .map(|i| Snippet {
                url: format!("https://e.com/{i}").into(),
                text: format!("snippet {i}").into(),
                entities: vec![(EntityId(i as u32), 0.1 * i as f64)].into(),
                age_days: i as f64,
            })
            .collect()
    }

    #[test]
    fn shuffle_is_permutation() {
        let ev = snippets(10);
        let shuffled = snippet_shuffle(&ev, 7);
        assert_eq!(shuffled.len(), ev.len());
        let mut a: Vec<&str> = ev.iter().map(|s| &*s.url).collect();
        let mut b: Vec<&str> = shuffled.iter().map(|s| &*s.url).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_changes_order_for_most_seeds() {
        let ev = snippets(10);
        let changed = (0..10)
            .filter(|&s| {
                snippet_shuffle(&ev, s)
                    .iter()
                    .zip(&ev)
                    .any(|(a, b)| a.url != b.url)
            })
            .count();
        assert!(changed >= 9);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let ev = snippets(8);
        let a = snippet_shuffle(&ev, 3);
        let b = snippet_shuffle(&ev, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn esi_preserves_text_and_urls() {
        let ev = snippets(10);
        let swapped = entity_swap_injection(&ev, 5);
        for (orig, new) in ev.iter().zip(&swapped) {
            assert_eq!(orig.url, new.url, "ESI must not reorder snippets");
            assert_eq!(orig.text, new.text);
        }
    }

    #[test]
    fn esi_moves_entity_attributions_but_keeps_scores_in_place() {
        let ev = snippets(10);
        let swapped = entity_swap_injection(&ev, 5);
        let moved = ev
            .iter()
            .zip(&swapped)
            .filter(|(a, b)| a.entities != b.entities)
            .count();
        assert!(moved >= 2, "only {moved} snippets changed attribution");
        // Entity ids are conserved as a multiset (swapped, not rewritten)…
        let mut ids_a: Vec<u32> = ev
            .iter()
            .flat_map(|s| s.entities.iter().map(|(e, _)| e.0))
            .collect();
        let mut ids_b: Vec<u32> = swapped
            .iter()
            .flat_map(|s| s.entities.iter().map(|(e, _)| e.0))
            .collect();
        ids_a.sort_unstable();
        ids_b.sort_unstable();
        assert_eq!(ids_a, ids_b);
        // …while each snippet keeps its own sentiment scores.
        for (orig, new) in ev.iter().zip(&swapped) {
            let so: Vec<f64> = orig.entities.iter().map(|(_, s)| *s).collect();
            let sn: Vec<f64> = new.entities.iter().map(|(_, s)| *s).collect();
            assert_eq!(so, sn, "scores moved for {}", orig.url);
        }
        // Some snippet must now claim a different entity with its old score.
        let reattributed = ev.iter().zip(&swapped).any(|(a, b)| {
            a.entities
                .iter()
                .zip(&b.entities)
                .any(|((ea, sa), (eb, sb))| ea != eb && sa == sb)
        });
        assert!(reattributed);
    }

    #[test]
    fn esi_on_tiny_inputs_is_identity() {
        let ev = snippets(1);
        assert_eq!(entity_swap_injection(&ev, 1), ev);
        let empty: Vec<Snippet> = vec![];
        assert!(entity_swap_injection(&empty, 1).is_empty());
    }

    #[test]
    fn apply_dispatches() {
        let ev = snippets(6);
        assert_eq!(
            Perturbation::SnippetShuffle.apply(&ev, 2),
            snippet_shuffle(&ev, 2)
        );
        assert_eq!(
            Perturbation::EntitySwapInjection.apply(&ev, 2),
            entity_swap_injection(&ev, 2)
        );
        assert_eq!(Perturbation::SnippetShuffle.abbrev(), "SS");
        assert_eq!(Perturbation::EntitySwapInjection.abbrev(), "ESI");
    }
}
