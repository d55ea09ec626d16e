//! Exhaustive pairwise comparison: the alternate ranking R′ of Table 2.
//!
//! For each entity pair (a, b) the judge answers "which is better for this
//! query **given the same documents**" (§3.1) — the full evidence set, not
//! a filtered context. Inconsistency with the listwise ranking therefore
//! comes from per-comparison judgment noise, which is strong for
//! unfamiliar (niche) entities and nearly absent for well-known ones.

use std::collections::HashMap;

use shift_corpus::EntityId;
use shift_metrics::bootstrap::SplitMix64;
use shift_metrics::rank::ranking_from_wins;

use crate::evidence::EvidenceWalk;
use crate::generate::{EntitySignal, GroundingMode, Snippet};
use crate::pretrain::Llm;

impl Llm {
    /// Judges one pair; returns the winner.
    ///
    /// `pair_seed` varies per pair so per-comparison judgment noise is
    /// independent across pairs (the instability the paper reports for
    /// niche entities).
    pub fn pairwise_judgment(
        &self,
        a: EntityId,
        b: EntityId,
        evidence: &[Snippet],
        mode: GroundingMode,
        pair_seed: u64,
    ) -> EntityId {
        let (sig_a, sig_b) = EvidenceWalk::with(|walk| {
            walk.run(evidence, self.position_bias(mode));
            (
                self.signal(a, walk.sums(a), mode),
                self.signal(b, walk.sums(b), mode),
            )
        });
        self.judge((a, sig_a), (b, sig_b), mode, pair_seed)
    }

    /// [`Llm::pairwise_judgment`] from the contestants' signals before
    /// noise: the noise is added last, so each pair reads signals
    /// computed once per ranking.
    fn judge(
        &self,
        (a, mut sig_a): (EntityId, EntitySignal),
        (b, mut sig_b): (EntityId, EntitySignal),
        mode: GroundingMode,
        pair_seed: u64,
    ) -> EntityId {
        sig_a.score += self.pair_noise(a, mode, pair_seed);
        sig_b.score += self.pair_noise(b, mode, pair_seed.wrapping_add(1));
        if mode == GroundingMode::Strict {
            // Thin-evidence wobble: the fewer snippets back a contestant,
            // the less certain the grounded judgment.
            // Wobble shrinks with both evidence mass and familiarity:
            // even under strict instructions, a judge parses evidence
            // about household names far more consistently than evidence
            // about obscure entities.
            let thin = |support: f64, strength: f64, salt: u64| {
                // Quadratic in unfamiliarity: judges stay consistent on
                // household names even with modest evidence.
                let scale = self.config().strict_pair_noise * (1.0 - strength).powi(2)
                    / (1.0 + 0.8 * support);
                let mut rng = SplitMix64::new(pair_seed ^ salt);
                (2.0 * (rng.next_u64() as f64 / u64::MAX as f64) - 1.0) * scale
            };
            sig_a.score += thin(
                sig_a.support,
                self.prior(a).strength,
                0x7468_696e_0041 ^ u64::from(a.0),
            );
            sig_b.score += thin(
                sig_b.support,
                self.prior(b).strength,
                0x7468_696e_0042 ^ u64::from(b.0),
            );
            // A grounded judge prefers whichever contestant has evidence;
            // with evidence on neither side it has nothing to reason from
            // and guesses (deterministically per pair seed) — the source
            // of the residual inconsistency for niche entities.
            match (sig_a.support > 0.0, sig_b.support > 0.0) {
                (true, false) => return a,
                (false, true) => return b,
                (false, false) => {
                    let mut rng = SplitMix64::new(pair_seed ^ 0x6a75_6467_0e31);
                    return if rng.next_u64().is_multiple_of(2) {
                        a
                    } else {
                        b
                    };
                }
                (true, true) => {}
            }
        }
        if sig_a.score >= sig_b.score {
            a
        } else {
            b
        }
    }

    /// Per-comparison noise: like generation noise but drawn fresh per
    /// pair, and fully suppressed for supported entities under strict
    /// grounding (a grounded judge is consistent when it has evidence).
    fn pair_noise(&self, entity: EntityId, mode: GroundingMode, seed: u64) -> f64 {
        let cfg = self.config();
        let strength = self.prior(entity).strength;
        let scale = match mode {
            GroundingMode::Normal => {
                0.15 * cfg.base_noise
                    + cfg.weak_prior_noise * 0.3 * (1.0 - strength) * (1.0 - strength)
            }
            GroundingMode::Strict => 0.0,
        };
        let mut rng =
            SplitMix64::new(seed ^ (u64::from(entity.0).wrapping_mul(0x94D0_49BB_1331_11EB)));
        let u = rng.next_u64() as f64 / u64::MAX as f64;
        (2.0 * u - 1.0) * scale
    }

    /// Builds the full pairwise-derived ranking R′ over `candidates`:
    /// every unordered pair is judged once, entities are ordered by win
    /// count, ties broken by candidate order. The evidence is walked
    /// once, and each candidate's signal computed once, for all pairs.
    pub fn pairwise_ranking_for(
        &self,
        candidates: &[EntityId],
        evidence: &[Snippet],
        mode: GroundingMode,
        seed: u64,
    ) -> Vec<EntityId> {
        let signals: Vec<(EntityId, EntitySignal)> = EvidenceWalk::with(|walk| {
            walk.run(evidence, self.position_bias(mode));
            candidates
                .iter()
                .map(|&e| (e, self.signal(e, walk.sums(e), mode)))
                .collect()
        });
        let mut wins: HashMap<EntityId, usize> = candidates.iter().map(|&e| (e, 0)).collect();
        for i in 0..candidates.len() {
            for j in i + 1..candidates.len() {
                let pair_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | j as u64);
                let winner = self.judge(signals[i], signals[j], mode, pair_seed);
                *wins.entry(winner).or_insert(0) += 1;
            }
        }
        ranking_from_wins(&wins, candidates)
    }
}

/// Free-function alias of [`Llm::pairwise_ranking_for`] (ergonomics for the
/// experiment runners).
pub fn pairwise_ranking(
    llm: &Llm,
    candidates: &[EntityId],
    evidence: &[Snippet],
    mode: GroundingMode,
    seed: u64,
) -> Vec<EntityId> {
    llm.pairwise_ranking_for(candidates, evidence, mode, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::LlmConfig;
    use shift_corpus::{World, WorldConfig};
    use shift_metrics::kendall_tau;

    fn setup() -> (World, Llm) {
        let world = World::generate(&WorldConfig::small(), 33);
        let llm = Llm::pretrain(&world, LlmConfig::default());
        (world, llm)
    }

    fn snippet(url: &str, entities: Vec<(EntityId, f64)>) -> Snippet {
        Snippet {
            url: url.into(),
            text: "".into(),
            entities: entities.into(),
            age_days: 5.0,
        }
    }

    #[test]
    fn judgment_returns_a_contestant() {
        let (world, llm) = setup();
        let a = world.entities()[0].id;
        let b = world.entities()[1].id;
        let w = llm.pairwise_judgment(a, b, &[], GroundingMode::Normal, 3);
        assert!(w == a || w == b);
    }

    #[test]
    fn strict_judgment_with_clear_evidence_is_decisive() {
        let (world, llm) = setup();
        let a = world.entities()[0].id;
        let b = world.entities()[1].id;
        let evidence = vec![snippet("https://x.com/1", vec![(a, 0.95), (b, 0.05)])];
        for seed in 0..20 {
            assert_eq!(
                llm.pairwise_judgment(a, b, &evidence, GroundingMode::Strict, seed),
                a,
                "strict judge flipped at seed {seed}"
            );
        }
    }

    #[test]
    fn pairwise_ranking_is_complete_permutation() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..8].iter().map(|e| e.id).collect();
        let r = llm.pairwise_ranking_for(&ids, &[], GroundingMode::Normal, 9);
        assert_eq!(r.len(), ids.len());
        let mut sorted = r.clone();
        sorted.sort();
        let mut expect = ids.clone();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn pairwise_agrees_with_listwise_under_strict_grounding_with_full_evidence() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..8].iter().map(|e| e.id).collect();
        // Every entity gets distinct, well-separated evidence.
        let evidence: Vec<Snippet> = ids
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                snippet(
                    &format!("https://e.com/{i}"),
                    vec![(e, 0.1 + 0.1 * i as f64)],
                )
            })
            .collect();
        let listwise = llm
            .rank_entities(&ids, &evidence, GroundingMode::Strict, 4)
            .ranking;
        let pairwise = llm.pairwise_ranking_for(&ids, &evidence, GroundingMode::Strict, 4);
        let tau = kendall_tau(&listwise, &pairwise).unwrap();
        assert!(tau > 0.98, "τ = {tau}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..6].iter().map(|e| e.id).collect();
        let a = llm.pairwise_ranking_for(&ids, &[], GroundingMode::Normal, 5);
        let b = llm.pairwise_ranking_for(&ids, &[], GroundingMode::Normal, 5);
        assert_eq!(a, b);
    }
}
