//! Listwise ranking generation: blending priors with retrieved evidence.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use shift_corpus::EntityId;
use shift_metrics::bootstrap::SplitMix64;
use shift_textkit::Excerpt;

use crate::evidence::{EvidenceWalk, Sums};
use crate::pretrain::Llm;

/// Simulator configuration. Defaults are the calibrated values behind the
/// committed EXPERIMENTS.md numbers; `shift-core`'s ablation tests sweep
/// some of them.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmConfig {
    /// Days before the study date where the pre-training snapshot ends.
    pub pretrain_cutoff_days: i64,
    /// Mention mass at which prior strength reaches 0.5 (Hill saturation,
    /// exponent 2).
    pub strength_saturation: f64,
    /// Cap on how much weight the prior can claim in normal grounding.
    pub prior_weight_scale: f64,
    /// Per-position attention decay in normal grounding: snippet at
    /// position `i` carries weight `1 / (1 + position_bias * i)`.
    pub position_bias: f64,
    /// Residual position decay under strict grounding (real models keep a
    /// small primacy effect even when told to use all snippets equally).
    pub strict_position_bias: f64,
    /// Base score noise applied to every entity, every run.
    pub base_noise: f64,
    /// Extra noise scaled by `(1 - prior strength)`: weak-prior entities
    /// get unstable scores, the paper's "knowledge-seeking mode".
    pub weak_prior_noise: f64,
    /// Weight of first-mention salience inside the evidence signal: the
    /// model anchors on entities surfacing early in the context, so the
    /// evidence part of the score is
    /// `(1 - w) * mean + w * first_mention_weight`.
    pub salience_weight: f64,
    /// Pairwise-judge noise under strict grounding when the pair-local
    /// evidence is thin — a grounded judge with one ambiguous snippet per
    /// contestant still wavers (the residual inconsistency behind Table
    /// 2's niche-strict τ < 1).
    pub strict_pair_noise: f64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            pretrain_cutoff_days: 500,
            strength_saturation: 3.0,
            prior_weight_scale: 0.90,
            position_bias: 0.09,
            strict_position_bias: 0.012,
            base_noise: 0.008,
            weak_prior_noise: 0.12,
            strict_pair_noise: 0.35,
            salience_weight: 0.28,
        }
    }
}

/// How hard strict grounding attenuates the first-mention salience
/// channel. Small enough that a shuffled context barely moves the score
/// (the §3.1 stabilization effect), non-zero because real grounded models
/// keep a residual primacy bias.
pub const STRICT_SALIENCE_ATTENUATION: f64 = 0.08;

/// Grounding regime for generation (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroundingMode {
    /// Both pre-training knowledge and the provided snippets are available.
    Normal,
    /// Reasoning restricted to the provided snippets only.
    Strict,
}

/// One retrieved evidence snippet, as the model sees it. Its url is a
/// shared string, its text a window of shared text and its entity list a
/// range of a list shared by every snippet of its answer, so cloning one
/// allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// Source URL (becomes the citation).
    pub url: Arc<str>,
    /// Snippet text.
    pub text: Excerpt,
    /// Entities the snippet speaks about, with the quality score the
    /// snippet's page observed for each.
    pub entities: SnippetEntities,
    /// Age of the source page in days.
    pub age_days: f64,
}

impl Snippet {
    /// Score the snippet assigns to `entity`, if it mentions it.
    pub fn score_for(&self, entity: EntityId) -> Option<f64> {
        self.entities
            .iter()
            .find(|(e, _)| *e == entity)
            .map(|(_, s)| *s)
    }
}

/// A snippet's `(entity, score)` list: a range of one shared list, so an
/// answer holds the lists of all its snippets in one allocation. It
/// derefs to the slice; equality and `Debug` are the slice's.
#[derive(Clone)]
pub struct SnippetEntities {
    list: Arc<[(EntityId, f64)]>,
    start: u32,
    end: u32,
}

impl SnippetEntities {
    /// The entities at `range` of `list`.
    ///
    /// # Panics
    /// Panics if `range` is out of `list`'s bounds or past `u32::MAX`.
    pub fn new(list: Arc<[(EntityId, f64)]>, range: Range<usize>) -> SnippetEntities {
        assert!(range.start <= range.end && range.end <= list.len());
        let bound = |at: usize| u32::try_from(at).expect("fewer than 2^32 entities per answer");
        SnippetEntities {
            start: bound(range.start),
            end: bound(range.end),
            list,
        }
    }
}

impl Deref for SnippetEntities {
    type Target = [(EntityId, f64)];

    fn deref(&self) -> &[(EntityId, f64)] {
        &self.list[self.start as usize..self.end as usize]
    }
}

impl<'a> IntoIterator for &'a SnippetEntities {
    type Item = &'a (EntityId, f64);
    type IntoIter = std::slice::Iter<'a, (EntityId, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<(EntityId, f64)>> for SnippetEntities {
    fn from(entities: Vec<(EntityId, f64)>) -> SnippetEntities {
        let len = entities.len();
        SnippetEntities::new(entities.into(), 0..len)
    }
}

impl FromIterator<(EntityId, f64)> for SnippetEntities {
    fn from_iter<I: IntoIterator<Item = (EntityId, f64)>>(iter: I) -> SnippetEntities {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl fmt::Debug for SnippetEntities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for SnippetEntities {
    fn eq(&self, other: &SnippetEntities) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<(EntityId, f64)>> for SnippetEntities {
    fn eq(&self, other: &Vec<(EntityId, f64)>) -> bool {
        **self == other[..]
    }
}

/// A generated ranking plus per-entity support diagnostics.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// Entities, best first.
    pub ranking: Vec<EntityId>,
    /// For each ranked entity: total evidence weight backing it (0 ⇒ the
    /// entity came purely from priors — a citation miss).
    pub support: Vec<f64>,
}

/// Internal blended signal for one entity given the evidence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntitySignal {
    pub score: f64,
    pub support: f64,
}

impl Llm {
    /// Per-position attention decay of `mode`: the snippet at position
    /// `i` weighs `1 / (1 + bias * i)`.
    pub(crate) fn position_bias(&self, mode: GroundingMode) -> f64 {
        match mode {
            GroundingMode::Normal => self.config().position_bias,
            GroundingMode::Strict => self.config().strict_position_bias,
        }
    }

    /// The blended ranking signal for one entity, before noise, from its
    /// evidence sums (an [`EvidenceWalk`] at [`Llm::position_bias`]).
    ///
    /// Under [`GroundingMode::Normal`] earlier snippets weigh more
    /// (attention position bias), under [`GroundingMode::Strict`] the
    /// weighting is nearly uniform and the prior is excluded.
    pub(crate) fn signal(&self, entity: EntityId, sums: Sums, mode: GroundingMode) -> EntitySignal {
        let cfg = self.config();
        let Sums {
            weight_sum,
            score_sum,
            first_weight,
        } = sums;
        // The evidence signal blends the (position-weighted) mean with a
        // first-mention salience term: models anchor on early context, so
        // an entity that leads the evidence reads as a stronger answer.
        // Strict grounding both flattens the position weights (small
        // `bias`) and attenuates the salience channel — the instruction
        // "use only the provided documents" forces more uniform reading —
        // which is why strict grounding stabilizes shuffles.
        let evidence_mean = if weight_sum > 0.0 {
            let mean = score_sum / weight_sum;
            let sw = match mode {
                GroundingMode::Normal => cfg.salience_weight,
                GroundingMode::Strict => cfg.salience_weight * STRICT_SALIENCE_ATTENUATION,
            };
            (1.0 - sw) * mean + sw * first_weight
        } else {
            0.5
        };

        let prior = self.prior(entity);
        let score = match mode {
            GroundingMode::Normal => {
                // Prior weight grows with strength but is also tempered by
                // how much evidence arrived: plentiful evidence drags even
                // confident models a little.
                let w_prior = if weight_sum > 0.0 {
                    cfg.prior_weight_scale * prior.strength
                } else {
                    // No evidence at all: the prior is all the model has.
                    0.5 + 0.5 * prior.strength
                };
                w_prior * prior.quality + (1.0 - w_prior) * evidence_mean
            }
            GroundingMode::Strict => evidence_mean,
        };
        EntitySignal {
            score,
            support: weight_sum,
        }
    }

    /// The signal of one entity given `evidence`, plus `noise`.
    #[cfg(test)]
    pub(crate) fn entity_signal(
        &self,
        entity: EntityId,
        evidence: &[Snippet],
        mode: GroundingMode,
        noise: f64,
    ) -> EntitySignal {
        EvidenceWalk::with(|walk| {
            walk.run(evidence, self.position_bias(mode));
            let mut signal = self.signal(entity, walk.sums(entity), mode);
            signal.score += noise;
            signal
        })
    }

    /// Per-run, per-entity deterministic noise.
    pub(crate) fn noise(&self, entity: EntityId, mode: GroundingMode, seed: u64) -> f64 {
        let cfg = self.config();
        let scale = match mode {
            GroundingMode::Normal => {
                // Quadratic in unfamiliarity: entities with moderately
                // strong priors are still judged consistently; only truly
                // low-coverage entities get the full knowledge-seeking
                // wobble.
                let unfamiliar = 1.0 - self.prior(entity).strength;
                cfg.base_noise + cfg.weak_prior_noise * unfamiliar * unfamiliar
            }
            // Strict grounding suppresses (but cannot fully remove) the
            // model's own variance — regenerations still jitter slightly.
            GroundingMode::Strict => cfg.base_noise * 0.15,
        };
        let mut rng = SplitMix64::new(
            seed ^ (0x9E37_79B9 ^ u64::from(entity.0)).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        let u = rng.next_u64() as f64 / u64::MAX as f64;
        (2.0 * u - 1.0) * scale
    }

    /// Generates a ranking of `candidates` given `evidence`.
    ///
    /// Under strict grounding, entities without any snippet support are
    /// demoted below all supported entities (the model "cannot speak" about
    /// them), preserving their prior order only among themselves.
    ///
    /// The evidence is walked once for all candidates.
    pub fn rank_entities(
        &self,
        candidates: &[EntityId],
        evidence: &[Snippet],
        mode: GroundingMode,
        seed: u64,
    ) -> RankedAnswer {
        EvidenceWalk::with(|walk| {
            walk.run(evidence, self.position_bias(mode));
            self.rank_walked(walk, candidates, mode, seed)
        })
    }

    /// [`Llm::rank_entities`] over the entities `evidence` speaks about,
    /// as narrowed by `select`: it receives them once each, in order of
    /// first appearance, and keeps the candidates. One walk over the
    /// evidence both lists them and scores them. The ranking does not
    /// depend on the order `select` leaves.
    pub fn rank_evidence(
        &self,
        evidence: &[Snippet],
        mode: GroundingMode,
        seed: u64,
        select: impl FnOnce(&mut Vec<EntityId>),
    ) -> RankedAnswer {
        EvidenceWalk::with(|walk| {
            walk.run(evidence, self.position_bias(mode));
            let mut candidates = std::mem::take(walk.entities_mut());
            select(&mut candidates);
            let answer = self.rank_walked(walk, &candidates, mode, seed);
            *walk.entities_mut() = candidates;
            answer
        })
    }

    fn rank_walked(
        &self,
        walk: &EvidenceWalk,
        candidates: &[EntityId],
        mode: GroundingMode,
        seed: u64,
    ) -> RankedAnswer {
        let mut scored: Vec<(EntityId, EntitySignal)> = candidates
            .iter()
            .map(|&e| {
                let mut signal = self.signal(e, walk.sums(e), mode);
                signal.score += self.noise(e, mode, seed);
                (e, signal)
            })
            .collect();
        scored.sort_by(|a, b| {
            let demote_a = mode == GroundingMode::Strict && a.1.support == 0.0;
            let demote_b = mode == GroundingMode::Strict && b.1.support == 0.0;
            demote_a
                .cmp(&demote_b)
                .then_with(|| b.1.score.total_cmp(&a.1.score))
                .then_with(|| a.0.cmp(&b.0))
        });
        RankedAnswer {
            ranking: scored.iter().map(|(e, _)| *e).collect(),
            support: scored.iter().map(|(_, s)| s.support).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::Llm;
    use shift_corpus::{World, WorldConfig};

    fn setup() -> (World, Llm) {
        let world = World::generate(&WorldConfig::small(), 21);
        let llm = Llm::pretrain(&world, LlmConfig::default());
        (world, llm)
    }

    fn snippet(url: &str, entities: Vec<(EntityId, f64)>) -> Snippet {
        Snippet {
            url: url.into(),
            text: "".into(),
            entities: entities.into(),
            age_days: 10.0,
        }
    }

    #[test]
    fn strict_mode_follows_evidence_exactly() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..4].iter().map(|e| e.id).collect();
        let evidence = vec![
            snippet("https://a.com/1", vec![(ids[0], 0.2), (ids[1], 0.9)]),
            snippet("https://a.com/2", vec![(ids[2], 0.6), (ids[3], 0.4)]),
        ];
        let out = llm.rank_entities(&ids, &evidence, GroundingMode::Strict, 7);
        assert_eq!(out.ranking[0], ids[1], "0.9 must rank first");
        assert_eq!(out.ranking[3], ids[0], "0.2 must rank last");
    }

    #[test]
    fn strict_mode_demotes_unsupported_entities() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..3].iter().map(|e| e.id).collect();
        let evidence = vec![snippet("https://a.com/1", vec![(ids[2], 0.1)])];
        let out = llm.rank_entities(&ids, &evidence, GroundingMode::Strict, 7);
        assert_eq!(out.ranking[0], ids[2], "only supported entity must lead");
        assert_eq!(out.support[0], 1.0);
        assert_eq!(out.support[1], 0.0);
    }

    #[test]
    fn normal_mode_resists_evidence_for_strong_prior_entities() {
        let (world, llm) = setup();
        // The most-covered entity has a strong prior.
        let strong = world
            .entities()
            .iter()
            .max_by(|a, b| {
                llm.prior(a.id)
                    .strength
                    .total_cmp(&llm.prior(b.id).strength)
            })
            .unwrap();
        let prior_q = llm.prior(strong.id).quality;
        // Hostile evidence claims quality 0.05.
        let evidence = vec![snippet("https://x.com/1", vec![(strong.id, 0.05)])];
        let sig = llm.entity_signal(strong.id, &evidence, GroundingMode::Normal, 0.0);
        // Blended score should stay much closer to the prior than to 0.05.
        assert!(
            (sig.score - prior_q).abs() < (sig.score - 0.05).abs(),
            "score {:.3} vs prior {:.3}",
            sig.score,
            prior_q
        );
        // Strict grounding, by contrast, capitulates: the evidence signal
        // is the salience-blended snippet score, with no prior at all.
        let strict = llm.entity_signal(strong.id, &evidence, GroundingMode::Strict, 0.0);
        let sw = llm.config().salience_weight * STRICT_SALIENCE_ATTENUATION;
        let expected = (1.0 - sw) * 0.05 + sw * 1.0; // sole snippet leads the context
        assert!(
            (strict.score - expected).abs() < 1e-9,
            "strict score {:.3} vs expected {:.3}",
            strict.score,
            expected
        );
        assert!(
            strict.score < 0.5,
            "strict score must track the hostile evidence"
        );
    }

    #[test]
    fn position_bias_weighs_early_snippets_more() {
        let (world, llm) = setup();
        // Use the weakest-prior entity so the evidence term dominates the
        // blend and the order effect is visible in the final score.
        let e = world
            .entities()
            .iter()
            .min_by(|a, b| {
                llm.prior(a.id)
                    .strength
                    .total_cmp(&llm.prior(b.id).strength)
            })
            .unwrap()
            .id;
        let high_first = vec![
            snippet("https://a.com/1", vec![(e, 0.9)]),
            snippet("https://a.com/2", vec![(e, 0.1)]),
        ];
        let low_first = vec![
            snippet("https://a.com/2", vec![(e, 0.1)]),
            snippet("https://a.com/1", vec![(e, 0.9)]),
        ];
        let s_high = llm.entity_signal(e, &high_first, GroundingMode::Normal, 0.0);
        let s_low = llm.entity_signal(e, &low_first, GroundingMode::Normal, 0.0);
        assert!(
            s_high.score > s_low.score,
            "presentation order must matter in normal mode ({:.3} vs {:.3})",
            s_high.score,
            s_low.score
        );
        // …and matter less under strict grounding (smaller residual bias).
        let t_high = llm.entity_signal(e, &high_first, GroundingMode::Strict, 0.0);
        let t_low = llm.entity_signal(e, &low_first, GroundingMode::Strict, 0.0);
        assert!(
            (t_high.score - t_low.score).abs() < (s_high.score - s_low.score).abs(),
            "strict Δ {:.4} vs normal Δ {:.4}",
            (t_high.score - t_low.score).abs(),
            (s_high.score - s_low.score).abs()
        );
    }

    #[test]
    fn no_evidence_falls_back_to_prior() {
        let (world, llm) = setup();
        let e = world.entities()[5].id;
        let sig = llm.entity_signal(e, &[], GroundingMode::Normal, 0.0);
        assert_eq!(sig.support, 0.0);
        let prior = llm.prior(e);
        let w = 0.5 + 0.5 * prior.strength;
        let expected = w * prior.quality + (1.0 - w) * 0.5;
        assert!((sig.score - expected).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_and_weaker_for_strong_priors() {
        let (world, llm) = setup();
        let strong = world
            .entities()
            .iter()
            .max_by(|a, b| {
                llm.prior(a.id)
                    .strength
                    .total_cmp(&llm.prior(b.id).strength)
            })
            .unwrap()
            .id;
        let weak = world
            .entities()
            .iter()
            .min_by(|a, b| {
                llm.prior(a.id)
                    .strength
                    .total_cmp(&llm.prior(b.id).strength)
            })
            .unwrap()
            .id;
        assert_eq!(
            llm.noise(strong, GroundingMode::Normal, 42),
            llm.noise(strong, GroundingMode::Normal, 42)
        );
        // Noise amplitude comparison over several seeds.
        let amp = |e: EntityId| {
            (0..50)
                .map(|s| llm.noise(e, GroundingMode::Normal, s).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(amp(weak) > amp(strong));
    }

    #[test]
    fn ranking_is_deterministic_per_seed_and_varies_across_seeds() {
        let (world, llm) = setup();
        let ids: Vec<EntityId> = world.entities()[..10].iter().map(|e| e.id).collect();
        let a = llm.rank_entities(&ids, &[], GroundingMode::Normal, 1);
        let b = llm.rank_entities(&ids, &[], GroundingMode::Normal, 1);
        assert_eq!(a.ranking, b.ranking);
        let differs = (2..40).any(|s| {
            llm.rank_entities(&ids, &[], GroundingMode::Normal, s)
                .ranking
                != a.ranking
        });
        assert!(differs, "noise must act across seeds");
    }

    #[test]
    fn snippet_score_lookup() {
        let s = snippet("https://a.com", vec![(EntityId(3), 0.7)]);
        assert_eq!(s.score_for(EntityId(3)), Some(0.7));
        assert_eq!(s.score_for(EntityId(4)), None);
    }
}
