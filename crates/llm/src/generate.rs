//! Listwise ranking generation: blending priors with retrieved evidence.

use std::sync::Arc;

use shift_corpus::EntityId;
use shift_metrics::bootstrap::SplitMix64;
use shift_textkit::Excerpt;

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
/// shared string and its text a window of shared text: a snippet built
/// from a search result shares the result's, so cloning one allocates
/// only its entity list.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// Source URL (becomes the citation).
    pub url: Arc<str>,
    /// Snippet text.
    pub text: Excerpt,
    /// Entities the snippet speaks about, with the quality score the
    /// snippet's page observed for each.
    pub entities: Vec<(EntityId, f64)>,
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
    /// Computes the blended ranking signal for one entity.
    ///
    /// `evidence` is consumed in presentation order; under
    /// [`GroundingMode::Normal`] earlier snippets weigh more (attention
    /// position bias), under [`GroundingMode::Strict`] the weighting is
    /// nearly uniform and the prior is excluded.
    pub(crate) fn entity_signal(
        &self,
        entity: EntityId,
        evidence: &[Snippet],
        mode: GroundingMode,
        noise: f64,
    ) -> EntitySignal {
        let cfg = self.config();
        let bias = match mode {
            GroundingMode::Normal => cfg.position_bias,
            GroundingMode::Strict => cfg.strict_position_bias,
        };
        let mut weight_sum = 0.0;
        let mut score_sum = 0.0;
        let mut first_weight = 0.0; // salience of the earliest mention
        for (pos, snippet) in evidence.iter().enumerate() {
            if let Some(s) = snippet.score_for(entity) {
                let w = 1.0 / (1.0 + bias * pos as f64);
                if weight_sum == 0.0 {
                    first_weight = w;
                }
                weight_sum += w;
                score_sum += w * s;
            }
        }
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
            score: score + noise,
            support: weight_sum,
        }
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
    pub fn rank_entities(
        &self,
        candidates: &[EntityId],
        evidence: &[Snippet],
        mode: GroundingMode,
        seed: u64,
    ) -> RankedAnswer {
        let mut scored: Vec<(EntityId, EntitySignal)> = candidates
            .iter()
            .map(|&e| {
                let noise = self.noise(e, mode, seed);
                (e, self.entity_signal(e, evidence, mode, noise))
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
            entities,
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
