//! Deterministic fault injection over the engine stack.
//!
//! The paper's five answer systems are live services that fail, stall and
//! return partial payloads in the wild; a serving layer that wants to
//! survive them has to be tested against exactly that behaviour. This
//! module makes the flakiness *reproducible*: a [`FaultPlan`] declares
//! what can go wrong (transient errors, latency spikes, truncated
//! payloads, panics, engine-outage windows) and a [`FaultInjector`] wraps an
//! [`AnswerEngines`] behind the [`FallibleEngines`] trait, deciding
//! whether each attempt goes wrong from seeds alone.
//!
//! Every decision is a pure function of `(request seed, engine, plan
//! epoch, attempt)` hashed through SplitMix64 — no wall clock and no
//! global RNG participate — so a chaos run over a fixed request stream is
//! bit-reproducible: the same plan and seeds produce the same faults, in
//! any order of execution. Outage windows live on a per-request *phase*
//! axis (a seeded hash of the request, uniform in `[0, 1)`) rather than
//! wall-clock time for the same reason: whether a given request finds an
//! engine down never depends on when a thread happened to run it, and a
//! retry of the same request during an outage stays down — which is what
//! forces the serving layer's degradation ladder to engage.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use shift_metrics::bootstrap::SplitMix64;
use shift_search::QueryScratch;

use crate::answer::EngineAnswer;
use crate::persona::EngineKind;
use crate::stack::AnswerEngines;

/// Why an engine attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineError {
    /// A transient fault (dropped connection, 5xx): a later attempt of
    /// the same request may succeed.
    Transient,
    /// The engine is inside an outage window: every attempt of this
    /// request will fail, so retrying is pointless.
    Unavailable,
    /// The engine replied, but the payload came back truncated or empty
    /// and was rejected at the engine boundary; retryable.
    Truncated,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            EngineError::Transient => "transient engine error",
            EngineError::Unavailable => "engine unavailable (outage window)",
            EngineError::Truncated => "truncated or empty answer payload",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for EngineError {}

/// An engine front that may fail per attempt.
///
/// [`AnswerEngines`] implements this trivially (it never fails);
/// [`FaultInjector`] implements it by consulting a [`FaultPlan`] before
/// delegating. The serving layer programs against this trait so the same
/// resilience machinery runs in production (infallible) and chaos
/// (fault-injected) configurations.
pub trait FallibleEngines: Send + Sync {
    /// The underlying infallible stack (used for degradation fallbacks
    /// and for workload construction).
    fn stack(&self) -> &AnswerEngines;

    /// Attempts one answer. `attempt` numbers the retries of a single
    /// request (0 = first try) and salts the per-attempt fault decision,
    /// so a retry is a fresh draw — except inside an outage window, which
    /// is attempt-independent by design.
    fn try_answer_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
        attempt: u32,
    ) -> Result<EngineAnswer, EngineError>;
}

impl FallibleEngines for AnswerEngines {
    fn stack(&self) -> &AnswerEngines {
        self
    }

    fn try_answer_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
        _attempt: u32,
    ) -> Result<EngineAnswer, EngineError> {
        Ok(self.answer_with(scratch, kind, query, k, seed))
    }
}

/// One engine-unavailability window on the request-phase axis.
///
/// Each request derives a phase in `[0, 1)` from its seed; the window
/// covers requests whose phase lands in `[start, end)`. A full outage
/// (`start = 0.0, end = 1.0`) takes the engine down for every request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// The engine that is down.
    pub engine: EngineKind,
    /// Inclusive start of the covered phase range.
    pub start: f64,
    /// Exclusive end of the covered phase range.
    pub end: f64,
}

impl OutageWindow {
    /// True when `phase` falls inside the window.
    pub fn covers(&self, phase: f64) -> bool {
        self.start <= phase && phase < self.end
    }

    /// Fraction of the engine's requests the window takes down.
    pub fn coverage(&self) -> f64 {
        (self.end - self.start).clamp(0.0, 1.0)
    }
}

/// The fault decision for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// No fault: the attempt proceeds normally.
    None,
    /// Fail with [`EngineError::Transient`].
    Transient,
    /// Fail with [`EngineError::Truncated`].
    Truncated,
    /// Fail with [`EngineError::Unavailable`] (outage window).
    Unavailable,
    /// Succeed, but only after an injected latency spike of the given
    /// duration (the decision to spike is seeded; only the sleep itself
    /// consumes wall-clock time).
    Spike(Duration),
    /// Panic inside the attempt, the way a bug in an engine client
    /// would: the serving layer must contain it, not the engine front.
    Panic,
}

/// A declarative chaos scenario: fault rates, spike shape and outage
/// windows, all keyed by an `epoch` so distinct chaos runs over the same
/// workload draw independent fault streams.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Salt mixed into every decision; bump it to re-roll the fault
    /// stream without touching the workload seeds.
    pub epoch: u64,
    /// Per-attempt probability of a transient error.
    pub transient_rate: f64,
    /// Per-attempt probability of a truncated/empty payload.
    pub truncated_rate: f64,
    /// Per-attempt probability of a latency spike.
    pub spike_rate: f64,
    /// Duration of an injected latency spike.
    pub spike: Duration,
    /// Per-attempt probability of a panic. Drawn after every other
    /// fault, so a zero rate leaves the other decisions untouched.
    pub panic_rate: f64,
    /// Engine-unavailability windows on the request-phase axis.
    pub outages: Vec<OutageWindow>,
}

/// Salt for the per-request outage phase (attempt-independent).
const PHASE_SALT: u64 = 0x5048_4153_455f_4f55;
/// Salt for the per-attempt fault draw stream.
const DRAW_SALT: u64 = 0x4641_554c_545f_4452;

/// SplitMix64-scrambled mix of two words.
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Uniform `[0, 1)` from one word.
fn unit(x: u64) -> f64 {
    // 53 high bits -> the full f64 mantissa range.
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan that injects nothing (the production configuration; useful
    /// for byte-identity checks of the resilient path).
    pub fn zero(epoch: u64) -> FaultPlan {
        FaultPlan {
            epoch,
            transient_rate: 0.0,
            truncated_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::ZERO,
            panic_rate: 0.0,
            outages: Vec::new(),
        }
    }

    /// The committed standard chaos plan: 40 % transient errors, 10 %
    /// truncated payloads, 5 % half-millisecond latency spikes, no
    /// panics, and one full outage window taking Gemini down for every
    /// request.
    pub fn standard(epoch: u64) -> FaultPlan {
        FaultPlan {
            epoch,
            transient_rate: 0.40,
            truncated_rate: 0.10,
            spike_rate: 0.05,
            spike: Duration::from_micros(500),
            panic_rate: 0.0,
            outages: vec![OutageWindow {
                engine: EngineKind::Gemini,
                start: 0.0,
                end: 1.0,
            }],
        }
    }

    /// The request's phase on the outage axis, uniform in `[0, 1)` and
    /// independent of the attempt number.
    pub fn phase(&self, kind: EngineKind, seed: u64) -> f64 {
        unit(mix(
            seed ^ PHASE_SALT,
            self.epoch ^ (kind.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        ))
    }

    /// True when an outage window of this plan covers the request.
    /// Attempt-independent, like the windows themselves.
    pub fn is_down(&self, kind: EngineKind, seed: u64) -> bool {
        self.outages
            .iter()
            .any(|outage| outage.engine == kind && outage.covers(self.phase(kind, seed)))
    }

    /// The seeded fault decision for one attempt. Pure: same inputs,
    /// same decision, on any thread at any time.
    pub fn decide(&self, kind: EngineKind, seed: u64, attempt: u32) -> FaultDecision {
        if self.is_down(kind, seed) {
            return FaultDecision::Unavailable;
        }
        let mut rng = SplitMix64::new(mix(
            seed ^ DRAW_SALT,
            self.epoch
                ^ (kind.index() as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
        ));
        if unit(rng.next_u64()) < self.transient_rate {
            return FaultDecision::Transient;
        }
        if unit(rng.next_u64()) < self.truncated_rate {
            return FaultDecision::Truncated;
        }
        if unit(rng.next_u64()) < self.spike_rate {
            return FaultDecision::Spike(self.spike);
        }
        if unit(rng.next_u64()) < self.panic_rate {
            return FaultDecision::Panic;
        }
        FaultDecision::None
    }
}

/// An [`AnswerEngines`] front that injects the faults of a [`FaultPlan`].
pub struct FaultInjector {
    stack: Arc<AnswerEngines>,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wrap `stack` behind `plan`.
    pub fn new(stack: Arc<AnswerEngines>, plan: FaultPlan) -> FaultInjector {
        FaultInjector { stack, plan }
    }

    /// A clone of the wrapped stack handle.
    pub fn stack_handle(&self) -> Arc<AnswerEngines> {
        Arc::clone(&self.stack)
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FallibleEngines for FaultInjector {
    fn stack(&self) -> &AnswerEngines {
        &self.stack
    }

    fn try_answer_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
        attempt: u32,
    ) -> Result<EngineAnswer, EngineError> {
        match self.plan.decide(kind, seed, attempt) {
            FaultDecision::Transient => Err(EngineError::Transient),
            FaultDecision::Truncated => Err(EngineError::Truncated),
            FaultDecision::Unavailable => Err(EngineError::Unavailable),
            FaultDecision::Spike(duration) => {
                if !duration.is_zero() {
                    std::thread::sleep(duration);
                }
                Ok(self.stack.answer_with(scratch, kind, query, k, seed))
            }
            FaultDecision::None => Ok(self.stack.answer_with(scratch, kind, query, k, seed)),
            FaultDecision::Panic => panic!("injected panic: {kind:?} attempt {attempt}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::standard(7);
        for kind in EngineKind::ALL {
            for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
                for attempt in 0..4 {
                    assert_eq!(
                        plan.decide(kind, seed, attempt),
                        plan.decide(kind, seed, attempt),
                        "{kind:?}/{seed}/{attempt} must redraw identically"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_plan_never_faults() {
        let plan = FaultPlan::zero(99);
        for kind in EngineKind::ALL {
            for seed in 0..256u64 {
                assert_eq!(plan.decide(kind, seed, 0), FaultDecision::None);
            }
        }
    }

    #[test]
    fn standard_plan_takes_gemini_fully_down() {
        let plan = FaultPlan::standard(7);
        for seed in 0..128u64 {
            for attempt in 0..3 {
                assert_eq!(
                    plan.decide(EngineKind::Gemini, seed, attempt),
                    FaultDecision::Unavailable,
                    "a full outage window must be attempt-independent"
                );
            }
            assert_ne!(
                plan.decide(EngineKind::Google, seed, 0),
                FaultDecision::Unavailable,
                "no outage window covers Google"
            );
        }
    }

    #[test]
    fn transient_rate_is_calibrated() {
        let plan = FaultPlan {
            truncated_rate: 0.0,
            spike_rate: 0.0,
            outages: Vec::new(),
            ..FaultPlan::standard(3)
        };
        let n = 4000;
        let transient = (0..n)
            .filter(|&seed| plan.decide(EngineKind::Gpt4o, seed, 0) == FaultDecision::Transient)
            .count();
        let rate = transient as f64 / n as f64;
        assert!(
            (rate - plan.transient_rate).abs() < 0.03,
            "observed transient rate {rate:.3} vs configured {}",
            plan.transient_rate
        );
    }

    #[test]
    fn a_panic_rate_only_turns_clean_attempts_into_panics() {
        let base = FaultPlan::standard(5);
        let panicky = FaultPlan {
            panic_rate: 0.3,
            ..base.clone()
        };
        let mut panics = 0usize;
        for kind in EngineKind::ALL {
            for seed in 0..512u64 {
                let (before, after) = (base.decide(kind, seed, 0), panicky.decide(kind, seed, 0));
                if after == FaultDecision::Panic {
                    assert_eq!(before, FaultDecision::None, "{kind:?}/{seed}");
                    panics += 1;
                } else {
                    assert_eq!(before, after, "{kind:?}/{seed}");
                }
            }
        }
        assert!(panics > 0, "a 30% panic rate must draw some panics");
    }

    #[test]
    fn retries_redraw_the_fault() {
        let plan = FaultPlan {
            transient_rate: 0.5,
            truncated_rate: 0.0,
            spike_rate: 0.0,
            outages: Vec::new(),
            ..FaultPlan::standard(11)
        };
        // Some request that fails attempt 0 must succeed on a later
        // attempt: the draw is per-attempt, not per-request.
        let recovered = (0..512u64).any(|seed| {
            plan.decide(EngineKind::Claude, seed, 0) == FaultDecision::Transient
                && plan.decide(EngineKind::Claude, seed, 1) == FaultDecision::None
        });
        assert!(recovered, "attempt must salt the fault draw");
    }

    #[test]
    fn is_down_mirrors_the_outage_decision() {
        let plan = FaultPlan {
            outages: vec![OutageWindow {
                engine: EngineKind::Claude,
                start: 0.25,
                end: 0.75,
            }],
            ..FaultPlan::zero(13)
        };
        let mut covered = 0usize;
        for seed in 0..512u64 {
            let down = plan.is_down(EngineKind::Claude, seed);
            covered += usize::from(down);
            assert_eq!(
                down,
                plan.decide(EngineKind::Claude, seed, 0) == FaultDecision::Unavailable,
                "the health probe must agree with the attempt decision"
            );
            assert!(
                !plan.is_down(EngineKind::Google, seed),
                "no window covers Google"
            );
        }
        // Half-open window on a uniform phase axis covers about half.
        let frac = covered as f64 / 512.0;
        assert!((frac - 0.5).abs() < 0.1, "window coverage skew: {frac:.3}");
    }

    #[test]
    fn epoch_rerolls_the_stream() {
        let a = FaultPlan::standard(1);
        let b = FaultPlan::standard(2);
        let differs = (0..256u64).any(|seed| {
            a.decide(EngineKind::Gpt4o, seed, 0) != b.decide(EngineKind::Gpt4o, seed, 0)
        });
        assert!(differs, "distinct epochs must draw distinct fault streams");
    }

    #[test]
    fn phase_is_uniform_ish() {
        let plan = FaultPlan::standard(5);
        let n = 2000;
        let low = (0..n)
            .filter(|&seed| plan.phase(EngineKind::Perplexity, seed) < 0.5)
            .count();
        let frac = low as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "phase skew: {frac:.3}");
    }

    #[test]
    fn injector_injects_and_delegates() {
        use shift_corpus::{World, WorldConfig};
        let world = Arc::new(World::generate(&WorldConfig::small(), 55));
        let stack = Arc::new(AnswerEngines::build(world));
        let mut scratch = QueryScratch::new();

        let clean = FaultInjector::new(Arc::clone(&stack), FaultPlan::zero(1));
        let direct = stack.answer(EngineKind::Gpt4o, "best laptops 2025", 10, 3);
        let injected = clean
            .try_answer_with(
                &mut scratch,
                EngineKind::Gpt4o,
                "best laptops 2025",
                10,
                3,
                0,
            )
            .expect("zero plan cannot fail");
        assert_eq!(direct.text, injected.text);
        assert_eq!(direct.citations.len(), injected.citations.len());

        let down = FaultInjector::new(
            Arc::clone(&stack),
            FaultPlan {
                outages: vec![OutageWindow {
                    engine: EngineKind::Gpt4o,
                    start: 0.0,
                    end: 1.0,
                }],
                ..FaultPlan::zero(1)
            },
        );
        let err = down
            .try_answer_with(
                &mut scratch,
                EngineKind::Gpt4o,
                "best laptops 2025",
                10,
                3,
                0,
            )
            .expect_err("full outage must fail");
        assert_eq!(err, EngineError::Unavailable);
    }

    #[test]
    fn errors_display_distinctly() {
        let all = [
            EngineError::Transient,
            EngineError::Unavailable,
            EngineError::Truncated,
        ];
        let texts: std::collections::HashSet<String> = all.iter().map(|e| e.to_string()).collect();
        assert_eq!(texts.len(), all.len());
    }
}
