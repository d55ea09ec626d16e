//! Resilience machinery: budgeted retries with deterministic jitter and a
//! lock-free per-engine circuit breaker.
//!
//! The pieces compose into the service's degradation ladder (see
//! [`crate::service`]):
//!
//! 1. **Retries** — a failed attempt is retried with jittered exponential
//!    backoff. The jitter derives from the request seed via SplitMix64, so
//!    replays back off identically; a backoff that would not fit in the
//!    request's remaining deadline budget is never taken (zero budget ⇒
//!    zero retries).
//! 2. **Circuit breaker** — one [`CircuitBreaker`] per engine counts
//!    consecutive failures; at the threshold it opens and rejects the next
//!    `cooldown` requests outright, then lets exactly one probe through
//!    (half-open). A successful probe closes the breaker; a failed probe
//!    reopens it for another cooldown. The cooldown is counted in
//!    *requests*, not wall-clock time, so breaker behaviour is
//!    reproducible in serial chaos runs.
//! 3. **Degradation** — when retries and the breaker both give up, the
//!    service falls back to a stale cache entry and finally to the organic
//!    Google SERP; [`Degradation`] tags the served answer with how far
//!    down the ladder it came from.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Duration;

use shift_engines::EngineKind;
use shift_metrics::bootstrap::SplitMix64;

/// Resilience policy of one [`crate::AnswerService`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Master switch: disabled means one attempt per request, no breaker
    /// and no degradation — the pre-resilience behaviour.
    pub enabled: bool,
    /// Maximum retry attempts after the first try (`0` = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound of the exponential backoff.
    pub max_backoff: Duration,
    /// Consecutive failures that trip an engine's breaker open.
    pub breaker_threshold: u32,
    /// Requests rejected while open before a half-open probe is allowed.
    pub breaker_cooldown: u32,
    /// Fall back to an expired cache entry when the engine fails.
    pub degrade_to_stale: bool,
    /// Fall back to the Google organic SERP as the last resort.
    pub degrade_to_serp: bool,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            enabled: true,
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            breaker_threshold: 5,
            breaker_cooldown: 16,
            degrade_to_stale: true,
            degrade_to_serp: true,
        }
    }
}

impl ResilienceConfig {
    /// The pre-resilience behaviour: one attempt, fail hard.
    pub fn disabled() -> ResilienceConfig {
        ResilienceConfig {
            enabled: false,
            ..ResilienceConfig::default()
        }
    }
}

/// How far down the degradation ladder a served answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Degradation {
    /// Full fidelity: the requested engine answered.
    None,
    /// The engine failed; an expired cache entry was served and a
    /// background refresh was enqueued (stale-while-revalidate).
    Stale,
    /// The engine failed and no stale entry existed; the Google organic
    /// SERP was served as a citation-only answer.
    SerpFallback,
}

impl Degradation {
    /// True for anything below full fidelity.
    pub fn is_degraded(self) -> bool {
        self != Degradation::None
    }
}

/// Salt of the backoff jitter stream.
const BACKOFF_SALT: u64 = 0x4241_434b_4f46_4621;

/// The jittered exponential backoff before retry `attempt` (1-based) of a
/// request with the given seed.
///
/// Deterministic: the jitter comes from SplitMix64 over `(seed, attempt)`,
/// scaling the capped exponential delay into `[50 %, 100 %]` of its
/// nominal value — same request, same retry, same backoff, every run.
pub fn retry_backoff(config: &ResilienceConfig, seed: u64, attempt: u32) -> Duration {
    debug_assert!(attempt >= 1, "attempt 0 is the first try, not a retry");
    let doubling = 1u32 << (attempt.saturating_sub(1)).min(16);
    let nominal = config
        .base_backoff
        .saturating_mul(doubling)
        .min(config.max_backoff);
    let mut rng = SplitMix64::new(
        seed ^ BACKOFF_SALT ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    nominal.mul_f64(0.5 + 0.5 * unit)
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// Observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests are rejected outright for the rest of the cooldown.
    Open,
    /// One probe request is in flight; everyone else is rejected.
    HalfOpen,
}

/// What the breaker says about one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: proceed normally.
    Admit,
    /// The cooldown just elapsed and this request is the half-open probe:
    /// it gets exactly one attempt, and its outcome decides the state.
    Probe,
    /// Open (or a probe is already in flight): skip the engine entirely.
    Reject,
}

/// A three-state circuit breaker over lock-free atomics.
///
/// `closed → open` on `threshold` consecutive failures; `open →
/// half-open` after `cooldown` rejected requests; `half-open → closed` on
/// probe success, `half-open → open` on probe failure. All transitions
/// are CAS-driven — no locks on the serving hot path.
pub struct CircuitBreaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    cooldown_left: AtomicU32,
    threshold: u32,
    cooldown: u32,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown` rejected requests.
    pub fn new(threshold: u32, cooldown: u32) -> CircuitBreaker {
        CircuitBreaker {
            state: AtomicU8::new(CLOSED),
            consecutive_failures: AtomicU32::new(0),
            cooldown_left: AtomicU32::new(0),
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// Current state (racy by nature; exact in serial runs).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// True when the breaker currently admits requests normally.
    pub fn is_closed(&self) -> bool {
        self.state.load(Ordering::Acquire) == CLOSED
    }

    /// Route one incoming request through the breaker.
    pub fn admit(&self) -> Admission {
        loop {
            match self.state.load(Ordering::Acquire) {
                CLOSED => return Admission::Admit,
                HALF_OPEN => return Admission::Reject,
                _open => {
                    let left = self.cooldown_left.load(Ordering::Acquire);
                    if left == 0 {
                        // Cooldown spent: race to become the probe.
                        if self
                            .state
                            .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            return Admission::Probe;
                        }
                    } else if self
                        .cooldown_left
                        .compare_exchange(left, left - 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Admission::Reject;
                    }
                    // Lost a race; re-read the state.
                }
            }
        }
    }

    /// Record a successful attempt: closes the breaker (a probe success
    /// is the designed half-open → closed edge; a success that lands just
    /// after a concurrent trip also closes it, which is sound — the
    /// engine demonstrably works).
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.state.store(CLOSED, Ordering::Release);
    }

    /// Record a failed attempt: counts toward the trip threshold when
    /// closed, reopens immediately when it was the half-open probe.
    pub fn record_failure(&self) {
        match self.state.load(Ordering::Acquire) {
            HALF_OPEN => self.trip(),
            CLOSED => {
                let failures = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
                if failures >= self.threshold {
                    self.trip();
                }
            }
            _already_open => {}
        }
    }

    fn trip(&self) {
        self.cooldown_left.store(self.cooldown, Ordering::Release);
        self.consecutive_failures.store(0, Ordering::Release);
        self.state.store(OPEN, Ordering::Release);
    }
}

/// One breaker per engine, indexed by [`EngineKind::index`].
pub struct BreakerSet {
    breakers: [CircuitBreaker; 5],
}

impl BreakerSet {
    /// Fresh closed breakers with the configured threshold/cooldown.
    pub fn new(config: &ResilienceConfig) -> BreakerSet {
        BreakerSet {
            breakers: std::array::from_fn(|_| {
                CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown)
            }),
        }
    }

    /// The breaker guarding one engine.
    pub fn of(&self, kind: EngineKind) -> &CircuitBreaker {
        &self.breakers[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_the_full_state_machine() {
        let b = CircuitBreaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);

        // Two failures stay under the threshold.
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Admit);
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // Third consecutive failure trips it open.
        assert_eq!(b.admit(), Admission::Admit);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);

        // Cooldown of 2: two rejections, then the probe slot.
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // Probe fails: reopen for another full cooldown.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Probe);

        // Probe succeeds: closed, counters reset.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Admit);

        // An intervening success resets the consecutive count.
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "2 + 2 around a success never trips"
        );
    }

    #[test]
    fn while_probe_in_flight_others_are_rejected() {
        let b = CircuitBreaker::new(1, 0);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: first admit becomes the probe immediately…
        assert_eq!(b.admit(), Admission::Probe);
        // …and concurrent arrivals are rejected until the probe settles.
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        b.record_success();
        assert_eq!(b.admit(), Admission::Admit);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let config = ResilienceConfig::default();
        for attempt in 1..=6u32 {
            let a = retry_backoff(&config, 0xFEED, attempt);
            let b = retry_backoff(&config, 0xFEED, attempt);
            assert_eq!(a, b, "same seed/attempt must back off identically");
            assert!(
                a <= config.max_backoff,
                "attempt {attempt} exceeded the cap"
            );
            assert!(
                a >= config.base_backoff / 2,
                "jitter floor is half the nominal delay"
            );
        }
        // Different seeds actually jitter.
        let spread = (0..32u64)
            .map(|s| retry_backoff(&config, s, 1))
            .collect::<std::collections::HashSet<_>>();
        assert!(spread.len() > 16, "jitter must spread across seeds");
    }

    #[test]
    fn backoff_grows_until_the_cap() {
        let config = ResilienceConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..ResilienceConfig::default()
        };
        // Nominal (pre-jitter) delays: 1, 2, 4, 4, 4 ms. With jitter in
        // [0.5, 1.0], attempt 3+ can never fall below half the cap.
        let late = retry_backoff(&config, 9, 5);
        assert!(late >= Duration::from_millis(2));
        assert!(late <= Duration::from_millis(4));
        let early = retry_backoff(&config, 9, 1);
        assert!(early <= Duration::from_millis(1));
    }

    #[test]
    fn zero_budget_admits_zero_retries() {
        // The service's retry loop takes a backoff only when it is
        // strictly smaller than the remaining deadline budget. A backoff
        // is never negative, so a zero budget can never admit one.
        let config = ResilienceConfig::default();
        for attempt in 1..=4u32 {
            let backoff = retry_backoff(&config, 7, attempt);
            assert!(backoff >= Duration::ZERO);
            let remaining = Duration::ZERO;
            assert!(
                backoff >= remaining,
                "zero remaining budget must reject every retry"
            );
        }
    }

    #[test]
    fn breaker_set_is_per_engine() {
        let set = BreakerSet::new(&ResilienceConfig {
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        set.of(EngineKind::Gemini).record_failure();
        assert_eq!(set.of(EngineKind::Gemini).state(), BreakerState::Open);
        for kind in [
            EngineKind::Google,
            EngineKind::Gpt4o,
            EngineKind::Claude,
            EngineKind::Perplexity,
        ] {
            assert_eq!(
                set.of(kind).state(),
                BreakerState::Closed,
                "{kind:?} must be isolated"
            );
        }
    }

    #[test]
    fn degradation_levels() {
        assert!(!Degradation::None.is_degraded());
        assert!(Degradation::Stale.is_degraded());
        assert!(Degradation::SerpFallback.is_degraded());
    }
}
