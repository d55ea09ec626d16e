//! One simulated serving replica: the worker-pool/admission-queue/
//! breaker/degradation stack of [`crate::AnswerService`], re-hosted on a
//! deterministic virtual clock.
//!
//! The replicated tier has to show *load* phenomena — queueing delay,
//! saturation cliffs, failover under partial outage — and those are
//! exactly the phenomena a wall-clock thread pool cannot reproduce
//! bit-identically: they depend on which thread won which race. So a
//! [`Replica`] keeps the real serving semantics (the shared
//! [`resolve_ladder`](crate::service) runs the actual breaker, retry,
//! stale-cache and SERP-fallback machinery, and answers are computed for
//! real on the engine stack) but models *time* as a G/G/c queue on a
//! virtual microsecond clock:
//!
//! * `workers` virtual servers, each a min-heap entry holding the tick at
//!   which it next comes free;
//! * a bounded waiting line (`queue_depth`): an arrival that finds the
//!   line full is rejected, exactly like the threaded admission queue;
//! * a seeded heavy-tailed [`ServiceModel`] draws each request's service
//!   time, with retry backoffs from the ladder added on top (a backoff
//!   holds the worker in the threaded service too);
//! * per-replica [`FaultPlan`] (re-keyed by [`FaultPlan::for_replica`]),
//!   [`BreakerSet`], [`AnswerCache`] and [`ServiceMetrics`], so replicas
//!   fail independently and report independently;
//! * optional hard-down [`TickWindow`]s — virtual-time outages of the
//!   whole replica, the scripted mid-run failures the router fails over
//!   around.
//!
//! Every latency, rejection and failover is a pure function of the
//! configuration seeds, so a tier run is byte-reproducible; the answers
//! themselves are the engines' real answers (deduplicated through a
//! shared [`AnswerMemo`] — an answer is a pure function of
//! `(engine, query, k, seed)`, so the tier computes each distinct request
//! once however many times the open-loop stream repeats it).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use shift_engines::{
    AnswerEngines, EngineAnswer, EngineError, EngineKind, FallibleEngines, FaultDecision,
    FaultPlan, QueryScratch, SerpCacheStats, SingleFlightStats,
};
use shift_metrics::bootstrap::SplitMix64;

use crate::cache::{AnswerCache, CacheConfig, CacheKey};
use crate::error::ServeError;
use crate::metrics::{EngineLatencySummary, ServiceMetrics};
use crate::report::ReplicaSummary;
use crate::resilience::{BreakerSet, Degradation, ResilienceConfig};
use crate::service::{resolve_ladder, LadderEnv, Request, RetryBudget, REFRESH_ATTEMPT};

/// Virtual-clock resolution: one tick is one microsecond.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// A hard-down window `[start, end)` on the virtual clock: the whole
/// replica (not just one engine) is unreachable while it covers `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickWindow {
    /// Inclusive start tick.
    pub start: u64,
    /// Exclusive end tick.
    pub end: u64,
}

impl TickWindow {
    /// True while the window covers tick `at`.
    pub fn covers(&self, at: u64) -> bool {
        self.start <= at && at < self.end
    }
}

/// Seeded heavy-tailed service-time model of one replica's workers.
///
/// Each serve draws `base_ticks × U[1−jitter, 1+jitter)`, multiplied by
/// `slow_factor` with probability `slow_rate` (the occasional cold-cache
/// / GC / slow-shard request that makes real tails heavy) and by the
/// replica's `speed` factor. Pure in `(seed, request seed, replica,
/// sequence)`.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Nominal service time in ticks.
    pub base_ticks: u64,
    /// Relative uniform jitter in `[0, 1)`.
    pub jitter: f64,
    /// Probability a serve is a slow outlier.
    pub slow_rate: f64,
    /// Multiplier applied to slow outliers.
    pub slow_factor: f64,
    /// Seed of the draw stream.
    pub seed: u64,
}

impl ServiceModel {
    /// The committed tier model: ~1 ms nominal, ±50 % jitter, 2 % of
    /// serves 6× slow.
    pub fn standard() -> ServiceModel {
        ServiceModel {
            base_ticks: 1_000,
            jitter: 0.5,
            slow_rate: 0.02,
            slow_factor: 6.0,
            seed: 0x0053_4552_5649_4345,
        }
    }

    /// The service-time draw for one serve, in ticks (≥ 1). `speed`
    /// scales the whole draw (a 3.0 replica is 3× slower).
    pub fn draw(&self, request_seed: u64, replica: u64, sequence: u64, speed: f64) -> u64 {
        let mut rng = SplitMix64::new(
            self.seed
                ^ request_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ replica.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ sequence.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        let mut factor = 1.0 - self.jitter + 2.0 * self.jitter * unit(rng.next_u64());
        if unit(rng.next_u64()) < self.slow_rate {
            factor *= self.slow_factor;
        }
        ((self.base_ticks as f64 * factor * speed).round() as u64).max(1)
    }
}

/// Uniform `[0, 1)` from one word (53 high bits → the f64 mantissa).
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Virtual worker servers.
    pub workers: usize,
    /// Bounded waiting-line depth; a full line rejects the offer.
    pub queue_depth: usize,
    /// Engine-level fault plan of this replica (full-replica
    /// [`shift_engines::OutageWindow`]s included).
    pub plan: FaultPlan,
    /// Hard-down windows on the virtual clock.
    pub outages: Vec<TickWindow>,
    /// Retry / breaker / degradation policy of the embedded ladder.
    pub resilience: ResilienceConfig,
    /// Answer-cache geometry. The tier default is
    /// [`CacheConfig::always_stale`], matching the chaos harness: the
    /// fresh fast path never hides engine faults and the stale rung
    /// stays stocked, with no wall-clock TTL in sight.
    pub cache: CacheConfig,
    /// Service-time model of the workers.
    pub service: ServiceModel,
    /// Service-time multiplier (> 1.0 = a slower machine).
    pub speed: f64,
}

impl ReplicaConfig {
    /// The committed tier replica: 2 workers, 128-deep queue, no faults.
    pub fn standard() -> ReplicaConfig {
        ReplicaConfig {
            workers: 2,
            queue_depth: 128,
            plan: FaultPlan::zero(1),
            outages: Vec::new(),
            resilience: ResilienceConfig::default(),
            cache: CacheConfig::always_stale(),
            service: ServiceModel::standard(),
            speed: 1.0,
        }
    }
}

/// Cross-replica memo of fully computed answers.
///
/// An [`EngineAnswer`] is a pure function of `(engine, query, k, seed)`,
/// so the tier computes each distinct request once and replays the bytes
/// for every Zipfian repeat — the simulation stays faithful (the *time*
/// a serve costs comes from [`ServiceModel`], never from host compute)
/// while a 100 k-arrival sweep touches the real kernel only a few
/// hundred times.
#[derive(Default)]
pub struct AnswerMemo {
    map: Mutex<HashMap<(EngineKind, String, usize, u64), EngineAnswer>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerMemo {
    /// Fresh empty memo.
    pub fn new() -> AnswerMemo {
        AnswerMemo::default()
    }

    /// The real answer for the tuple, computed at most once.
    pub fn answer(
        &self,
        stack: &AnswerEngines,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
    ) -> EngineAnswer {
        let key = (kind, query.to_string(), k, seed);
        if let Some(hit) = self.map.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let answer = stack.answer_with(scratch, kind, query, k, seed);
        self.map.lock().insert(key, answer.clone());
        answer
    }

    /// Distinct answers computed so far.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when nothing has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Memo hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The fallible front of one replica: the replica's own fault plan over
/// the shared stack, with successful computes deduplicated through the
/// tier memo. Latency spikes are decided but not slept — on the virtual
/// clock, tail latency belongs to [`ServiceModel`].
struct ReplicaEngines {
    stack: Arc<AnswerEngines>,
    plan: FaultPlan,
    memo: Arc<AnswerMemo>,
}

impl FallibleEngines for ReplicaEngines {
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
            FaultDecision::Spike(_) | FaultDecision::None => {
                Ok(self.memo.answer(&self.stack, scratch, kind, query, k, seed))
            }
            FaultDecision::Panic => panic!("injected panic: {kind:?} attempt {attempt}"),
        }
    }
}

/// A virtual-ticks deadline budget for the shared resolve ladder: a
/// backoff is taken by deducting its ticks instead of sleeping.
pub(crate) struct VirtualBudget {
    /// Ticks left until the request's deadline.
    pub remaining: u64,
    /// Ticks spent backing off so far (added to the serve's busy time —
    /// a sleeping worker holds its server in the threaded pool too).
    pub spent: u64,
}

impl RetryBudget for VirtualBudget {
    fn try_wait(&mut self, backoff: Duration) -> bool {
        let ticks = backoff.as_micros() as u64;
        if ticks >= self.remaining {
            return false;
        }
        self.remaining -= ticks;
        self.spent += ticks;
        true
    }
}

/// What one replica did with an offered request.
#[derive(Debug, Clone)]
pub enum Offer {
    /// Served within the deadline.
    Served(ReplicaServed),
    /// Computed, but finished past the deadline: the work is burned and
    /// the request is terminally timed out (no failover — unlike a
    /// rejected offer, the answer was already being produced).
    TimedOut,
    /// The embedded resilience ladder gave up with a typed error
    /// (terminal: every rung of this replica's ladder was consulted).
    Failed(ServeError),
}

/// A successful replica serve.
#[derive(Debug, Clone)]
pub struct ReplicaServed {
    /// The answer (real bytes from the engine stack).
    pub answer: EngineAnswer,
    /// Which rung of the degradation ladder answered.
    pub degradation: Degradation,
    /// Arrival-to-completion latency in ticks (queueing, hop penalties,
    /// backoffs and service time included).
    pub latency_ticks: u64,
}

/// Why an offer did not start at all (no engine work burned, so the
/// router may retry the request on another replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferRejected {
    /// The bounded waiting line is full.
    QueueFull,
    /// The earliest possible start already breaches the deadline.
    WontStart,
}

/// One simulated replica: real serving semantics, virtual time.
pub struct Replica {
    id: usize,
    config: ReplicaConfig,
    front: ReplicaEngines,
    cache: AnswerCache,
    metrics: ServiceMetrics,
    breakers: BreakerSet,
    scratch: QueryScratch,
    /// Min-heap of per-server next-free ticks (`workers` entries).
    server_free: BinaryHeap<Reverse<u64>>,
    /// Min-heap of start ticks of admitted-but-waiting requests.
    queued_starts: BinaryHeap<Reverse<u64>>,
    /// Min-heap of finish ticks of all admitted, unfinished requests.
    in_flight: BinaryHeap<Reverse<u64>>,
    sequence: u64,
    served: u64,
    latencies_ms: Vec<f64>,
}

impl Replica {
    /// Build replica `id` over the shared stack and answer memo.
    pub fn new(
        id: usize,
        stack: Arc<AnswerEngines>,
        memo: Arc<AnswerMemo>,
        config: ReplicaConfig,
    ) -> Replica {
        let cache = AnswerCache::new(&config.cache);
        let breakers = BreakerSet::new(&config.resilience);
        let front = ReplicaEngines {
            stack,
            plan: config.plan.clone(),
            memo,
        };
        let workers = config.workers.max(1);
        Replica {
            id,
            config,
            front,
            cache,
            metrics: ServiceMetrics::new(),
            breakers,
            scratch: QueryScratch::new(),
            server_free: (0..workers).map(|_| Reverse(0)).collect(),
            queued_starts: BinaryHeap::new(),
            in_flight: BinaryHeap::new(),
            sequence: 0,
            served: 0,
            latencies_ms: Vec::new(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This replica's metrics sink (failovers away from this replica are
    /// recorded here by the router).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// True while a scripted hard-down window covers tick `at`.
    pub fn in_outage(&self, at: u64) -> bool {
        self.config.outages.iter().any(|w| w.covers(at))
    }

    /// True when this replica would predictably degrade the request: the
    /// engine's breaker is open, or the replica's fault plan has the
    /// engine inside an outage window. A soft signal — the ladder *can*
    /// still absorb it (stale / SERP rungs) — so the router only skips on
    /// it while healthier candidates remain.
    pub fn impaired(&self, engine: EngineKind, seed: u64) -> bool {
        self.breakers.is_open(engine) || self.config.plan.is_down(engine, seed)
    }

    /// Retire finished work at tick `now`.
    fn drain(&mut self, now: u64) {
        while matches!(self.in_flight.peek(), Some(&Reverse(f)) if f <= now) {
            self.in_flight.pop();
        }
        while matches!(self.queued_starts.peek(), Some(&Reverse(s)) if s <= now) {
            self.queued_starts.pop();
        }
    }

    /// Admitted-but-unfinished requests at tick `now` (the
    /// least-outstanding / power-of-two load signal).
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.drain(now);
        self.in_flight.len()
    }

    /// Offer one request to this replica at tick `now` (`arrival` is the
    /// request's original arrival, before any failover hops). `Err`
    /// means nothing started and the router may try elsewhere; `Ok`
    /// means the request terminated here.
    pub fn offer(
        &mut self,
        request: &Request,
        arrival: u64,
        now: u64,
        deadline: u64,
    ) -> Result<Offer, OfferRejected> {
        let key = CacheKey::new(request.engine, &request.query, request.top_k, request.seed);
        // Fresh-cache fast path, mirroring the threaded submit(): a hit
        // is served before admission control, occupying no server. (The
        // tier default, `CacheConfig::always_stale`, never serves fresh
        // — wall-clock TTLs have no place on a virtual clock — but a
        // custom config gets the same semantics the threaded pool has.)
        if let Some(answer) = self.cache.get(&key) {
            let latency_ticks = now - arrival;
            self.metrics.record_served(
                request.engine,
                Duration::from_micros(latency_ticks),
                true,
                Degradation::None,
            );
            self.served += 1;
            self.latencies_ms
                .push(latency_ticks as f64 / (TICKS_PER_SEC as f64 / 1e3));
            return Ok(Offer::Served(ReplicaServed {
                answer,
                degradation: Degradation::None,
                latency_ticks,
            }));
        }
        self.drain(now);
        if self.queued_starts.len() >= self.config.queue_depth {
            self.metrics.record_overloaded();
            return Err(OfferRejected::QueueFull);
        }
        let Reverse(free) = *self.server_free.peek().expect("workers >= 1");
        let start = now.max(free);
        if start >= deadline {
            return Err(OfferRejected::WontStart);
        }

        // Run the real resilience ladder with a virtual-ticks budget.
        let mut budget = VirtualBudget {
            remaining: deadline - start,
            spent: 0,
        };
        let mut stale_refresh: Option<(Request, CacheKey)> = None;
        let result = {
            let env = LadderEnv {
                fallible: &self.front,
                cache: &self.cache,
                metrics: &self.metrics,
                breakers: &self.breakers,
                resilience: &self.config.resilience,
            };
            resolve_ladder(
                &env,
                &mut self.scratch,
                request,
                &key,
                &mut budget,
                &mut |req, key| {
                    stale_refresh = Some((req.clone(), key.clone()));
                },
            )
        };
        self.metrics.record_kernel(self.scratch.take_stats());

        // Occupy the earliest-free server: backoffs hold the worker just
        // like thread::sleep holds it in the threaded pool.
        let service_ticks = self.config.service.draw(
            request.seed,
            self.id as u64,
            self.sequence,
            self.config.speed,
        );
        self.sequence += 1;
        let finish = start + service_ticks + budget.spent;
        self.server_free.pop();
        self.server_free.push(Reverse(finish));
        self.in_flight.push(Reverse(finish));
        if start > now {
            self.queued_starts.push(Reverse(start));
        }

        match result {
            Ok((answer, degradation)) => {
                if degradation == Degradation::None {
                    // Same policy as the threaded worker: only
                    // full-fidelity answers may enter the cache.
                    self.cache.insert(key, answer.clone());
                }
                // Stale-while-revalidate, inline: the threaded pool runs
                // one background refresh between batches, which in a
                // serial stream is "right after this serve" — same cache
                // evolution, no extra server occupancy (it is background
                // work there too).
                if let Some((req, key)) = stale_refresh {
                    self.refresh(&req, &key);
                }
                if finish > deadline {
                    self.metrics.record_timed_out();
                    return Ok(Offer::TimedOut);
                }
                let latency_ticks = finish - arrival;
                let latency = Duration::from_micros(latency_ticks);
                self.metrics
                    .record_served(request.engine, latency, false, degradation);
                self.served += 1;
                self.latencies_ms
                    .push(latency_ticks as f64 / (TICKS_PER_SEC as f64 / 1e3));
                Ok(Offer::Served(ReplicaServed {
                    answer,
                    degradation,
                    latency_ticks,
                }))
            }
            Err(err) => {
                self.metrics.record_failed();
                Ok(Offer::Failed(err))
            }
        }
    }

    /// One refresh attempt for a stale serve (salted like the threaded
    /// service's background refreshes).
    fn refresh(&mut self, request: &Request, key: &CacheKey) {
        if let Ok(answer) = self.front.try_answer_with(
            &mut self.scratch,
            request.engine,
            &request.query,
            request.top_k,
            request.seed,
            REFRESH_ATTEMPT,
        ) {
            self.cache.insert(key.clone(), answer);
            self.metrics.record_refresh();
        }
        self.metrics.record_kernel(self.scratch.take_stats());
    }

    /// Deterministic per-replica tally for the tier report.
    pub fn summary(&self) -> ReplicaSummary {
        let snap = self.metrics.snapshot(
            self.cache.stats(),
            SerpCacheStats::default(),
            SingleFlightStats::default(),
        );
        ReplicaSummary {
            id: self.id,
            served: self.served,
            failed: snap.failed,
            timed_out: snap.timed_out,
            queue_rejections: snap.overloaded,
            failovers_away: self.metrics.failovers(),
            retries: snap.retries,
            served_stale: snap.served_stale,
            served_degraded: snap.served_degraded,
            breaker_rejections: snap.breaker_rejections,
            engine_failures: snap.engine_failures,
            refreshes: snap.refreshes,
            latency: EngineLatencySummary::of(&self.latencies_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{World, WorldConfig};

    fn stack() -> Arc<AnswerEngines> {
        let world = Arc::new(World::generate(&WorldConfig::small(), 97));
        Arc::new(AnswerEngines::build(world))
    }

    fn request(i: u64) -> Request {
        Request::new(EngineKind::Gpt4o, &format!("replica test query {i}"), 10, i)
    }

    #[test]
    fn tick_window_covers_half_open_range() {
        let w = TickWindow { start: 10, end: 20 };
        assert!(!w.covers(9));
        assert!(w.covers(10));
        assert!(w.covers(19));
        assert!(!w.covers(20));
    }

    #[test]
    fn service_model_is_deterministic_and_heavy_tailed() {
        let model = ServiceModel::standard();
        for seq in 0..64 {
            assert_eq!(model.draw(7, 0, seq, 1.0), model.draw(7, 0, seq, 1.0));
        }
        let draws: Vec<u64> = (0..4000).map(|seq| model.draw(11, 2, seq, 1.0)).collect();
        let max = *draws.iter().max().unwrap();
        let min = *draws.iter().min().unwrap();
        assert!(
            max >= model.base_ticks * 3,
            "slow outliers must stretch the tail (max {max})"
        );
        assert!(min >= (model.base_ticks as f64 * (1.0 - model.jitter) * 0.99) as u64);
        // Speed scales the whole draw.
        let slow = model.draw(11, 2, 0, 3.0);
        let fast = model.draw(11, 2, 0, 1.0);
        assert!(slow > fast * 2, "speed 3.0 must be ~3x slower");
    }

    #[test]
    fn queue_rejects_when_full_and_drains_over_time() {
        let stack = stack();
        let memo = Arc::new(AnswerMemo::new());
        let mut config = ReplicaConfig::standard();
        config.workers = 1;
        config.queue_depth = 2;
        let mut replica = Replica::new(0, stack, memo, config);
        let deadline_ticks = 10 * TICKS_PER_SEC;
        // Flood at tick 0: server + 2 waiting slots, then rejection.
        let mut accepted = 0;
        let mut rejected = 0;
        for i in 0..8 {
            match replica.offer(&request(i), 0, 0, deadline_ticks) {
                Ok(Offer::Served(_)) => accepted += 1,
                Err(OfferRejected::QueueFull) => rejected += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(accepted >= 3, "server + 2 queue slots admit at least 3");
        assert!(rejected > 0, "a 2-deep line must shed an 8-burst");
        // After the backlog finishes, the line is empty again.
        assert_eq!(replica.outstanding(deadline_ticks), 0);
        let late = replica.offer(
            &request(99),
            deadline_ticks,
            deadline_ticks,
            2 * deadline_ticks,
        );
        assert!(matches!(late, Ok(Offer::Served(_))));
    }

    #[test]
    fn offers_are_fifo_on_the_virtual_clock() {
        let stack = stack();
        let memo = Arc::new(AnswerMemo::new());
        let mut config = ReplicaConfig::standard();
        config.workers = 1;
        let mut replica = Replica::new(0, stack, memo, config);
        let deadline = 10 * TICKS_PER_SEC;
        let mut last_latency = 0;
        for i in 0..4 {
            match replica.offer(&request(i), 0, 0, deadline) {
                Ok(Offer::Served(s)) => {
                    assert!(
                        s.latency_ticks > last_latency,
                        "same-tick arrivals on one server must finish in order"
                    );
                    last_latency = s.latency_ticks;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn wont_start_when_backlog_exceeds_deadline() {
        let stack = stack();
        let memo = Arc::new(AnswerMemo::new());
        let mut config = ReplicaConfig::standard();
        config.workers = 1;
        config.queue_depth = 1024;
        let mut replica = Replica::new(0, stack, memo, config);
        // Tight deadline: after a few serves the earliest start is past it.
        let deadline = 2 * replica.config.service.base_ticks;
        let mut saw_wont_start = false;
        for i in 0..16 {
            match replica.offer(&request(i), 0, 0, deadline) {
                Ok(Offer::Served(_)) | Ok(Offer::TimedOut) => {}
                Err(OfferRejected::WontStart) => {
                    saw_wont_start = true;
                    break;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(saw_wont_start, "backlog past the deadline must refuse");
    }

    #[test]
    fn outage_and_impairment_probes() {
        let stack = stack();
        let memo = Arc::new(AnswerMemo::new());
        let mut config = ReplicaConfig::standard();
        config.outages.push(TickWindow {
            start: 100,
            end: 200,
        });
        config.plan = FaultPlan {
            outages: vec![shift_engines::OutageWindow {
                engine: EngineKind::Gemini,
                start: 0.0,
                end: 1.0,
            }],
            ..FaultPlan::zero(1)
        };
        let replica = Replica::new(0, stack, memo, config);
        assert!(!replica.in_outage(99));
        assert!(replica.in_outage(150));
        assert!(!replica.in_outage(200));
        assert!(replica.impaired(EngineKind::Gemini, 7), "plan outage");
        assert!(!replica.impaired(EngineKind::Google, 7));
    }

    #[test]
    fn memo_dedups_identical_requests() {
        let stack = stack();
        let memo = Arc::new(AnswerMemo::new());
        let mut replica = Replica::new(0, Arc::clone(&stack), Arc::clone(&memo), {
            let mut c = ReplicaConfig::standard();
            // Disable the cache so every offer reaches the memo.
            c.cache = CacheConfig::disabled();
            c
        });
        let deadline = 10 * TICKS_PER_SEC;
        for _ in 0..4 {
            let outcome = replica.offer(&request(7), 0, 0, deadline);
            assert!(matches!(outcome, Ok(Offer::Served(_))));
        }
        assert_eq!(memo.len(), 1, "one distinct request computes once");
        assert_eq!(memo.hits(), 3);
        // The memoized bytes are the stack's real bytes.
        let direct = stack.answer(EngineKind::Gpt4o, "replica test query 7", 10, 7);
        match replica.offer(&request(7), 0, 0, deadline) {
            Ok(Offer::Served(s)) => assert_eq!(s.answer.text, direct.text),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn virtual_budget_rejects_oversized_backoffs() {
        let mut budget = VirtualBudget {
            remaining: 500,
            spent: 0,
        };
        assert!(budget.try_wait(Duration::from_micros(200)));
        assert_eq!(budget.remaining, 300);
        assert_eq!(budget.spent, 200);
        assert!(
            !budget.try_wait(Duration::from_micros(300)),
            "equal rejects"
        );
        assert!(!budget.try_wait(Duration::from_micros(400)));
        assert_eq!(budget.spent, 200, "rejected waits cost nothing");
        let mut zero = VirtualBudget {
            remaining: 0,
            spent: 0,
        };
        assert!(
            !zero.try_wait(Duration::ZERO),
            "zero budget admits zero retries"
        );
    }
}
