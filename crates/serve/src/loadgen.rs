//! Deterministic load generation over the study's query workloads.
//!
//! A [`Workload`] is a fixed pool of [`shift_queries`] queries plus a
//! Zipfian popularity ranking: request *i* draws query of rank *r* with
//! probability ∝ 1/(r+1)^s, which is what makes answer caching matter —
//! real search traffic repeats its head queries constantly.
//!
//! Two driving modes:
//!
//! * **Closed loop** ([`LoadMode::Closed`]): `clients` threads each issue
//!   their next request through the blocking `answer` only after the
//!   previous one finishes — classic benchmark concurrency, throughput
//!   limited by service latency. Each client runs its own misses.
//! * **Open loop** ([`LoadMode::Open`]): one thread submits requests to
//!   the worker pool at a fixed arrival rate regardless of completions,
//!   sleeping on the wall clock until each is due, then collects the
//!   answers; this is the mode that exercises backpressure honestly.
//!
//! [`run_chaos`] replays the closed loop under a seeded fault plan.
//!
//! Everything is seeded: the same `(workload seed, load seed)` pair
//! yields the same request sequence, and each request's decode seed is
//! derived from its query text, so repeats of a query are byte-identical
//! and cache-coherent.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use shift_corpus::{Vertical, World};
use shift_engines::{AnswerEngines, EngineKind, FaultInjector, FaultPlan};
use shift_queries::{comparison_queries, intent_queries, ranking_queries, vertical_queries, Query};

use crate::cache::CacheConfig;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::resilience::{Degradation, ResilienceConfig};
use crate::service::{AnswerService, Request, ServedAnswer};

/// A fixed query pool with a Zipfian repeat distribution over it.
#[derive(Debug, Clone)]
pub struct Workload {
    queries: Vec<Query>,
    /// Cumulative Zipf weights, `cumulative[i] = Σ_{r≤i} 1/(r+1)^s`.
    cumulative: Vec<f64>,
    seed: u64,
}

impl Workload {
    /// Zipf exponent used by [`Workload::mixed`].
    pub const DEFAULT_ZIPF_S: f64 = 1.0;

    /// The standard mixed workload: ranking + comparison + intent +
    /// vertical queries from all four study generators, shuffled by
    /// `seed` so popularity rank is decoupled from generator order.
    pub fn mixed(world: &World, seed: u64) -> Workload {
        let mut queries = Vec::new();
        queries.extend(ranking_queries(world, 60, seed ^ 0x5261));
        queries.extend(comparison_queries(world, 20, 20, seed ^ 0x434f));
        queries.extend(intent_queries(world, 15, seed ^ 0x494e));
        for vertical in [
            Vertical::ConsumerElectronics,
            Vertical::Automotive,
            Vertical::Travel,
            Vertical::Finance,
        ] {
            queries.extend(vertical_queries(world, vertical, 10, seed ^ 0x5645));
        }
        Workload::from_queries(queries, Self::DEFAULT_ZIPF_S, seed)
    }

    /// Build a workload from an explicit query pool.
    ///
    /// # Panics
    /// Panics when `queries` is empty or `zipf_s` is not finite.
    pub fn from_queries(mut queries: Vec<Query>, zipf_s: f64, seed: u64) -> Workload {
        assert!(!queries.is_empty(), "workload needs at least one query");
        assert!(zipf_s.is_finite(), "Zipf exponent must be finite");
        // Shuffle so Zipf rank (popularity) is independent of which
        // generator a query came from.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5748_4c44);
        use rand::seq::SliceRandom;
        queries.shuffle(&mut rng);
        let mut cumulative = Vec::with_capacity(queries.len());
        let mut total = 0.0;
        for rank in 0..queries.len() {
            total += 1.0 / ((rank + 1) as f64).powf(zipf_s);
            cumulative.push(total);
        }
        Workload {
            queries,
            cumulative,
            seed,
        }
    }

    /// Number of distinct queries in the pool.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Draw one query by Zipf rank.
    pub fn draw<'a>(&'a self, rng: &mut StdRng) -> &'a Query {
        let total = *self.cumulative.last().expect("non-empty");
        let needle = rng.gen_unit() * total;
        let idx = self
            .cumulative
            .partition_point(|&c| c < needle)
            .min(self.queries.len() - 1);
        &self.queries[idx]
    }

    /// The request for draw `i` of engine rotation `engines`.
    ///
    /// The decode seed hashes the query text against the workload seed,
    /// NOT the draw index — so two draws of the same query are identical
    /// requests and the cache may legally serve the second from the
    /// first.
    pub fn request_at(
        &self,
        rng: &mut StdRng,
        i: u64,
        engines: &[EngineKind],
        top_k: usize,
    ) -> Request {
        let query = self.draw(rng);
        let engine = engines[(i % engines.len() as u64) as usize];
        Request::new(
            engine,
            &query.text,
            top_k,
            text_seed(&query.text) ^ self.seed,
        )
    }
}

/// FNV-1a of the query text; the text-derived half of a request seed.
fn text_seed(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How the generator drives the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `clients` synchronous client threads, each waiting for its answer
    /// before issuing the next request.
    Closed {
        /// Concurrent client threads.
        clients: usize,
    },
    /// Fixed arrival rate, submissions never wait on completions.
    Open {
        /// Target arrivals per second.
        rate_per_sec: f64,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests to issue.
    pub requests: u64,
    /// Engines to rotate through (request *i* uses `engines[i % len]`).
    pub engines: Vec<EngineKind>,
    /// Answer depth for every request.
    pub top_k: usize,
    /// Driving mode.
    pub mode: LoadMode,
    /// Seed of the request sequence (independent of the workload seed).
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            requests: 1000,
            engines: EngineKind::ALL.to_vec(),
            top_k: 10,
            mode: LoadMode::Closed { clients: 4 },
            seed: 1,
        }
    }
}

/// Tally of a finished load run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Requests answered (at any fidelity level).
    pub succeeded: u64,
    /// Answered requests served from a stale cache entry (subset of
    /// `succeeded`).
    pub served_stale: u64,
    /// Answered requests served below full fidelity — stale or SERP
    /// fallback (subset of `succeeded`; `served_stale` ⊆ this).
    pub served_degraded: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub overloaded: u64,
    /// Requests that hit their deadline.
    pub timed_out: u64,
    /// Requests failed with [`ServeError::EngineFailed`].
    pub engine_failed: u64,
    /// Requests rejected with [`ServeError::BreakerOpen`].
    pub breaker_open: u64,
    /// Requests failed with [`ServeError::DegradedUnavailable`].
    pub unavailable: u64,
    /// Other failures (shutdown races, lost workers).
    pub failed: u64,
}

impl LoadOutcome {
    fn absorb(&mut self, result: &Result<ServedAnswer, ServeError>) {
        match result {
            Ok(served) => {
                self.succeeded += 1;
                match served.degradation {
                    Degradation::None => {}
                    Degradation::Stale => {
                        self.served_stale += 1;
                        self.served_degraded += 1;
                    }
                    Degradation::SerpFallback => self.served_degraded += 1,
                }
            }
            Err(ServeError::Overloaded) => self.overloaded += 1,
            Err(ServeError::TimedOut) => self.timed_out += 1,
            Err(ServeError::EngineFailed { .. }) => self.engine_failed += 1,
            Err(ServeError::BreakerOpen { .. }) => self.breaker_open += 1,
            Err(ServeError::DegradedUnavailable { .. }) => self.unavailable += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, other: LoadOutcome) {
        self.succeeded += other.succeeded;
        self.served_stale += other.served_stale;
        self.served_degraded += other.served_degraded;
        self.overloaded += other.overloaded;
        self.timed_out += other.timed_out;
        self.engine_failed += other.engine_failed;
        self.breaker_open += other.breaker_open;
        self.unavailable += other.unavailable;
        self.failed += other.failed;
    }

    /// Total requests accounted for (the degraded counters are subsets
    /// of `succeeded`, not separate terminal states).
    pub fn total(&self) -> u64 {
        self.succeeded
            + self.overloaded
            + self.timed_out
            + self.engine_failed
            + self.breaker_open
            + self.unavailable
            + self.failed
    }

    /// Fraction of requests that got *an* answer, at any fidelity.
    /// Vacuously 1.0 for an empty run.
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.succeeded as f64 / total as f64
        }
    }

    /// Fraction of requests answered at full fidelity (requested engine,
    /// fresh answer).
    pub fn full_fidelity(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            (self.succeeded - self.served_degraded) as f64 / total as f64
        }
    }
}

/// Drive `service` with `workload` according to `config`; blocks until
/// every issued request resolves.
pub fn run_load(service: &AnswerService, workload: &Workload, config: &LoadConfig) -> LoadOutcome {
    match config.mode {
        LoadMode::Closed { clients } => run_closed(service, workload, config, clients.max(1)),
        LoadMode::Open { rate_per_sec } => run_open(service, workload, config, rate_per_sec),
    }
}

fn run_closed(
    service: &AnswerService,
    workload: &Workload,
    config: &LoadConfig,
    clients: usize,
) -> LoadOutcome {
    // Pre-materialize the request sequence from one seeded stream, then
    // split it into contiguous per-client chunks: the set of requests is
    // identical for any client count.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let requests: Vec<Request> = (0..config.requests)
        .map(|i| workload.request_at(&mut rng, i, &config.engines, config.top_k))
        .collect();
    let chunk = requests.len().div_ceil(clients).max(1);
    let mut outcome = LoadOutcome::default();
    let partials = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    let mut partial = LoadOutcome::default();
                    for request in slice {
                        partial.absorb(&service.answer(request.clone()));
                    }
                    partial
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    for partial in partials {
        outcome.merge(partial);
    }
    outcome
}

fn run_open(
    service: &AnswerService,
    workload: &Workload,
    config: &LoadConfig,
    rate_per_sec: f64,
) -> LoadOutcome {
    let interval = if rate_per_sec > 0.0 {
        Duration::from_secs_f64(1.0 / rate_per_sec)
    } else {
        Duration::ZERO
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();
    let mut outcome = LoadOutcome::default();
    let mut pending = Vec::new();
    for i in 0..config.requests {
        let due = start + interval.mul_f64(i as f64);
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        let request = workload.request_at(&mut rng, i, &config.engines, config.top_k);
        match service.submit(request) {
            Ok(p) => pending.push(p),
            Err(e) => outcome.absorb(&Err(e)),
        }
    }
    for p in pending {
        outcome.absorb(&p.wait());
    }
    outcome
}

/// Parameters of one chaos experiment: a fault plan, a workload, and the
/// resilience policy whose value the experiment measures.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Requests per run (the resilient and baseline runs each issue
    /// this many, over the identical request sequence).
    pub requests: u64,
    /// Engines to rotate through.
    pub engines: Vec<EngineKind>,
    /// Answer depth for every request.
    pub top_k: usize,
    /// Seed of the query pool and its Zipf shuffle.
    pub workload_seed: u64,
    /// Seed of the request draw sequence.
    pub load_seed: u64,
    /// The faults to inject.
    pub plan: FaultPlan,
    /// Resilience policy of the "on" run (the "off" run always uses
    /// [`ResilienceConfig::disabled`]).
    pub resilience: ResilienceConfig,
    /// Per-request deadline. Generous by default: chaos measures fault
    /// handling, not deadline pressure.
    pub deadline: Duration,
    /// Cache geometry. The default is [`CacheConfig::always_stale`]:
    /// the fresh fast path never serves (every request exercises the
    /// injector — Zipfian repeats can't mask faults behind cache hits,
    /// and no wall-clock TTL can perturb the tally), while the stale
    /// rung of the degradation ladder stays fully stocked.
    pub cache: CacheConfig,
}

impl ChaosConfig {
    /// The committed chaos experiment shape for `plan`.
    pub fn standard(plan: FaultPlan) -> ChaosConfig {
        ChaosConfig {
            requests: 1000,
            engines: EngineKind::ALL.to_vec(),
            top_k: 10,
            workload_seed: 77,
            load_seed: 4242,
            plan,
            resilience: ResilienceConfig::default(),
            deadline: Duration::from_secs(30),
            cache: CacheConfig::always_stale(),
        }
    }
}

/// Availability under chaos, resilience on vs. off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Requests issued per run.
    pub requests: u64,
    /// Tally of the resilience-enabled run.
    pub resilient: LoadOutcome,
    /// Tally of the resilience-disabled run.
    pub baseline: LoadOutcome,
}

impl ChaosReport {
    /// Good-answer rate with resilience on.
    pub fn availability_resilient(&self) -> f64 {
        self.resilient.availability()
    }

    /// Good-answer rate with resilience off.
    pub fn availability_baseline(&self) -> f64 {
        self.baseline.availability()
    }

    /// Resilient availability over baseline availability (∞ when the
    /// baseline answered nothing).
    pub fn ratio(&self) -> f64 {
        let base = self.availability_baseline();
        if base == 0.0 {
            f64::INFINITY
        } else {
            self.availability_resilient() / base
        }
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== chaos availability ==\n");
        out.push_str(&format!("requests per run: {}\n", self.requests));
        out.push_str(&format!(
            "{:<16} {:>13} {:>14} {:>8} {:>8} {:>8}\n",
            "run", "availability", "full fidelity", "stale", "serp", "failed"
        ));
        for (name, o) in [
            ("resilience on", &self.resilient),
            ("resilience off", &self.baseline),
        ] {
            out.push_str(&format!(
                "{:<16} {:>13.4} {:>14.4} {:>8} {:>8} {:>8}\n",
                name,
                o.availability(),
                o.full_fidelity(),
                o.served_stale,
                o.served_degraded - o.served_stale,
                o.total() - o.succeeded,
            ));
        }
        out.push_str(&format!(
            "availability ratio (on/off): {:.2}x\n",
            self.ratio()
        ));
        out
    }
}

/// Run the chaos experiment: the same fault plan and request sequence,
/// once with resilience enabled and once disabled, reporting availability
/// for both.
///
/// Each run is driven serially (one closed-loop client, whose misses run
/// on its own thread, and one worker for the background refreshes) so
/// the tally is bit-reproducible: with every fault decision seeded, the
/// same `ChaosConfig` yields the same [`ChaosReport`] on every machine,
/// every time.
pub fn run_chaos(stack: &Arc<AnswerEngines>, config: &ChaosConfig) -> ChaosReport {
    let workload = Workload::mixed(stack.world(), config.workload_seed);
    let run = |resilience: ResilienceConfig| -> LoadOutcome {
        let injector = FaultInjector::new(Arc::clone(stack), config.plan.clone());
        let serve = ServeConfig {
            workers: 1,
            queue_depth: 4,
            deadline: config.deadline,
            batch_max: ServeConfig::default().batch_max,
            cache: config.cache.clone(),
            resilience,
        };
        let service = AnswerService::start_chaos(injector, serve);
        let load = LoadConfig {
            requests: config.requests,
            engines: config.engines.clone(),
            top_k: config.top_k,
            mode: LoadMode::Closed { clients: 1 },
            seed: config.load_seed,
        };
        let outcome = run_load(&service, &workload, &load);
        service.shutdown();
        outcome
    };
    ChaosReport {
        requests: config.requests,
        resilient: run(config.resilience.clone()),
        baseline: run(ResilienceConfig::disabled()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::small(), 41)
    }

    #[test]
    fn workload_is_deterministic() {
        let w = world();
        let wl_a = Workload::mixed(&w, 9);
        let wl_b = Workload::mixed(&w, 9);
        assert_eq!(wl_a.len(), wl_b.len());
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for i in 0..64 {
            let ra = wl_a.request_at(&mut rng_a, i, &EngineKind::ALL, 10);
            let rb = wl_b.request_at(&mut rng_b, i, &EngineKind::ALL, 10);
            assert_eq!(ra.query, rb.query);
            assert_eq!(ra.engine, rb.engine);
            assert_eq!(ra.seed, rb.seed);
        }
    }

    #[test]
    fn zipf_skews_toward_head() {
        let w = world();
        let workload = Workload::mixed(&w, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; workload.len()];
        let draws = 4000;
        for _ in 0..draws {
            let q = workload.draw(&mut rng);
            let idx = workload
                .queries
                .iter()
                .position(|c| std::ptr::eq(c, q))
                .unwrap();
            counts[idx] += 1;
        }
        let head: u32 = counts.iter().take(workload.len() / 10).sum();
        assert!(
            f64::from(head) / f64::from(draws) > 0.3,
            "top decile must absorb well over its uniform share, got {head}/{draws}"
        );
    }

    #[test]
    fn outcome_availability_math() {
        let o = LoadOutcome {
            succeeded: 80,
            served_stale: 10,
            served_degraded: 25,
            overloaded: 0,
            timed_out: 0,
            engine_failed: 15,
            breaker_open: 5,
            unavailable: 0,
            failed: 0,
        };
        assert_eq!(
            o.total(),
            100,
            "degraded counters are subsets, not terminals"
        );
        assert!((o.availability() - 0.80).abs() < 1e-12);
        assert!((o.full_fidelity() - 0.55).abs() < 1e-12);
        assert_eq!(LoadOutcome::default().availability(), 1.0, "vacuous run");
    }

    #[test]
    fn repeat_draws_share_a_seed() {
        let w = world();
        let workload = Workload::mixed(&w, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        let mut repeats = 0;
        for i in 0..256 {
            let r = workload.request_at(&mut rng, i, &[EngineKind::Gpt4o], 10);
            if let Some(&seed) = seen.get(&r.query) {
                assert_eq!(seed, r.seed, "same query text must reuse its seed");
                repeats += 1;
            } else {
                seen.insert(r.query.clone(), r.seed);
            }
        }
        assert!(repeats > 0, "a Zipfian draw of 256 must repeat something");
    }
}
