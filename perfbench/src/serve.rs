//! The serving workloads, `serve_cold` and `serve_hot`, and their load
//! generator (`loadgen`): a closed loop of client threads and an
//! open-loop submitter that sleeps until each arrival's due time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use shift_engines::{AnswerEngines, EngineAnswer};
use shift_serve::{AnswerService, Degradation, MetricsSnapshot, Request, ServeConfig};

use crate::inputs;
use crate::stats::{median, quantile, sorted};
use crate::Run;

/// Worker threads of the service and client threads of the cold closed
/// loop: the host has 2 vCPUs.
pub const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Client threads of the hot closed loop. Hot requests run on the client
/// thread (answer-cache hits never reach a worker), and two clients
/// contend on the cache-shard and metrics locks across vCPUs; on a shared
/// 2-vCPU host that contention's cost swung throughput by ±20% between
/// runs of the same code, against ±4% with one client.
const HOT_CLIENTS: usize = 1;

/// Requests per closed-loop pass of `serve_cold`.
const COLD_PASS: usize = 2000;
/// Arrivals per open-loop round of `serve_cold`.
const OPEN_ROUND: usize = 1000;
/// Requests per measured round of `serve_hot`.
const HOT_ROUND: usize = 50_000;
/// Every this-many-th served answer is kept and compared, byte for byte,
/// with a direct answer from an independent stack.
const KEEP_EVERY: usize = 251;

/// What one loop over a request slice produced.
#[derive(Default)]
struct Tally {
    /// Per-request latency in ms; refused or failed requests are
    /// infinitely slow.
    latencies_ms: Vec<f64>,
    failed: u64,
    kept: Vec<(Request, EngineAnswer)>,
}

impl Tally {
    fn record(&mut self, index: usize, request: &Request, result: Result<(f64, EngineAnswer), ()>) {
        match result {
            Ok((ms, answer)) => {
                self.latencies_ms.push(ms);
                if index.is_multiple_of(KEEP_EVERY) {
                    self.kept.push((request.clone(), answer));
                }
            }
            Err(()) => {
                self.latencies_ms.push(f64::INFINITY);
                self.failed += 1;
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.kept.extend(other.kept);
    }
}

/// Service counters summed over every service a workload started.
#[derive(Default, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    serp_hits: u64,
    serp_misses: u64,
    serp_evictions: u64,
    flights: u64,
    flight_waiters: u64,
    docs_scored: u64,
    candidates_pruned: u64,
    scratch_fallbacks: u64,
    batches: u64,
    batched_jobs: u64,
    overloaded: u64,
    timed_out: u64,
    failed: u64,
    degraded: u64,
}

impl Counters {
    fn of(s: &MetricsSnapshot) -> Counters {
        Counters {
            cache_hits: s.cache.hits,
            cache_misses: s.cache.misses,
            cache_evictions: s.cache.evictions,
            serp_hits: s.serp_cache.hits,
            serp_misses: s.serp_cache.misses,
            serp_evictions: s.serp_cache.evictions,
            flights: s.single_flight.leaders,
            flight_waiters: s.single_flight.waiters,
            docs_scored: s.kernel.docs_scored,
            candidates_pruned: s.kernel.candidates_pruned,
            scratch_fallbacks: s.kernel.scratch_fallbacks,
            batches: s.batch.batches,
            batched_jobs: s.batch.batched_jobs,
            overloaded: s.overloaded,
            timed_out: s.timed_out,
            failed: s.failed,
            degraded: s.served_degraded,
        }
    }

    /// Field-wise `self ± other`.
    fn combine(self, other: Counters, sign: i64) -> Counters {
        let f = |a: u64, b: u64| (a as i64 + sign * b as i64) as u64;
        Counters {
            cache_hits: f(self.cache_hits, other.cache_hits),
            cache_misses: f(self.cache_misses, other.cache_misses),
            cache_evictions: f(self.cache_evictions, other.cache_evictions),
            serp_hits: f(self.serp_hits, other.serp_hits),
            serp_misses: f(self.serp_misses, other.serp_misses),
            serp_evictions: f(self.serp_evictions, other.serp_evictions),
            flights: f(self.flights, other.flights),
            flight_waiters: f(self.flight_waiters, other.flight_waiters),
            docs_scored: f(self.docs_scored, other.docs_scored),
            candidates_pruned: f(self.candidates_pruned, other.candidates_pruned),
            scratch_fallbacks: f(self.scratch_fallbacks, other.scratch_fallbacks),
            batches: f(self.batches, other.batches),
            batched_jobs: f(self.batched_jobs, other.batched_jobs),
            overloaded: f(self.overloaded, other.overloaded),
            timed_out: f(self.timed_out, other.timed_out),
            failed: f(self.failed, other.failed),
            degraded: f(self.degraded, other.degraded),
        }
    }

    fn answer_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    fn serp_hit_rate(&self) -> f64 {
        self.serp_hits as f64 / (self.serp_hits + self.serp_misses).max(1) as f64
    }

    /// The counter-derived per-layer metrics.
    fn insert_into(&self, run: &mut Run) {
        let m = &mut run.metrics;
        let flights = self.flights.max(1) as f64;
        m.insert(
            "search.docs_scored_per_query".into(),
            self.docs_scored as f64 / flights,
        );
        m.insert(
            "search.candidates_pruned_per_query".into(),
            self.candidates_pruned as f64 / flights,
        );
        m.insert(
            "search.scratch_fallbacks".into(),
            (self.scratch_fallbacks + shift_search::scratch_fallbacks()) as f64,
        );
        m.insert("engines.serp_cache_hit_rate".into(), self.serp_hit_rate());
        m.insert(
            "engines.serp_cache_evictions".into(),
            self.serp_evictions as f64,
        );
        m.insert(
            "engines.single_flight_waiters".into(),
            self.flight_waiters as f64,
        );
        m.insert("serve.cache_hit_rate".into(), self.answer_hit_rate());
        m.insert("serve.cache_evictions".into(), self.cache_evictions as f64);
        m.insert("serve.overloaded".into(), self.overloaded as f64);
        m.insert("serve.timed_out".into(), self.timed_out as f64);
        m.insert("serve.failed".into(), self.failed as f64);
        if self.degraded != 0 {
            run.checks
                .push(format!("{} answers served degraded", self.degraded));
        }
        if self.scratch_fallbacks + shift_search::scratch_fallbacks() != 0 {
            run.checks
                .push("retrieval fell back to a fresh scratch".into());
        }
    }
}

fn answered(
    result: Result<shift_serve::ServedAnswer, shift_serve::ServeError>,
    extra: Duration,
) -> Result<(f64, EngineAnswer), ()> {
    match result {
        Ok(served) if served.degradation == Degradation::None => {
            Ok(((extra + served.latency).as_secs_f64() * 1e3, served.answer))
        }
        _ => Err(()),
    }
}

/// A fresh stack and a started service, with the time both took.
fn start_service(seed: u64) -> (AnswerService, f64) {
    let (engines, built) = inputs::stack(seed);
    let t = Instant::now();
    let service = AnswerService::start(engines, ServeConfig::with_workers(WORKERS));
    (service, (built + t.elapsed()).as_secs_f64())
}

/// Closed loop: `clients` threads take the next request as soon as their
/// previous one is answered. Latency is timed by the client, around the
/// whole call. Returns the wall time of the loop.
fn closed_loop(service: &AnswerService, requests: &[Request], clients: usize) -> (f64, Tally) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let t = Instant::now();
                        let result = service.answer(request.clone());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let result = answered(result, Duration::ZERO).map(|(_, a)| (ms, a));
                        tally.record(i, request, result);
                    }
                    tally
                })
            })
            .collect();
        for client in clients {
            tally.merge(client.join().expect("client thread panicked"));
        }
    });
    (start.elapsed().as_secs_f64(), tally)
}

/// Open loop: one submitter sleeps until each request's due time and
/// submits it whatever the service's state; a collector waits for the
/// answers in order. Latency runs from the due time, so a late
/// submitter counts against the request: (submit − due) plus the
/// service's own admission-to-answer latency. Returns the tally and
/// each submission's lateness in ms.
fn open_loop(service: &AnswerService, requests: &[Request], due: &[Duration]) -> (Tally, Vec<f64>) {
    let (tx, rx) = mpsc::channel();
    let mut lags_ms = Vec::with_capacity(requests.len());
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut tally = Tally::default();
            for (i, lag, pending) in rx {
                let pending: shift_serve::PendingAnswer = pending;
                tally.record(i, &requests[i], answered(pending.wait(), lag));
            }
            tally
        });
        let start = Instant::now();
        for (i, (request, offset)) in requests.iter().zip(due).enumerate() {
            let due_at = start + *offset;
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let lag = Instant::now().saturating_duration_since(due_at);
            lags_ms.push(lag.as_secs_f64() * 1e3);
            match service.submit(request.clone()) {
                Ok(pending) => tx.send((i, lag, pending)).expect("collector alive"),
                Err(_) => tally.record(i, request, Err(())),
            }
        }
        drop(tx);
        tally.merge(collector.join().expect("collector thread panicked"));
    });
    (tally, lags_ms)
}

/// Compares every kept served answer with a direct
/// `AnswerEngines::answer` on an independent stack.
fn check_answers(seed: u64, kept: &[(Request, EngineAnswer)], run: &mut Run) {
    let independent = AnswerEngines::build(inputs::world(seed));
    let differing = kept
        .iter()
        .filter(|(r, served)| {
            let direct = independent.answer(r.engine, &r.query, r.top_k, r.seed);
            format!("{served:?}") != format!("{direct:?}")
        })
        .count();
    if kept.is_empty() || differing != 0 {
        run.checks.push(format!(
            "{differing} of {} sampled served answers differ from a direct answer",
            kept.len()
        ));
    }
}

/// Per-round latency percentiles; each is reported as its median over
/// rounds, so one disturbed round cannot move it.
#[derive(Default)]
struct RoundPercentiles {
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
}

impl RoundPercentiles {
    fn push(&mut self, latencies_ms: Vec<f64>) {
        let sorted = sorted(latencies_ms);
        self.p50.push(quantile(&sorted, 0.5));
        self.p90.push(quantile(&sorted, 0.9));
        self.p99.push(quantile(&sorted, 0.99));
    }

    /// Inserts the medians under the given p50, p90 (and p99) names.
    fn insert_into(&self, run: &mut Run, names: &[&str]) {
        for (name, samples) in names.iter().zip([&self.p50, &self.p90, &self.p99]) {
            run.metrics.insert((*name).into(), median(samples));
        }
    }
}

/// `cycle`-wise slice of `len` requests starting at `offset`.
fn slice_at(requests: &[Request], offset: usize, len: usize) -> Vec<Request> {
    requests
        .iter()
        .cycle()
        .skip(offset)
        .take(len)
        .cloned()
        .collect()
}

/// `serve_cold`: every request misses both caches. Each pass and round
/// starts from a fresh stack and service.
/// Phase (a): closed-loop passes of `COLD_PASS` requests, for capacity
/// and the end-to-end latency percentiles.
/// Phase (b), with `with_open_loop` only: open-loop rounds of `OPEN_ROUND`
/// Poisson arrivals at `rate` per second. Its percentiles are reported
/// per layer (`loadgen.open_*`, `serve.p99_ms`): they include the host's
/// wake-up latency for idle vCPUs, which on a shared 2-vCPU host moved
/// p90 from 2 ms to 26 ms between runs of the same code.
/// Without phase (b) the passes fill the whole run: the more of the run
/// they sample, the less one slow stretch of the host moves their median.
pub fn cold(seed: u64, seconds: f64, rate: f64, with_open_loop: bool) -> Run {
    let mut run = Run::default();
    let (requests, distinct) = inputs::cold_requests(&inputs::world(seed), seed);
    let mut counters = Counters::default();
    let mut open = Counters::default();
    let mut setups = Vec::new();
    let (mut pass_s, mut pass_rps) = (Vec::new(), Vec::new());
    let (mut closed, mut open_loop_ms) = (RoundPercentiles::default(), RoundPercentiles::default());
    let mut lags_ms = Vec::new();
    let mut kept = Vec::new();

    let closed_share = if with_open_loop { 0.4 } else { 1.0 };
    let start = Instant::now();
    while pass_s.len() < 3 || start.elapsed().as_secs_f64() < closed_share * seconds {
        let slice = slice_at(&requests, pass_s.len() * COLD_PASS, COLD_PASS);
        let (service, setup) = start_service(seed);
        setups.push(setup);
        let (elapsed, tally) = closed_loop(&service, &slice, CLIENTS);
        run.attempted += slice.len() as u64;
        run.failed += tally.failed;
        pass_s.push(elapsed);
        pass_rps.push((slice.len() as u64 - tally.failed) as f64 / elapsed);
        closed.push(tally.latencies_ms);
        kept.extend(tally.kept);
        counters = counters.combine(Counters::of(&service.shutdown()), 1);
        if pass_s.len() == 1 {
            run.metrics
                .insert("peak_rss_mb".into(), crate::peak_rss_mib());
        }
    }

    let round = OPEN_ROUND.min(requests.len());
    let due = inputs::poisson_schedule(round, rate, seed);
    let start = Instant::now();
    while with_open_loop
        && (open_loop_ms.p50.len() < 3 || start.elapsed().as_secs_f64() < 0.6 * seconds)
    {
        let slice = slice_at(&requests, open_loop_ms.p50.len() * round, round);
        let (service, setup) = start_service(seed);
        setups.push(setup);
        let (tally, lags) = open_loop(&service, &slice, &due);
        run.attempted += slice.len() as u64;
        run.failed += tally.failed;
        open_loop_ms.push(tally.latencies_ms);
        lags_ms.extend(lags);
        kept.extend(tally.kept);
        open = open.combine(Counters::of(&service.shutdown()), 1);
    }
    counters = counters.combine(open, 1);
    while setups.len() < crate::MIN_SETUPS {
        setups.push(start_service(seed).1);
    }

    closed.insert_into(&mut run, &["p50_ms", "p90_ms"]);
    open_loop_ms.insert_into(
        &mut run,
        &["loadgen.open_p50_ms", "loadgen.open_p90_ms", "serve.p99_ms"],
    );
    let m = &mut run.metrics;
    m.insert("setup_s".into(), median(&setups));
    m.insert("batch_s".into(), median(&pass_s));
    m.insert("throughput_rps".into(), median(&pass_rps));
    m.insert(
        "loadgen.lag_ms_p99".into(),
        quantile(&sorted(lags_ms), 0.99),
    );
    m.insert(
        "serve.batch_mean".into(),
        open.batched_jobs as f64 / open.batches.max(1) as f64,
    );
    m.insert("workload.distinct_queries".into(), distinct as f64);
    counters.insert_into(&mut run);

    let (answer_miss, serp_miss) = (
        1.0 - counters.answer_hit_rate(),
        1.0 - counters.serp_hit_rate(),
    );
    eprintln!(
        "serve_cold: {distinct} distinct queries, {} requests; answer-cache miss share {answer_miss:.4}, SERP-cache miss share {serp_miss:.4}",
        requests.len()
    );
    if answer_miss < 0.99 || serp_miss < 0.99 {
        run.checks.push(format!(
            "serve_cold must miss both caches: answer miss share {answer_miss}, SERP miss share {serp_miss}"
        ));
    }
    check_answers(seed, &kept, &mut run);
    run.replay = requests[..crate::replay::COLD_REPLAY.min(requests.len())].to_vec();
    run
}

/// `serve_hot`: the Zipfian production mix, driven closed loop. Each
/// round starts a fresh stack and service and warms it by answering each
/// distinct request once (set-up), then measures `HOT_ROUND` requests.
pub fn hot(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let (sequence, warm, pool) = inputs::hot_requests(&inputs::world(seed), seed, HOT_ROUND);
    let mut measured = Counters::default();
    let mut setups = Vec::new();
    let (mut round_s, mut round_rps) = (Vec::new(), Vec::new());
    let mut percentiles = RoundPercentiles::default();
    let mut kept = Vec::new();

    let start = Instant::now();
    while round_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (service, _) = start_service(seed);
        let (_, warmup) = closed_loop(&service, &warm, CLIENTS);
        setups.push(t.elapsed().as_secs_f64());
        run.failed += warmup.failed;
        let before = Counters::of(&service.snapshot());
        let (elapsed, tally) = closed_loop(&service, &sequence, HOT_CLIENTS);
        run.attempted += sequence.len() as u64;
        run.failed += tally.failed;
        round_s.push(elapsed);
        round_rps.push((sequence.len() as u64 - tally.failed) as f64 / elapsed);
        percentiles.push(tally.latencies_ms);
        kept.extend(tally.kept);
        measured = measured.combine(Counters::of(&service.shutdown()).combine(before, -1), 1);
        if round_s.len() == 1 {
            run.metrics
                .insert("peak_rss_mb".into(), crate::peak_rss_mib());
        }
    }

    percentiles.insert_into(&mut run, &["p50_ms", "p90_ms", "serve.p99_ms"]);
    let m = &mut run.metrics;
    m.insert("setup_s".into(), median(&setups));
    m.insert("batch_s".into(), median(&round_s));
    m.insert("throughput_rps".into(), median(&round_rps));
    m.insert(
        "serve.batch_mean".into(),
        measured.batched_jobs as f64 / measured.batches.max(1) as f64,
    );
    m.insert("workload.distinct_queries".into(), pool as f64);
    measured.insert_into(&mut run);

    let hit = measured.answer_hit_rate();
    eprintln!(
        "serve_hot: {pool} distinct queries, {} distinct requests; answer-cache hit share after warm-up {hit:.4}",
        warm.len()
    );
    if hit < 0.99 {
        run.checks.push(format!(
            "serve_hot must hit the answer cache after warm-up: {hit}"
        ));
    }
    check_answers(seed, &kept, &mut run);
    run.replay = sequence[..crate::replay::HOT_REPLAY].to_vec();
    run.warm = warm;
    run
}
