//! The answer service: a fixed worker pool behind a bounded admission
//! queue, with a cache fast path, per-request deadlines, resilience
//! (retries, circuit breakers, degradation), and graceful drain shutdown.
//!
//! Life of a request:
//!
//! 1. [`AnswerService::submit`] builds the [`crate::CacheKey`]; a fresh
//!    cache hit resolves immediately without touching the queue: the
//!    returned [`PendingAnswer`] already holds the reply, whose answer
//!    shares the cached one (no copy, no reply channel).
//! 2. On a miss the request is `try_send`-ed onto the bounded job
//!    channel. A full channel rejects with [`ServeError::Overloaded`] —
//!    the service sheds load instead of queueing unboundedly.
//! 3. A worker pops the job. If the deadline already passed it replies
//!    [`ServeError::TimedOut`] without computing; otherwise it runs the
//!    resilience ladder:
//!
//!    * consult the engine's [`CircuitBreaker`](crate::resilience::CircuitBreaker)
//!      — an open breaker skips the engine entirely;
//!    * attempt the engine through [`FallibleEngines`], retrying failed
//!      attempts with seeded jittered backoff, but only while the backoff
//!      fits in the remaining deadline budget (zero budget ⇒ zero
//!      retries) and the failure looks retryable;
//!    * on exhaustion, degrade: serve a stale cache entry (enqueueing a
//!      background refresh — stale-while-revalidate), else the Google
//!      organic SERP as a citation-only answer, tagging the served answer
//!      with its [`Degradation`] level.
//! 4. For a miss, the caller blocks in [`PendingAnswer::wait`] with a
//!    deadline-capped `recv_timeout`, so a stuck request costs the
//!    caller at most the deadline.
//!
//! A request is counted exactly once no matter how many attempts it took:
//! the `settled` flag arbitrates metrics ownership between worker and
//! waiter, and per-attempt events land in separate `retries` /
//! `engine_failures` counters. A panic while serving a job or a refresh
//! is caught: the worker counts it in `worker_panics`, fails the request
//! with [`ServeError::WorkerLost`] (counted once, through the same flag),
//! starts over with a fresh retrieval scratch and keeps serving, so the
//! pool never shrinks.
//!
//! [`AnswerService::shutdown`] closes admission, lets the workers drain
//! every queued job (and pending background refreshes), joins them, and
//! returns the final metrics snapshot.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use shift_engines::{
    AnswerEngines, EngineAnswer, EngineError, EngineKind, FallibleEngines, FaultInjector,
    QueryScratch,
};

use crate::cache::{AnswerCache, CacheKey};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::ServiceMetrics;
use crate::report::MetricsSnapshot;
use crate::resilience::{retry_backoff, Admission, BreakerSet, Degradation, ResilienceConfig};

/// One answer request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Engine to answer with.
    pub engine: EngineKind,
    /// Query text.
    pub query: String,
    /// Answer depth (top-k results / citation budget).
    pub top_k: usize,
    /// Decode seed (determinism handle; ignored by Google).
    pub seed: u64,
}

impl Request {
    /// Build a request.
    pub fn new(engine: EngineKind, query: &str, top_k: usize, seed: u64) -> Request {
        Request {
            engine,
            query: query.to_string(),
            top_k,
            seed,
        }
    }
}

/// A successfully served answer.
#[derive(Debug, Clone)]
pub struct ServedAnswer {
    /// The engine's answer.
    pub answer: EngineAnswer,
    /// End-to-end latency from admission to completion (queueing
    /// included).
    pub latency: Duration,
    /// Whether the answer came from the fresh-cache fast path. A stale
    /// serve is tagged through `degradation`, not here.
    pub from_cache: bool,
    /// How far down the degradation ladder this answer came from.
    pub degradation: Degradation,
}

type Reply = Result<ServedAnswer, ServeError>;

struct Job {
    request: Request,
    key: CacheKey,
    admitted: Instant,
    deadline: Instant,
    reply: Sender<Reply>,
    // One-shot outcome flag shared with the waiter: whichever side first
    // flips it owns the metrics record for this request, so a reply that
    // lands just as the waiter times out is never counted twice.
    settled: Arc<AtomicBool>,
}

/// A stale-while-revalidate background recompute, enqueued when a stale
/// entry is served, drained by workers between (and after) foreground
/// jobs.
struct RefreshJob {
    request: Request,
    key: CacheKey,
}

/// Depth of the background-refresh queue; overflow drops the refresh
/// (the stale entry simply stays stale).
const REFRESH_QUEUE_DEPTH: usize = 256;

/// Attempt salt for background refreshes: a refresh of a request that
/// just failed must not replay the identical fault draws of attempts
/// 0..=max_retries, or it would deterministically fail the same way.
/// Shared with the replicated tier so a replica's inline refreshes draw
/// the same faults as the threaded service's background ones.
pub(crate) const REFRESH_ATTEMPT: u32 = 0x5246_5253;

/// A submitted request whose answer may still be in flight.
///
/// Dropping a `PendingAnswer` abandons the request; the worker's reply is
/// discarded (the cache still keeps the computed answer).
pub struct PendingAnswer(Pending);

enum Pending {
    /// A fresh cache hit, served and counted at submit.
    Ready(ServedAnswer),
    /// A miss queued for a worker, which replies on `rx`.
    InFlight {
        rx: Receiver<Reply>,
        deadline: Instant,
        metrics: Arc<ServiceMetrics>,
        settled: Arc<AtomicBool>,
    },
}

impl PendingAnswer {
    /// Block until the answer arrives or the deadline passes. A cache
    /// hit returns at once.
    pub fn wait(self) -> Result<ServedAnswer, ServeError> {
        match self.0 {
            Pending::Ready(served) => Ok(served),
            Pending::InFlight {
                rx,
                deadline,
                metrics,
                settled,
            } => match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => {
                    if !settled.swap(true, Ordering::AcqRel) {
                        metrics.record_timed_out();
                    }
                    Err(ServeError::TimedOut)
                }
                Err(RecvTimeoutError::Disconnected) => Err(ServeError::WorkerLost),
            },
        }
    }
}

/// Everything a worker thread needs, shared across the pool.
struct WorkerCtx {
    fallible: Arc<dyn FallibleEngines>,
    cache: Arc<AnswerCache>,
    metrics: Arc<ServiceMetrics>,
    breakers: Arc<BreakerSet>,
    resilience: ResilienceConfig,
    refresh_tx: Sender<RefreshJob>,
    refresh_rx: Receiver<RefreshJob>,
    batch_max: usize,
}

/// A running answer service. Cheap to share by reference across client
/// threads; [`AnswerService::shutdown`] consumes it.
pub struct AnswerService {
    engines: Arc<AnswerEngines>,
    cache: Arc<AnswerCache>,
    metrics: Arc<ServiceMetrics>,
    breakers: Arc<BreakerSet>,
    tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    deadline: Duration,
}

impl AnswerService {
    /// Spawn the worker pool over an infallible engine stack (production
    /// configuration: the resilience machinery is armed but no faults are
    /// ever injected).
    pub fn start(engines: Arc<AnswerEngines>, config: ServeConfig) -> AnswerService {
        let fallible: Arc<dyn FallibleEngines> = engines.clone();
        AnswerService::start_fallible(engines, fallible, config)
    }

    /// Spawn the worker pool over a [`FaultInjector`] (chaos
    /// configuration): every attempt consults the injector's fault plan.
    pub fn start_chaos(injector: FaultInjector, config: ServeConfig) -> AnswerService {
        let engines = injector.stack_handle();
        AnswerService::start_fallible(engines, Arc::new(injector), config)
    }

    /// Spawn the worker pool over an arbitrary [`FallibleEngines`] front.
    /// `engines` must be the stack `fallible` delegates to (used for
    /// workload construction and the SERP degradation fallback).
    pub fn start_fallible(
        engines: Arc<AnswerEngines>,
        fallible: Arc<dyn FallibleEngines>,
        config: ServeConfig,
    ) -> AnswerService {
        let cache = Arc::new(AnswerCache::new(&config.cache));
        let metrics = Arc::new(ServiceMetrics::new());
        let breakers = Arc::new(BreakerSet::new(&config.resilience));
        let (tx, rx) = channel::bounded::<Job>(config.queue_depth.max(1));
        let (refresh_tx, refresh_rx) = channel::bounded::<RefreshJob>(REFRESH_QUEUE_DEPTH);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let ctx = WorkerCtx {
                    fallible: Arc::clone(&fallible),
                    cache: Arc::clone(&cache),
                    metrics: Arc::clone(&metrics),
                    breakers: Arc::clone(&breakers),
                    resilience: config.resilience.clone(),
                    refresh_tx: refresh_tx.clone(),
                    refresh_rx: refresh_rx.clone(),
                    batch_max: config.batch_max.max(1),
                };
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(&ctx, &rx))
            })
            .collect();
        AnswerService {
            engines,
            cache,
            metrics,
            breakers,
            tx,
            workers,
            deadline: config.deadline,
        }
    }

    /// Submit a request without blocking on the answer.
    ///
    /// Returns [`ServeError::Overloaded`] when the admission queue is
    /// full; a cache hit returns a [`PendingAnswer`] that already holds
    /// its reply.
    pub fn submit(&self, request: Request) -> Result<PendingAnswer, ServeError> {
        let admitted = Instant::now();
        let key = CacheKey::new(request.engine, &request.query, request.top_k, request.seed);
        if let Some(answer) = self.cache.get(&key) {
            let latency = admitted.elapsed();
            self.metrics
                .record_served(request.engine, latency, true, Degradation::None);
            return Ok(PendingAnswer(Pending::Ready(ServedAnswer {
                answer,
                latency,
                from_cache: true,
                degradation: Degradation::None,
            })));
        }
        let deadline = admitted + self.deadline;
        let (reply_tx, reply_rx) = channel::bounded::<Reply>(1);
        let settled = Arc::new(AtomicBool::new(false));
        let job = Job {
            request,
            key,
            admitted,
            deadline,
            reply: reply_tx,
            settled: Arc::clone(&settled),
        };
        match self.tx.try_send(job) {
            Ok(()) => Ok(PendingAnswer(Pending::InFlight {
                rx: reply_rx,
                deadline,
                metrics: Arc::clone(&self.metrics),
                settled,
            })),
            Err(TrySendError::Full(_)) => {
                self.metrics.record_overloaded();
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submit and block until the answer (or a typed failure) arrives.
    pub fn answer(&self, request: Request) -> Result<ServedAnswer, ServeError> {
        self.submit(request)?.wait()
    }

    /// Live metrics (percentiles computed on the spot).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.cache.stats(),
            self.engines.serp_cache_stats(),
            self.engines.single_flight_stats(),
        )
    }

    /// The shared answer cache (for tests and warm-up).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// The engine stack this service fronts.
    pub fn engines(&self) -> &Arc<AnswerEngines> {
        &self.engines
    }

    /// The per-engine circuit breakers (observability and tests).
    pub fn breakers(&self) -> &BreakerSet {
        &self.breakers
    }

    /// Stop admitting, drain every queued job, join the workers, and
    /// return the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        let AnswerService {
            engines,
            cache,
            metrics,
            tx,
            workers,
            ..
        } = self;
        // Dropping the only Sender disconnects the channel; workers keep
        // receiving until the queue is empty, then exit.
        drop(tx);
        for handle in workers {
            let _ = handle.join();
        }
        metrics.snapshot(
            cache.stats(),
            engines.serp_cache_stats(),
            engines.single_flight_stats(),
        )
    }
}

fn worker_loop(ctx: &WorkerCtx, rx: &Receiver<Job>) {
    // One retrieval scratch per worker, reused for the worker's whole
    // lifetime: steady-state uncached requests run the search kernel
    // without allocating working memory.
    let mut scratch = QueryScratch::new();
    let mut batch: Vec<Job> = Vec::with_capacity(ctx.batch_max);
    while let Ok(job) = rx.recv() {
        // Micro-batch drain: after the blocking pop, opportunistically
        // take whatever is *already* queued, up to `batch_max`. The
        // drain never waits for more jobs (no deadline risk — a job is
        // never served later than it would have been unbatched), it
        // just keeps this worker's index references, scratch and the
        // SERP cache's freshly inserted entries hot across the run of
        // jobs that queued up behind one another under load.
        batch.push(job);
        while batch.len() < ctx.batch_max {
            match rx.try_recv() {
                Ok(next) => batch.push(next),
                Err(_) => break,
            }
        }
        ctx.metrics.record_batch(batch.len() as u64);
        // Serve strictly in admission order: latency fairness, and the
        // order replies settle is exactly the unbatched order.
        for job in batch.drain(..) {
            let settled = Arc::clone(&job.settled);
            let reply = job.reply.clone();
            if !survive(ctx, &mut scratch, |scratch| serve_job(ctx, scratch, job)) {
                // Exactly one record per request: the waiter may have
                // claimed a timeout already.
                if !settled.swap(true, Ordering::AcqRel) {
                    ctx.metrics.record_failed();
                }
                let _ = reply.send(Err(ServeError::WorkerLost));
            }
            ctx.metrics.record_kernel(scratch.take_stats());
        }
        // Foreground jobs take priority; between batches, work off at
        // most one pending stale-while-revalidate refresh.
        if let Ok(refresh) = ctx.refresh_rx.try_recv() {
            survive(ctx, &mut scratch, |scratch| {
                run_refresh(ctx, scratch, &refresh)
            });
            ctx.metrics.record_kernel(scratch.take_stats());
        }
    }
    // Admission is closed and the queue is drained: finish the refresh
    // backlog so stale entries enqueued late still get revalidated.
    while let Ok(refresh) = ctx.refresh_rx.try_recv() {
        survive(ctx, &mut scratch, |scratch| {
            run_refresh(ctx, scratch, &refresh)
        });
        ctx.metrics.record_kernel(scratch.take_stats());
    }
}

/// Runs one unit of a worker's work, catching a panic so the worker
/// outlives it. Returns false after a panic, which is counted; the
/// scratch it may have left half-updated is replaced by a fresh one.
fn survive(
    ctx: &WorkerCtx,
    scratch: &mut QueryScratch,
    work: impl FnOnce(&mut QueryScratch),
) -> bool {
    let ok = std::panic::catch_unwind(AssertUnwindSafe(|| work(scratch))).is_ok();
    if !ok {
        ctx.metrics.record_worker_panic();
        *scratch = QueryScratch::new();
    }
    ok
}

fn serve_job(ctx: &WorkerCtx, scratch: &mut QueryScratch, job: Job) {
    if Instant::now() >= job.deadline {
        // Too late to be useful; don't burn engine time.
        if !job.settled.swap(true, Ordering::AcqRel) {
            ctx.metrics.record_timed_out();
        }
        let _ = job.reply.send(Err(ServeError::TimedOut));
        return;
    }
    match resolve(ctx, scratch, &job) {
        Ok((answer, degradation)) => {
            if degradation == Degradation::None {
                // Cache only full-fidelity answers (even if the waiter
                // gave up — the work is done either way). A degraded
                // answer must not masquerade as the engine's. The cache
                // and the reply share one answer.
                ctx.cache.insert(job.key, answer.clone());
            }
            let latency = job.admitted.elapsed();
            // Exactly one served record per request, however many
            // attempts it took; the waiter may have claimed a timeout.
            if !job.settled.swap(true, Ordering::AcqRel) {
                ctx.metrics
                    .record_served(job.request.engine, latency, false, degradation);
            }
            let _ = job.reply.send(Ok(ServedAnswer {
                answer,
                latency,
                from_cache: false,
                degradation,
            }));
        }
        Err(err) => {
            if !job.settled.swap(true, Ordering::AcqRel) {
                ctx.metrics.record_failed();
            }
            let _ = job.reply.send(Err(err));
        }
    }
}

/// A deadline budget the retry loop draws backoffs from.
///
/// The threaded service spends wall-clock time ([`WallBudget`]); the
/// replicated tier's simulation spends virtual ticks — the ladder itself
/// cannot tell which, so both paths share one implementation.
pub(crate) trait RetryBudget {
    /// Take `backoff` out of the remaining budget, waiting it out in the
    /// budget's own notion of time. Returns `false` (without waiting)
    /// when the backoff does not fit: a backoff equal to or exceeding the
    /// remaining budget is never taken, which preserves the zero-budget ⇒
    /// zero-retries guarantee (a backoff is never negative).
    fn try_wait(&mut self, backoff: Duration) -> bool;
}

/// The threaded service's budget: real remaining time until `deadline`,
/// waited out with `thread::sleep`.
pub(crate) struct WallBudget {
    pub deadline: Instant,
}

impl RetryBudget for WallBudget {
    fn try_wait(&mut self, backoff: Duration) -> bool {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if backoff >= remaining {
            return false;
        }
        std::thread::sleep(backoff);
        true
    }
}

/// Everything the resilience ladder reads, borrowed from whichever
/// serving stack is running it (threaded worker pool or simulated
/// replica).
pub(crate) struct LadderEnv<'a> {
    pub fallible: &'a dyn FallibleEngines,
    pub cache: &'a AnswerCache,
    pub metrics: &'a ServiceMetrics,
    pub breakers: &'a BreakerSet,
    pub resilience: &'a ResilienceConfig,
}

/// The resilience ladder for one admitted, in-deadline request: breaker →
/// budgeted retries → stale cache → organic SERP.
///
/// `on_stale` fires when a stale entry is about to be served, so the
/// caller can schedule its flavour of stale-while-revalidate refresh (the
/// threaded service enqueues a background job; a replica refreshes
/// inline after the serve).
pub(crate) fn resolve_ladder(
    env: &LadderEnv<'_>,
    scratch: &mut QueryScratch,
    req: &Request,
    key: &CacheKey,
    budget: &mut dyn RetryBudget,
    on_stale: &mut dyn FnMut(&Request, &CacheKey),
) -> Result<(EngineAnswer, Degradation), ServeError> {
    if !env.resilience.enabled {
        // Fail-hard path: one attempt, no breaker, no degradation.
        return match env
            .fallible
            .try_answer_with(scratch, req.engine, &req.query, req.top_k, req.seed, 0)
        {
            Ok(answer) => Ok((answer, Degradation::None)),
            Err(_) => {
                env.metrics.record_engine_failure();
                Err(ServeError::EngineFailed { engine: req.engine })
            }
        };
    }

    let breaker = env.breakers.of(req.engine);
    let admission = breaker.admit();
    let mut breaker_rejected = false;
    if admission == Admission::Reject {
        env.metrics.record_breaker_rejection();
        breaker_rejected = true;
    } else {
        let probing = admission == Admission::Probe;
        let mut attempt: u32 = 0;
        loop {
            match env.fallible.try_answer_with(
                scratch, req.engine, &req.query, req.top_k, req.seed, attempt,
            ) {
                Ok(answer) => {
                    breaker.record_success();
                    return Ok((answer, Degradation::None));
                }
                Err(err) => {
                    env.metrics.record_engine_failure();
                    breaker.record_failure();
                    // Stop retrying when: this was the one half-open
                    // probe; the engine is in an outage window (every
                    // attempt of this request fails identically); the
                    // failure just tripped the breaker; or the retry
                    // budget is spent.
                    if probing
                        || err == EngineError::Unavailable
                        || !breaker.is_closed()
                        || attempt >= env.resilience.max_retries
                    {
                        break;
                    }
                    let backoff = retry_backoff(env.resilience, req.seed, attempt + 1);
                    // Never borrow against time we don't have: if the
                    // backoff would not fit in the remaining deadline
                    // budget, degrading now beats timing out later.
                    if !budget.try_wait(backoff) {
                        break;
                    }
                    env.metrics.record_retry();
                    attempt += 1;
                }
            }
        }
    }

    // Degradation ladder, rung 1: serve the stale cache entry and let the
    // caller schedule a revalidation.
    if env.resilience.degrade_to_stale {
        if let Some(answer) = env.cache.get_stale(key) {
            on_stale(req, key);
            return Ok((answer, Degradation::Stale));
        }
    }
    // Rung 2: the organic Google SERP as a citation-only answer, computed
    // on the infallible stack (the production search index is local — it
    // does not share the remote engines' failure modes).
    if env.resilience.degrade_to_serp {
        let answer = env.fallible.stack().answer_with(
            scratch,
            EngineKind::Google,
            &req.query,
            req.top_k,
            req.seed,
        );
        return Ok((answer, Degradation::SerpFallback));
    }
    Err(if breaker_rejected {
        ServeError::BreakerOpen { engine: req.engine }
    } else if env.resilience.degrade_to_stale {
        ServeError::DegradedUnavailable { engine: req.engine }
    } else {
        ServeError::EngineFailed { engine: req.engine }
    })
}

/// Run the shared ladder with the threaded worker's wall-clock budget and
/// background-refresh channel.
fn resolve(
    ctx: &WorkerCtx,
    scratch: &mut QueryScratch,
    job: &Job,
) -> Result<(EngineAnswer, Degradation), ServeError> {
    let env = LadderEnv {
        fallible: ctx.fallible.as_ref(),
        cache: &ctx.cache,
        metrics: &ctx.metrics,
        breakers: &ctx.breakers,
        resilience: &ctx.resilience,
    };
    let mut budget = WallBudget {
        deadline: job.deadline,
    };
    resolve_ladder(
        &env,
        scratch,
        &job.request,
        &job.key,
        &mut budget,
        &mut |request, key| {
            let _ = ctx.refresh_tx.try_send(RefreshJob {
                request: request.clone(),
                key: key.clone(),
            });
        },
    )
}

/// Recompute a stale entry in the background (one attempt, salted so it
/// does not replay the foreground attempts' fault draws).
fn run_refresh(ctx: &WorkerCtx, scratch: &mut QueryScratch, refresh: &RefreshJob) {
    let req = &refresh.request;
    if let Ok(answer) = ctx.fallible.try_answer_with(
        scratch,
        req.engine,
        &req.query,
        req.top_k,
        req.seed,
        REFRESH_ATTEMPT,
    ) {
        ctx.cache.insert(refresh.key.clone(), answer);
        ctx.metrics.record_refresh();
    }
    // A failed refresh just leaves the stale entry in place; the next
    // stale serve will queue another one.
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{World, WorldConfig};

    fn engines() -> Arc<AnswerEngines> {
        let world = Arc::new(World::generate(&WorldConfig::small(), 97));
        Arc::new(AnswerEngines::build(world))
    }

    #[test]
    fn serves_and_caches() {
        let service = AnswerService::start(engines(), ServeConfig::with_workers(2));
        let req = Request::new(EngineKind::Gpt4o, "best phone under 500", 10, 11);
        let first = service.answer(req.clone()).expect("first answer");
        assert!(!first.from_cache);
        assert_eq!(first.degradation, Degradation::None);
        let second = service.answer(req).expect("second answer");
        assert!(second.from_cache, "repeat must hit the cache");
        assert_eq!(first.answer.text, second.answer.text);
        assert_eq!(first.answer.citations.len(), second.answer.citations.len());
        let snap = service.shutdown();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.cache_hits_served, 1);
        assert_eq!(snap.served_degraded, 0);
    }

    #[test]
    fn zero_deadline_times_out() {
        let mut config = ServeConfig::with_workers(1);
        config.deadline = Duration::ZERO;
        let service = AnswerService::start(engines(), config);
        let err = service
            .answer(Request::new(EngineKind::Claude, "instant deadline", 10, 1))
            .expect_err("must time out");
        assert_eq!(err, ServeError::TimedOut);
        let snap = service.shutdown();
        assert_eq!(snap.timed_out, 1, "timeout must be counted exactly once");
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn flood_rejects_with_overloaded() {
        let mut config = ServeConfig::with_workers(1).without_cache();
        config.queue_depth = 2;
        let service = AnswerService::start(engines(), config);
        let mut pending = Vec::new();
        let mut overloaded = 0;
        for i in 0..128 {
            let req = Request::new(EngineKind::Gemini, &format!("flood query {i}"), 10, i);
            match service.submit(req) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded) => overloaded += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(
            overloaded > 0,
            "a 2-deep queue behind 1 worker must shed some of 128 instant submits"
        );
        for p in pending {
            p.wait().expect("admitted requests complete");
        }
        let snap = service.shutdown();
        assert_eq!(snap.overloaded, overloaded);
        assert_eq!(snap.completed + snap.overloaded, 128);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = AnswerService::start(engines(), ServeConfig::with_workers(2));
        let mut pending = Vec::new();
        for i in 0..8 {
            let req = Request::new(EngineKind::Perplexity, &format!("drain {i}"), 10, i);
            pending.push(service.submit(req).expect("queue fits 8"));
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 8, "shutdown must drain, not drop");
        for p in pending {
            p.wait().expect("drained answers are delivered");
        }
    }

    #[test]
    fn backlog_forms_micro_batches_without_changing_answers() {
        // One worker, no cache: while it computes the first answer, the
        // remaining submissions pile up in the queue, so later drains
        // must carry more than one job.
        let mut config = ServeConfig::with_workers(1).without_cache();
        config.queue_depth = 32;
        let stack = engines();
        let service = AnswerService::start(stack.clone(), config);
        let reqs: Vec<Request> = (0..16)
            .map(|i| Request::new(EngineKind::Gpt4o, &format!("batched query {i}"), 10, i))
            .collect();
        let pending: Vec<_> = reqs
            .iter()
            .map(|r| service.submit(r.clone()).expect("queue fits 16"))
            .collect();
        let served: Vec<_> = pending
            .into_iter()
            .map(|p| p.wait().expect("batched requests complete"))
            .collect();
        // Batched serving is a scheduling change only: every answer is
        // identical to a direct run on the same stack.
        for (req, s) in reqs.iter().zip(&served) {
            let direct = stack.answer(req.engine, &req.query, req.top_k, req.seed);
            assert_eq!(s.answer.text, direct.text);
            assert_eq!(s.answer.domains(), direct.domains());
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.batch.batched_jobs, 16, "every job rode a drain");
        assert!(
            snap.batch.batches < snap.batch.batched_jobs,
            "at least one drain must carry multiple jobs ({} drains / {} jobs)",
            snap.batch.batches,
            snap.batch.batched_jobs,
        );
        assert!(snap.batch.max_batch >= 2);
        assert_eq!(snap.kernel.scratch_fallbacks, 0);
    }

    #[test]
    fn infallible_stack_never_trips_resilience() {
        // Production configuration: resilience armed, zero faults — no
        // retries, no degradation, no breaker activity.
        let service = AnswerService::start(engines(), ServeConfig::with_workers(2));
        for i in 0..16u64 {
            let req = Request::new(
                EngineKind::ALL[(i % 5) as usize],
                &format!("steady query {i}"),
                10,
                i,
            );
            let served = service.answer(req).expect("infallible stack");
            assert_eq!(served.degradation, Degradation::None);
        }
        let snap = service.shutdown();
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.engine_failures, 0);
        assert_eq!(snap.breaker_rejections, 0);
        assert_eq!(snap.served_degraded, 0);
        assert_eq!(snap.failed, 0);
    }

    /// The stack, except that one marker query panics.
    struct PanicsOn {
        stack: Arc<AnswerEngines>,
        marker: &'static str,
    }

    impl FallibleEngines for PanicsOn {
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
            if query == self.marker {
                panic!("injected panic on the marker query");
            }
            self.stack
                .try_answer_with(scratch, kind, query, k, seed, attempt)
        }
    }

    #[test]
    fn a_worker_panic_fails_its_request_once_and_the_worker_lives_on() {
        let stack = engines();
        let fallible = Arc::new(PanicsOn {
            stack: Arc::clone(&stack),
            marker: "panic marker",
        });
        let service = AnswerService::start_fallible(stack, fallible, ServeConfig::with_workers(1));
        let err = service
            .answer(Request::new(EngineKind::Gpt4o, "panic marker", 10, 1))
            .expect_err("the marker query panics");
        assert_eq!(err, ServeError::WorkerLost);
        // The only worker survived its panic and serves the next request.
        let next = service
            .answer(Request::new(
                EngineKind::Gpt4o,
                "best phone under 500",
                10,
                1,
            ))
            .expect("the worker lives on");
        assert_eq!(next.degradation, Degradation::None);
        let snap = service.shutdown();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 1);
    }
}
