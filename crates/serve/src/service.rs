//! The answer service: a fixed worker pool behind a bounded admission
//! queue, with a cache fast path, per-request deadlines, resilience
//! (retries, circuit breakers, degradation), and graceful drain shutdown.
//!
//! Life of a request:
//!
//! 1. Both entry points build the [`crate::CacheKey`] and look it up. A
//!    fresh cache hit is served on the caller's thread: its answer shares
//!    the cached one (no copy, no queue, no reply channel).
//! 2. On a miss the two entry points part:
//!
//!    * **Synchronous** — [`AnswerService::answer`] runs the miss itself,
//!      on the calling thread, with that thread's retrieval scratch: no
//!      queue, no reply channel, no handoff to another thread. It never
//!      returns [`ServeError::Overloaded`]: each synchronous caller runs
//!      at most one miss at a time, so the callers bound themselves.
//!    * **Queued** — [`AnswerService::submit`] `try_send`s the miss onto
//!      the bounded job channel. A full channel rejects with
//!      [`ServeError::Overloaded`] — the service sheds load instead of
//!      queueing unboundedly. A worker pops the job and replies on the
//!      request's own channel; the caller blocks in
//!      [`PendingAnswer::wait`] with a deadline-capped `recv_timeout`, so
//!      a stuck request costs it at most the deadline.
//!
//! 3. Either way one body serves the miss. If the deadline already passed
//!    it fails with [`ServeError::TimedOut`] without computing; otherwise
//!    it runs the resilience ladder:
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
//!
//!    A miss that finishes past its deadline fails with
//!    [`ServeError::TimedOut`] too, as a waiter would have seen it, but a
//!    full-fidelity answer is still cached. Nothing can abandon a
//!    synchronous miss mid-attempt, so it returns past its deadline by at
//!    most the engine attempt in progress when the deadline passed:
//!    retries already stop at the deadline.
//!
//! A request is counted exactly once no matter how many attempts it took.
//! A synchronous caller owns its outcome outright; on the queued path the
//! `settled` flag arbitrates metrics ownership between worker and waiter.
//! Per-attempt events land in separate `retries` / `engine_failures`
//! counters. A panic while serving a miss or a refresh is caught, on a
//! worker or a caller alike: it is counted in `worker_panics`, fails the
//! request with [`ServeError::WorkerLost`] (counted once, like any
//! outcome), and the thread starts over with a fresh retrieval scratch
//! and keeps serving, so the pool never shrinks.
//!
//! Stale-while-revalidate refreshes always run on the pool: a worker
//! works off at most one between batches, and a caller whose miss queued
//! one wakes a worker for it.
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
    with_thread_scratch, AnswerEngines, EngineAnswer, EngineError, EngineKind, FallibleEngines,
    FaultInjector, QueryScratch,
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

/// One admitted miss, whichever thread serves it.
struct Job {
    request: Request,
    key: CacheKey,
    admitted: Instant,
    deadline: Instant,
}

/// A miss queued by [`AnswerService::submit`], with the channel its
/// waiter listens on.
struct Queued {
    job: Job,
    reply: Sender<Reply>,
    // One-shot outcome flag shared with the waiter: whichever side first
    // flips it owns the metrics record for this request, so a reply that
    // lands just as the waiter times out is never counted twice.
    settled: Arc<AtomicBool>,
}

/// What the admission queue carries to the pool.
enum Task {
    /// A miss from [`AnswerService::submit`].
    Answer(Queued),
    /// A caller's own miss queued a stale-while-revalidate refresh: wake
    /// a worker to run it.
    Refresh,
}

/// A request after the shared fresh-hit fast path.
enum Admitted {
    /// Served from the cache, and counted.
    Hit(ServedAnswer),
    /// Still to be served.
    Miss(Job),
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
const REFRESH_ATTEMPT: u32 = 0x5246_5253;

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
        ctx: Arc<WorkerCtx>,
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
                ctx,
                settled,
            } => match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => {
                    if !settled.swap(true, Ordering::AcqRel) {
                        ctx.metrics.record_timed_out();
                    }
                    Err(ServeError::TimedOut)
                }
                Err(RecvTimeoutError::Disconnected) => Err(ServeError::WorkerLost),
            },
        }
    }
}

/// Everything a miss is served with, shared by the worker pool and the
/// synchronous callers.
struct WorkerCtx {
    fallible: Arc<dyn FallibleEngines>,
    cache: AnswerCache,
    metrics: ServiceMetrics,
    breakers: BreakerSet,
    resilience: ResilienceConfig,
    refresh_tx: Sender<RefreshJob>,
    refresh_rx: Receiver<RefreshJob>,
    batch_max: usize,
}

/// A running answer service. Cheap to share by reference across client
/// threads; [`AnswerService::shutdown`] consumes it.
pub struct AnswerService {
    engines: Arc<AnswerEngines>,
    ctx: Arc<WorkerCtx>,
    tx: Sender<Task>,
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
        let (refresh_tx, refresh_rx) = channel::bounded::<RefreshJob>(REFRESH_QUEUE_DEPTH);
        let ctx = Arc::new(WorkerCtx {
            fallible,
            cache: AnswerCache::new(&config.cache),
            metrics: ServiceMetrics::new(),
            breakers: BreakerSet::new(&config.resilience),
            resilience: config.resilience,
            refresh_tx,
            refresh_rx,
            batch_max: config.batch_max.max(1),
        });
        let (tx, rx) = channel::bounded::<Task>(config.queue_depth.max(1));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(&ctx, &rx))
            })
            .collect();
        AnswerService {
            engines,
            ctx,
            tx,
            workers,
            deadline: config.deadline,
        }
    }

    /// The fresh-hit fast path both entry points share: a hit is served
    /// and counted here, on the caller's thread.
    fn admit(&self, request: Request) -> Admitted {
        let admitted = Instant::now();
        let key = CacheKey::new(request.engine, &request.query, request.top_k, request.seed);
        if let Some(answer) = self.ctx.cache.get(&key, admitted) {
            let latency = admitted.elapsed();
            self.ctx
                .metrics
                .record_served(request.engine, latency, true, Degradation::None);
            return Admitted::Hit(ServedAnswer {
                answer,
                latency,
                from_cache: true,
                degradation: Degradation::None,
            });
        }
        Admitted::Miss(Job {
            request,
            key,
            admitted,
            deadline: admitted + self.deadline,
        })
    }

    /// Submit a request without blocking on the answer: a miss is queued
    /// for the worker pool.
    ///
    /// Returns [`ServeError::Overloaded`] when the admission queue is
    /// full; a cache hit returns a [`PendingAnswer`] that already holds
    /// its reply.
    pub fn submit(&self, request: Request) -> Result<PendingAnswer, ServeError> {
        let job = match self.admit(request) {
            Admitted::Hit(served) => return Ok(PendingAnswer(Pending::Ready(served))),
            Admitted::Miss(job) => job,
        };
        let deadline = job.deadline;
        let (reply, rx) = channel::bounded::<Reply>(1);
        let settled = Arc::new(AtomicBool::new(false));
        let task = Task::Answer(Queued {
            job,
            reply,
            settled: Arc::clone(&settled),
        });
        match self.tx.try_send(task) {
            Ok(()) => Ok(PendingAnswer(Pending::InFlight {
                rx,
                deadline,
                ctx: Arc::clone(&self.ctx),
                settled,
            })),
            Err(TrySendError::Full(_)) => {
                self.ctx.metrics.record_overloaded();
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Answer a request, blocking until the answer (or a typed failure).
    ///
    /// A miss runs on the calling thread, through the same resilience
    /// ladder a worker runs, with this thread's retrieval scratch: no
    /// queue and no handoff, so this never returns
    /// [`ServeError::Overloaded`]. It can return past the deadline by at
    /// most the engine attempt in progress when the deadline passed.
    pub fn answer(&self, request: Request) -> Result<ServedAnswer, ServeError> {
        let job = match self.admit(request) {
            Admitted::Hit(served) => return Ok(served),
            Admitted::Miss(job) => job,
        };
        let ctx = &*self.ctx;
        let engine = job.request.engine;
        let reply = with_thread_scratch(|scratch| {
            // The thread's scratch outlives this request and may carry
            // counts from the thread's other searches: record only ours.
            let before = scratch.stats();
            let reply = serve_contained(ctx, scratch, job);
            ctx.metrics.record_kernel(scratch.stats().since(before));
            reply
        });
        settle(&ctx.metrics, engine, &reply);
        // A stale serve queued its refresh where workers only look
        // between batches: wake one (a full queue means they are busy
        // and will get to it).
        if !ctx.refresh_rx.is_empty() {
            let _ = self.tx.try_send(Task::Refresh);
        }
        reply
    }

    /// Live metrics (percentiles computed on the spot).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.ctx.metrics.snapshot(
            self.ctx.cache.stats(),
            self.engines.serp_cache_stats(),
            self.engines.single_flight_stats(),
        )
    }

    /// The shared answer cache (for tests and warm-up).
    pub fn cache(&self) -> &AnswerCache {
        &self.ctx.cache
    }

    /// The engine stack this service fronts.
    pub fn engines(&self) -> &Arc<AnswerEngines> {
        &self.engines
    }

    /// The per-engine circuit breakers (observability and tests).
    pub fn breakers(&self) -> &BreakerSet {
        &self.ctx.breakers
    }

    /// Stop admitting, drain every queued job, join the workers, and
    /// return the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        let AnswerService {
            engines,
            ctx,
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
        ctx.metrics.snapshot(
            ctx.cache.stats(),
            engines.serp_cache_stats(),
            engines.single_flight_stats(),
        )
    }
}

fn worker_loop(ctx: &WorkerCtx, rx: &Receiver<Task>) {
    // One retrieval scratch per worker, reused for the worker's whole
    // lifetime: steady-state uncached requests run the search kernel
    // without allocating working memory.
    let mut scratch = QueryScratch::new();
    let mut batch: Vec<Queued> = Vec::with_capacity(ctx.batch_max);
    while let Ok(task) = rx.recv() {
        if let Task::Answer(queued) = task {
            // Micro-batch drain: after the blocking pop, opportunistically
            // take whatever is *already* queued, up to `batch_max`. The
            // drain never waits for more jobs (no deadline risk — a job is
            // never served later than it would have been unbatched), it
            // just keeps this worker's index references, scratch and the
            // SERP cache's freshly inserted entries hot across the run of
            // jobs that queued up behind one another under load.
            batch.push(queued);
            while batch.len() < ctx.batch_max {
                match rx.try_recv() {
                    Ok(Task::Answer(next)) => batch.push(next),
                    // A wake-up: the refresh after this batch answers it.
                    Ok(Task::Refresh) | Err(_) => break,
                }
            }
            ctx.metrics.record_batch(batch.len() as u64);
            // Serve strictly in admission order: latency fairness, and the
            // order replies settle is exactly the unbatched order.
            for queued in batch.drain(..) {
                let engine = queued.job.request.engine;
                let reply = serve_contained(ctx, &mut scratch, queued.job);
                // Exactly one record per request: the waiter may have
                // claimed a timeout already.
                if !queued.settled.swap(true, Ordering::AcqRel) {
                    settle(&ctx.metrics, engine, &reply);
                }
                let _ = queued.reply.send(reply);
                ctx.metrics.record_kernel(scratch.take_stats());
            }
        }
        // Foreground jobs take priority; between batches (or on a
        // wake-up), work off at most one pending stale-while-revalidate
        // refresh.
        if let Ok(refresh) = ctx.refresh_rx.try_recv() {
            run_refresh(ctx, &mut scratch, &refresh);
        }
    }
    // Admission is closed and the queue is drained: finish the refresh
    // backlog so stale entries enqueued late still get revalidated.
    while let Ok(refresh) = ctx.refresh_rx.try_recv() {
        run_refresh(ctx, &mut scratch, &refresh);
    }
}

/// Runs one unit of a thread's serving work, catching a panic so the
/// thread outlives it. Returns `None` after a panic, which is counted;
/// the scratch it may have left half-updated is replaced by a fresh one.
fn survive<R>(
    ctx: &WorkerCtx,
    scratch: &mut QueryScratch,
    work: impl FnOnce(&mut QueryScratch) -> R,
) -> Option<R> {
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| work(scratch)));
    if out.is_err() {
        ctx.metrics.record_worker_panic();
        *scratch = QueryScratch::new();
    }
    out.ok()
}

/// [`serve_job`] with its panic contained: a panic fails the request
/// with [`ServeError::WorkerLost`].
fn serve_contained(ctx: &WorkerCtx, scratch: &mut QueryScratch, job: Job) -> Reply {
    survive(ctx, scratch, |scratch| serve_job(ctx, scratch, job))
        .unwrap_or(Err(ServeError::WorkerLost))
}

/// Serves one admitted miss, on a worker or on the calling thread, and
/// returns its reply. The outcome is recorded by whoever settles it
/// ([`settle`]), never here.
fn serve_job(ctx: &WorkerCtx, scratch: &mut QueryScratch, job: Job) -> Reply {
    if Instant::now() >= job.deadline {
        // Too late to be useful; don't burn engine time.
        return Err(ServeError::TimedOut);
    }
    let (answer, degradation) = resolve(ctx, scratch, &job)?;
    if degradation == Degradation::None {
        // Cache only full-fidelity answers (even a late one — the work is
        // done either way). A degraded answer must not masquerade as the
        // engine's. The cache and the reply share one answer.
        ctx.cache.insert(job.key, answer.clone());
    }
    let finished = Instant::now();
    if finished > job.deadline {
        // A waiter gave up at the deadline; a synchronous caller sees the
        // same outcome.
        return Err(ServeError::TimedOut);
    }
    Ok(ServedAnswer {
        answer,
        latency: finished - job.admitted,
        from_cache: false,
        degradation,
    })
}

/// Records a served miss's one outcome.
fn settle(metrics: &ServiceMetrics, engine: EngineKind, reply: &Reply) {
    match reply {
        Ok(served) => metrics.record_served(engine, served.latency, false, served.degradation),
        Err(ServeError::TimedOut) => metrics.record_timed_out(),
        Err(_) => metrics.record_failed(),
    }
}

/// The resilience ladder for one admitted, in-deadline miss: breaker →
/// retries → stale cache entry → organic SERP.
///
/// A retry's backoff is slept only if it ends before the job's deadline
/// (zero budget ⇒ zero retries). Serving a stale entry queues its
/// background refresh; a full refresh queue drops it, and the entry
/// stays stale until the next stale serve queues another.
fn resolve(
    ctx: &WorkerCtx,
    scratch: &mut QueryScratch,
    job: &Job,
) -> Result<(EngineAnswer, Degradation), ServeError> {
    let req = &job.request;
    if !ctx.resilience.enabled {
        // Fail-hard path: one attempt, no breaker, no degradation.
        return match ctx
            .fallible
            .try_answer_with(scratch, req.engine, &req.query, req.top_k, req.seed, 0)
        {
            Ok(answer) => Ok((answer, Degradation::None)),
            Err(_) => {
                ctx.metrics.record_engine_failure();
                Err(ServeError::EngineFailed { engine: req.engine })
            }
        };
    }

    let breaker = ctx.breakers.of(req.engine);
    let admission = breaker.admit();
    let mut breaker_rejected = false;
    if admission == Admission::Reject {
        ctx.metrics.record_breaker_rejection();
        breaker_rejected = true;
    } else {
        let probing = admission == Admission::Probe;
        let mut attempt: u32 = 0;
        loop {
            match ctx.fallible.try_answer_with(
                scratch, req.engine, &req.query, req.top_k, req.seed, attempt,
            ) {
                Ok(answer) => {
                    breaker.record_success();
                    return Ok((answer, Degradation::None));
                }
                Err(err) => {
                    ctx.metrics.record_engine_failure();
                    breaker.record_failure();
                    // Stop retrying when: this was the one half-open
                    // probe; the engine is in an outage window (every
                    // attempt of this request fails identically); the
                    // failure just tripped the breaker; or the retry
                    // budget is spent.
                    if probing
                        || err == EngineError::Unavailable
                        || !breaker.is_closed()
                        || attempt >= ctx.resilience.max_retries
                    {
                        break;
                    }
                    let backoff = retry_backoff(&ctx.resilience, req.seed, attempt + 1);
                    // Never borrow against time we don't have: a backoff
                    // equal to or past the remaining deadline is never
                    // taken; degrading now beats timing out later.
                    if backoff >= job.deadline.saturating_duration_since(Instant::now()) {
                        break;
                    }
                    std::thread::sleep(backoff);
                    ctx.metrics.record_retry();
                    attempt += 1;
                }
            }
        }
    }

    // Degradation ladder, rung 1: serve the stale cache entry and queue
    // its revalidation for the pool.
    if ctx.resilience.degrade_to_stale {
        if let Some(answer) = ctx.cache.get_stale(&job.key) {
            let _ = ctx.refresh_tx.try_send(RefreshJob {
                request: req.clone(),
                key: job.key.clone(),
            });
            return Ok((answer, Degradation::Stale));
        }
    }
    // Rung 2: the organic Google SERP as a citation-only answer, computed
    // on the infallible stack (the production search index is local — it
    // does not share the remote engines' failure modes).
    if ctx.resilience.degrade_to_serp {
        let answer = ctx.fallible.stack().answer_with(
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
    } else if ctx.resilience.degrade_to_stale {
        ServeError::DegradedUnavailable { engine: req.engine }
    } else {
        ServeError::EngineFailed { engine: req.engine }
    })
}

/// Recompute a stale entry in the background (one attempt, salted so it
/// does not replay the foreground attempts' fault draws), with its panic
/// contained.
fn run_refresh(ctx: &WorkerCtx, scratch: &mut QueryScratch, refresh: &RefreshJob) {
    let req = &refresh.request;
    survive(ctx, scratch, |scratch| {
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
    });
    ctx.metrics.record_kernel(scratch.take_stats());
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

    #[test]
    fn a_queued_panic_fails_its_request_once_and_the_worker_lives_on() {
        let stack = engines();
        let fallible = Arc::new(PanicsOn {
            stack: Arc::clone(&stack),
            marker: "panic marker",
        });
        let service = AnswerService::start_fallible(stack, fallible, ServeConfig::with_workers(1));
        let err = service
            .submit(Request::new(EngineKind::Gpt4o, "panic marker", 10, 1))
            .expect("the queue has room")
            .wait()
            .expect_err("the marker query panics");
        assert_eq!(err, ServeError::WorkerLost);
        // The only worker survived its panic and serves the next request.
        let next = service
            .submit(Request::new(
                EngineKind::Gpt4o,
                "best phone under 500",
                10,
                1,
            ))
            .expect("the queue has room")
            .wait()
            .expect("the worker lives on");
        assert_eq!(next.degradation, Degradation::None);
        let snap = service.shutdown();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.batch.batched_jobs, 2, "both requests ran on the pool");
    }

    #[test]
    fn answer_and_submit_serve_a_mixed_sequence_identically() {
        const QUERIES: [&str; 4] = [
            "best phone under 500",
            "Top 10 most reliable SUVs",
            "how to fix a leaking faucet",
            "cheap flights to tokyo",
        ];
        // Every (engine, query) key three times: 20 misses, 40 hits.
        let sequence: Vec<Request> = (0..60usize)
            .map(|i| Request::new(EngineKind::ALL[i % 5], QUERIES[(i / 5) % 4], 10, 7))
            .collect();
        // Two stacks over one world seed, so both services start from
        // the same cold SERP cache.
        let inline = AnswerService::start(engines(), ServeConfig::with_workers(2));
        let queued = AnswerService::start(engines(), ServeConfig::with_workers(2));
        for request in &sequence {
            let a = inline.answer(request.clone()).expect("inline answer");
            let b = queued
                .submit(request.clone())
                .expect("the queue has room")
                .wait()
                .expect("queued answer");
            assert_eq!(format!("{:?}", a.answer), format!("{:?}", b.answer));
            assert_eq!(a.from_cache, b.from_cache);
            assert_eq!(a.degradation, b.degradation);
        }
        let (a, b) = (inline.shutdown(), queued.shutdown());
        assert_eq!((a.completed, b.completed), (60, 60));
        assert_eq!(a.cache_hits_served, b.cache_hits_served);
        assert_eq!(a.cache.hits, b.cache.hits);
        assert_eq!(a.cache.misses, b.cache.misses);
        assert_eq!(a.cache.misses, 20);
        assert_eq!(a.kernel, b.kernel);
        assert!(
            a.kernel.docs_scored > 0,
            "inline misses report their kernel work"
        );
        assert_eq!(a.kernel.scratch_fallbacks, 0);
        assert_eq!(a.batch.batched_jobs, 0, "no inline miss touches the pool");
        assert_eq!(b.batch.batched_jobs, 20);
    }

    /// What [`Scripted`] does on its marker query.
    enum OnMarker {
        /// Announce the attempt on `entered`, then block until `release`
        /// yields.
        Block {
            entered: Sender<()>,
            release: Receiver<()>,
        },
        /// Sleep, then answer.
        Sleep(Duration),
    }

    /// The stack, counting engine calls, except that one marker query
    /// blocks or sleeps.
    struct Scripted {
        stack: Arc<AnswerEngines>,
        marker: &'static str,
        on_marker: OnMarker,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Scripted {
        fn new(stack: &Arc<AnswerEngines>, marker: &'static str, on_marker: OnMarker) -> Scripted {
            Scripted {
                stack: Arc::clone(stack),
                marker,
                on_marker,
                calls: Default::default(),
            }
        }
    }

    impl FallibleEngines for Scripted {
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
            self.calls.fetch_add(1, Ordering::Relaxed);
            if query == self.marker {
                match &self.on_marker {
                    OnMarker::Block { entered, release } => {
                        entered.send(()).expect("test listens");
                        release.recv().expect("test releases");
                    }
                    OnMarker::Sleep(pause) => std::thread::sleep(*pause),
                }
            }
            self.stack
                .try_answer_with(scratch, kind, query, k, seed, attempt)
        }
    }

    #[test]
    fn answer_serves_while_every_worker_is_blocked_and_the_queue_is_full() {
        let stack = engines();
        let (entered_tx, entered) = channel::unbounded();
        let (release, release_rx) = channel::unbounded();
        let fallible = Arc::new(Scripted::new(
            &stack,
            "block marker",
            OnMarker::Block {
                entered: entered_tx,
                release: release_rx,
            },
        ));
        let mut config = ServeConfig::with_workers(2).without_batching();
        config.queue_depth = 1;
        let service = AnswerService::start_fallible(stack, fallible, config);
        let blocked = |seed| Request::new(EngineKind::Gpt4o, "block marker", 10, seed);
        // One job per worker, each taken before the next is queued.
        let mut pending = Vec::new();
        for seed in 0..2 {
            pending.push(service.submit(blocked(seed)).expect("a worker is free"));
            entered.recv().expect("a worker took the job");
        }
        pending.push(service.submit(blocked(2)).expect("the one queue slot"));
        assert_eq!(
            service.submit(blocked(3)).err(),
            Some(ServeError::Overloaded),
            "the queue is full"
        );
        for i in 0..5u64 {
            let engine = EngineKind::ALL[i as usize];
            let served = service
                .answer(Request::new(engine, "best phone under 500", 10, i))
                .expect("a synchronous miss needs no worker and no queue slot");
            assert!(!served.from_cache);
            assert_eq!(served.degradation, Degradation::None);
        }
        for _ in 0..3 {
            release.send(()).expect("workers listen");
        }
        for p in pending {
            p.wait().expect("released jobs complete");
        }
        let snap = service.shutdown();
        assert_eq!(snap.overloaded, 1, "only the submit was shed");
        assert_eq!(snap.completed, 8);
    }

    #[test]
    fn a_zero_deadline_times_out_once_without_an_engine_call() {
        let stack = engines();
        let fallible = Arc::new(Scripted::new(
            &stack,
            "no marker",
            OnMarker::Sleep(Duration::ZERO),
        ));
        let mut config = ServeConfig::with_workers(1);
        config.deadline = Duration::ZERO;
        let service = AnswerService::start_fallible(stack, fallible.clone(), config);
        let request = Request::new(EngineKind::Claude, "instant deadline", 10, 1);
        let inline = service.answer(request.clone());
        let queued = service.submit(request).expect("queue has room").wait();
        assert_eq!(inline.err(), Some(ServeError::TimedOut));
        assert_eq!(queued.err(), Some(ServeError::TimedOut));
        let snap = service.shutdown();
        assert_eq!(fallible.calls.load(Ordering::Relaxed), 0, "no engine call");
        assert_eq!(snap.timed_out, 2, "each request is counted exactly once");
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.kernel.docs_scored, 0);
    }

    #[test]
    fn a_miss_finishing_past_its_deadline_times_out_once_and_is_still_cached() {
        let stack = engines();
        let fallible = Arc::new(Scripted::new(
            &stack,
            "slow marker",
            OnMarker::Sleep(Duration::from_millis(60)),
        ));
        let mut config = ServeConfig::with_workers(1);
        config.deadline = Duration::from_millis(20);
        let service = AnswerService::start_fallible(stack, fallible.clone(), config);
        let request = |seed| Request::new(EngineKind::Gpt4o, "slow marker", 10, seed);
        let inline = service.answer(request(1));
        assert_eq!(inline.err(), Some(ServeError::TimedOut));
        let queued = service.submit(request(2)).expect("queue has room").wait();
        assert_eq!(queued.err(), Some(ServeError::TimedOut));
        let snap = service.shutdown();
        assert_eq!(
            fallible.calls.load(Ordering::Relaxed),
            2,
            "one attempt each"
        );
        assert_eq!(snap.timed_out, 2, "each request is counted exactly once");
        assert_eq!(snap.completed, 0, "a late answer is never served");
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.cache.inserts, 2, "the late answers are still cached");
    }
}
