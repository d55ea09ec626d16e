//! # shift-serve
//!
//! The online serving layer over the [`shift_engines`] answer stack: the
//! batch study asks "how do the engines differ?", this crate asks "how
//! fast can one box answer live traffic from all five of them?".
//!
//! * [`service`] — [`AnswerService`]: the blocking `answer` serves a
//!   miss on the calling thread; `submit` queues it for a fixed-size
//!   worker pool behind a bounded channel with admission control (typed
//!   [`ServeError::Overloaded`] / [`ServeError::TimedOut`] rejections).
//!   Both share one resilience ladder, per-request deadlines, and
//!   graceful drain-then-join shutdown.
//! * [`cache`] — [`AnswerCache`]: a sharded, TTL-aware LRU keyed by
//!   the normalized query text ([`shift_textkit::normalize_query`]) plus
//!   engine, depth, and seed, with per-shard `parking_lot` locks and
//!   hit / miss / eviction counters.
//! * [`metrics`] — [`ServiceMetrics`]: per-engine latency recording with
//!   p50/p95/p99 via [`shift_metrics::percentile`], throughput, and a
//!   renderable [`report::MetricsSnapshot`].
//! * [`loadgen`] — deterministic closed- and open-loop load generation
//!   over [`shift_queries`] workloads with a Zipfian repeat distribution,
//!   so cache hit rates look like real traffic; plus [`run_chaos`], which
//!   replays that workload under a seeded [`shift_engines::FaultPlan`]
//!   and reports availability with resilience on vs. off.
//! * [`resilience`] — budgeted retries with deterministic jittered
//!   backoff, per-engine lock-free circuit breakers, and the
//!   [`Degradation`] ladder (stale-while-revalidate cache serving, then
//!   the organic Google SERP as a citation-only answer).
//!
//! ```no_run
//! use std::sync::Arc;
//! use shift_corpus::{World, WorldConfig};
//! use shift_engines::{AnswerEngines, EngineKind};
//! use shift_serve::{AnswerService, Request, ServeConfig};
//!
//! let world = Arc::new(World::generate(&WorldConfig::small(), 7));
//! let engines = Arc::new(AnswerEngines::build(world));
//! let service = AnswerService::start(engines, ServeConfig::default());
//! let served = service
//!     .answer(Request::new(EngineKind::Gpt4o, "best laptops for students", 10, 1))
//!     .unwrap();
//! println!("{} citations", served.answer.citations.len());
//! let report = service.shutdown();
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod error;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod resilience;
pub mod service;

pub use cache::{AnswerCache, CacheConfig, CacheKey, CacheStats};
pub use config::ServeConfig;
pub use error::ServeError;
pub use loadgen::{
    run_chaos, run_load, ChaosConfig, ChaosReport, LoadConfig, LoadMode, LoadOutcome, Workload,
};
pub use metrics::ServiceMetrics;
pub use report::{BatchServeStats, LiveServeStats, MetricsSnapshot};
pub use resilience::{
    Admission, BreakerSet, BreakerState, CircuitBreaker, Degradation, ResilienceConfig,
};
pub use service::{AnswerService, PendingAnswer, Request, ServedAnswer};

// Re-exported for chaos-harness callers, so building a fault plan does
// not require a direct `shift_engines` dependency.
pub use shift_engines::{EngineError, FallibleEngines, FaultInjector, FaultPlan, OutageWindow};
