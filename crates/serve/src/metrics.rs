//! Service-side metrics: per-engine latencies, outcome counters, and a
//! latency histogram, all snapshotted into a [`MetricsSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shift_engines::{EngineKind, KernelStats, SerpCacheStats, SingleFlightStats};
use shift_metrics::{mean, percentile, Histogram};

use crate::cache::CacheStats;
use crate::report::{BatchServeStats, EngineLatency, LiveServeStats, MetricsSnapshot};
use crate::resilience::Degradation;

/// Upper bound of the latency histogram, in milliseconds. Latencies above
/// it land in the overflow bucket.
pub const HISTOGRAM_MAX_MS: f64 = 20.0;
/// Bin count of the latency histogram.
pub const HISTOGRAM_BINS: usize = 50;

/// Shared metrics sink for one [`crate::AnswerService`].
///
/// Latency samples are appended under a short per-engine lock; counters
/// are relaxed atomics. `snapshot` does the expensive percentile work.
pub struct ServiceMetrics {
    started: Instant,
    latencies_ms: [Mutex<Vec<f64>>; 5],
    completed: AtomicU64,
    cache_hits_served: AtomicU64,
    overloaded: AtomicU64,
    timed_out: AtomicU64,
    retries: AtomicU64,
    served_stale: AtomicU64,
    served_degraded: AtomicU64,
    engine_failures: AtomicU64,
    breaker_rejections: AtomicU64,
    failed: AtomicU64,
    refreshes: AtomicU64,
    worker_panics: AtomicU64,
    // Replicated-tier counter: requests the router abandoned on this
    // replica (outage, full queue, open breaker) and retried elsewhere.
    failovers: AtomicU64,
    // Retrieval-kernel counters, folded in per job from each worker's
    // scratch.
    docs_scored: AtomicU64,
    candidates_pruned: AtomicU64,
    scratch_fallbacks: AtomicU64,
    // Micro-batch shape: how many queue drains happened, how many jobs
    // they carried, and the largest drain seen (fetch_max gauge).
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    max_batch: AtomicU64,
    // Live-index counters (monotone) and shape gauges (last set wins),
    // fed by the churn benchmark's ingest loop.
    live_events: AtomicU64,
    live_flushes: AtomicU64,
    live_compactions: AtomicU64,
    live_segments: AtomicU64,
    live_memtable_docs: AtomicU64,
    live_docs: AtomicU64,
}

impl ServiceMetrics {
    /// Fresh metrics; the throughput clock starts now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            latencies_ms: [
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
            ],
            completed: AtomicU64::new(0),
            cache_hits_served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            served_stale: AtomicU64::new(0),
            served_degraded: AtomicU64::new(0),
            engine_failures: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            docs_scored: AtomicU64::new(0),
            candidates_pruned: AtomicU64::new(0),
            scratch_fallbacks: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            live_events: AtomicU64::new(0),
            live_flushes: AtomicU64::new(0),
            live_compactions: AtomicU64::new(0),
            live_segments: AtomicU64::new(0),
            live_memtable_docs: AtomicU64::new(0),
            live_docs: AtomicU64::new(0),
        }
    }

    /// Record a successfully served answer and its end-to-end latency.
    ///
    /// Called exactly once per served request regardless of how many
    /// attempts it took (attempts are counted via [`Self::record_retry`]);
    /// the degradation level says which rung of the ladder answered.
    pub fn record_served(
        &self,
        engine: EngineKind,
        latency: Duration,
        from_cache: bool,
        degradation: Degradation,
    ) {
        let ms = latency.as_secs_f64() * 1e3;
        self.latencies_ms[engine.index()].lock().push(ms);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if from_cache {
            self.cache_hits_served.fetch_add(1, Ordering::Relaxed);
        }
        match degradation {
            Degradation::None => {}
            Degradation::Stale => {
                self.served_stale.fetch_add(1, Ordering::Relaxed);
                self.served_degraded.fetch_add(1, Ordering::Relaxed);
            }
            Degradation::SerpFallback => {
                self.served_degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record an admission-control rejection.
    pub fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a deadline miss.
    pub fn record_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retry attempt (a request retried twice counts two).
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed engine attempt (faults, not deadline misses).
    pub fn record_engine_failure(&self) {
        self.engine_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request turned away by an open circuit breaker.
    pub fn record_breaker_rejection(&self) {
        self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request that ultimately got no answer at all.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed stale-while-revalidate background refresh.
    pub fn record_refresh(&self) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a panic a worker caught while serving a job or a refresh.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request the router abandoned here and retried on
    /// another replica.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Failovers away from this replica so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Fold one job's retrieval-kernel counters into the service totals.
    ///
    /// Workers call this with [`shift_engines::QueryScratch::take_stats`]
    /// after each job.
    pub fn record_kernel(&self, stats: KernelStats) {
        self.docs_scored
            .fetch_add(stats.docs_scored, Ordering::Relaxed);
        self.candidates_pruned
            .fetch_add(stats.candidates_pruned, Ordering::Relaxed);
        self.scratch_fallbacks
            .fetch_add(stats.scratch_fallbacks, Ordering::Relaxed);
    }

    /// Record one micro-batch drained from the admission queue.
    pub fn record_batch(&self, jobs: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(jobs, Ordering::Relaxed);
        self.max_batch.fetch_max(jobs, Ordering::Relaxed);
    }

    /// Record live-index mutations applied (upserts + deletes).
    pub fn record_live_events(&self, n: u64) {
        self.live_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Record live-index memtable flushes.
    pub fn record_live_flushes(&self, n: u64) {
        self.live_flushes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record live-index compaction merges.
    pub fn record_live_compactions(&self, n: u64) {
        self.live_compactions.fetch_add(n, Ordering::Relaxed);
    }

    /// Set the live-index shape gauges: current segment count, buffered
    /// memtable versions, and visible documents.
    pub fn set_live_shape(&self, segments: u64, memtable_docs: u64, live_docs: u64) {
        self.live_segments.store(segments, Ordering::Relaxed);
        self.live_memtable_docs
            .store(memtable_docs, Ordering::Relaxed);
        self.live_docs.store(live_docs, Ordering::Relaxed);
    }

    /// Retry attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Seconds since construction.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Materialize percentiles, throughput, and the histogram.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        serp_cache: SerpCacheStats,
        single_flight: SingleFlightStats,
    ) -> MetricsSnapshot {
        let mut histogram = Histogram::new(0.0, HISTOGRAM_MAX_MS, HISTOGRAM_BINS);
        let mut engines = Vec::with_capacity(EngineKind::ALL.len());
        let mut all: Vec<f64> = Vec::new();
        for kind in EngineKind::ALL {
            let samples = self.latencies_ms[kind.index()].lock().clone();
            for &ms in &samples {
                histogram.record(ms);
            }
            all.extend_from_slice(&samples);
            engines.push(EngineLatency::from_samples(kind, &samples));
        }
        let elapsed = self.elapsed_secs();
        let completed = self.completed();
        MetricsSnapshot {
            elapsed_secs: elapsed,
            completed,
            overloaded: self.overloaded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cache_hits_served: self.cache_hits_served.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            served_stale: self.served_stale.load(Ordering::Relaxed),
            served_degraded: self.served_degraded.load(Ordering::Relaxed),
            engine_failures: self.engine_failures.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            throughput_rps: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            overall: EngineLatencySummary::of(&all),
            engines,
            histogram,
            cache,
            serp_cache,
            kernel: KernelStats {
                docs_scored: self.docs_scored.load(Ordering::Relaxed),
                candidates_pruned: self.candidates_pruned.load(Ordering::Relaxed),
                scratch_fallbacks: self.scratch_fallbacks.load(Ordering::Relaxed),
            },
            batch: BatchServeStats {
                batches: self.batches.load(Ordering::Relaxed),
                batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
                max_batch: self.max_batch.load(Ordering::Relaxed),
            },
            single_flight,
            live: LiveServeStats {
                events: self.live_events.load(Ordering::Relaxed),
                flushes: self.live_flushes.load(Ordering::Relaxed),
                compactions: self.live_compactions.load(Ordering::Relaxed),
                segments: self.live_segments.load(Ordering::Relaxed),
                memtable_docs: self.live_memtable_docs.load(Ordering::Relaxed),
                live_docs: self.live_docs.load(Ordering::Relaxed),
            },
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

/// Percentile summary of a latency sample set, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLatencySummary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

impl EngineLatencySummary {
    /// Summarize a sample set (all zeros when empty).
    pub fn of(samples: &[f64]) -> EngineLatencySummary {
        if samples.is_empty() {
            return EngineLatencySummary::default();
        }
        EngineLatencySummary {
            count: samples.len(),
            mean_ms: mean(samples),
            p50_ms: percentile(samples, 50.0),
            p95_ms: percentile(samples, 95.0),
            p99_ms: percentile(samples, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_order() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = EngineLatencySummary::of(&samples);
        assert_eq!(s.count, 100);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        assert!(s.p50_ms > 0.0);
    }

    #[test]
    fn snapshot_counts_per_engine() {
        let m = ServiceMetrics::new();
        m.record_served(
            EngineKind::Google,
            Duration::from_millis(2),
            false,
            Degradation::None,
        );
        m.record_served(
            EngineKind::Google,
            Duration::from_millis(4),
            true,
            Degradation::None,
        );
        m.record_served(
            EngineKind::Claude,
            Duration::from_millis(8),
            false,
            Degradation::None,
        );
        m.record_overloaded();
        m.record_timed_out();
        m.record_kernel(KernelStats {
            docs_scored: 40,
            candidates_pruned: 7,
            scratch_fallbacks: 0,
        });
        m.record_kernel(KernelStats {
            docs_scored: 2,
            candidates_pruned: 3,
            scratch_fallbacks: 1,
        });
        m.record_batch(1);
        m.record_batch(5);
        m.record_batch(3);
        let snap = m.snapshot(
            CacheStats::default(),
            SerpCacheStats::default(),
            SingleFlightStats::default(),
        );
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.cache_hits_served, 1);
        assert_eq!(snap.overloaded, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.kernel.docs_scored, 42);
        assert_eq!(snap.kernel.candidates_pruned, 10);
        assert_eq!(snap.kernel.scratch_fallbacks, 1);
        assert_eq!(snap.batch.batches, 3);
        assert_eq!(snap.batch.batched_jobs, 9);
        assert_eq!(snap.batch.max_batch, 5);
        assert!((snap.batch.mean_batch() - 3.0).abs() < 1e-12);
        let google = &snap.engines[EngineKind::Google.index()];
        assert_eq!(google.summary.count, 2);
        let gemini = &snap.engines[EngineKind::Gemini.index()];
        assert_eq!(gemini.summary.count, 0);
        assert_eq!(snap.histogram.total(), 3);
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn resilience_counters_flow_into_the_snapshot() {
        let m = ServiceMetrics::new();
        m.record_served(
            EngineKind::Gpt4o,
            Duration::from_millis(1),
            true,
            Degradation::Stale,
        );
        m.record_served(
            EngineKind::Gpt4o,
            Duration::from_millis(1),
            false,
            Degradation::SerpFallback,
        );
        m.record_retry();
        m.record_retry();
        m.record_engine_failure();
        m.record_breaker_rejection();
        m.record_failed();
        m.record_refresh();
        let snap = m.snapshot(
            CacheStats::default(),
            SerpCacheStats::default(),
            SingleFlightStats::default(),
        );
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.served_stale, 1, "only the stale serve counts stale");
        assert_eq!(
            snap.served_degraded, 2,
            "stale and SERP both count degraded"
        );
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.engine_failures, 1);
        assert_eq!(snap.breaker_rejections, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.refreshes, 1);
    }
}
