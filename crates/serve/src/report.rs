//! Rendering of service metrics: a fixed-width text report and a JSON
//! document for `BENCH_serve.json`.

use std::collections::BTreeMap;

use shift_engines::{EngineKind, KernelStats, SerpCacheStats, SingleFlightStats};
use shift_freshness::json::{to_string as json_to_string, Value};
use shift_metrics::Histogram;

use crate::cache::CacheStats;
use crate::metrics::EngineLatencySummary;

/// Latency summary for one engine.
#[derive(Debug, Clone)]
pub struct EngineLatency {
    /// The engine.
    pub kind: EngineKind,
    /// Percentile summary of its served latencies.
    pub summary: EngineLatencySummary,
}

/// A point-in-time view of a service's metrics, renderable as text or JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Wall-clock seconds the service has been running.
    pub elapsed_secs: f64,
    /// Requests answered (cache hits included).
    pub completed: u64,
    /// Requests rejected at admission ([`crate::ServeError::Overloaded`]).
    pub overloaded: u64,
    /// Requests that missed their deadline.
    pub timed_out: u64,
    /// Completed requests served straight from the cache.
    pub cache_hits_served: u64,
    /// Retry attempts across all requests (a request retried twice
    /// contributes two).
    pub retries: u64,
    /// Completed requests served from a stale cache entry.
    pub served_stale: u64,
    /// Completed requests served below full fidelity (stale or SERP
    /// fallback); `served_stale` is a subset.
    pub served_degraded: u64,
    /// Failed engine attempts (injected or real faults).
    pub engine_failures: u64,
    /// Requests turned away by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Requests that got no answer at all (engine failed and the
    /// degradation ladder came up empty).
    pub failed: u64,
    /// Completed stale-while-revalidate background refreshes.
    pub refreshes: u64,
    /// Panics caught while serving a miss or a refresh, on a worker or
    /// a synchronous caller's thread; each failed its request (counted in
    /// `failed`), and the thread lived on.
    pub worker_panics: u64,
    /// Completed requests per second since the service started.
    pub throughput_rps: f64,
    /// Latency summary across all engines.
    pub overall: EngineLatencySummary,
    /// Per-engine latency summaries, in [`EngineKind::ALL`] order.
    pub engines: Vec<EngineLatency>,
    /// Latency histogram (milliseconds) across all served requests,
    /// filled from the merged log-bucket histogram (each bucket's count
    /// at its midpoint).
    pub histogram: Histogram,
    /// Answer-cache counters.
    pub cache: CacheStats,
    /// SERP-cache counters from the engine stack (retrieval-level
    /// cache, below the answer cache).
    pub serp_cache: SerpCacheStats,
    /// Retrieval-kernel work totals, summed over every query the
    /// service ran.
    pub kernel: KernelStats,
    /// Micro-batch shape of the worker pool's queue drains.
    pub batch: BatchServeStats,
    /// Single-flight dedup counters from the engine stack (collapsed
    /// concurrent SERP-cache misses).
    pub single_flight: SingleFlightStats,
    /// Live-index counters and shape gauges (all zero unless a churn
    /// workload fed the service; see `examples/run_live.rs`).
    pub live: LiveServeStats,
}

/// Micro-batch counters: each "batch" is one drain of the admission
/// queue by one worker (a drain of a single job still counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchServeStats {
    /// Queue drains performed.
    pub batches: u64,
    /// Jobs carried by those drains.
    pub batched_jobs: u64,
    /// Largest single drain.
    pub max_batch: u64,
}

impl BatchServeStats {
    /// Mean jobs per drain (0.0 when no drains happened).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }
}

/// Live-index counters carried through [`crate::ServiceMetrics`]:
/// monotone event/flush/compaction totals plus the latest shape gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveServeStats {
    /// Mutations applied (upserts + deletes).
    pub events: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compaction merges.
    pub compactions: u64,
    /// Current segment count.
    pub segments: u64,
    /// Currently buffered memtable versions.
    pub memtable_docs: u64,
    /// Currently visible documents.
    pub live_docs: u64,
}

impl MetricsSnapshot {
    /// Fixed-width text report, one engine per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== shift-serve metrics ==\n");
        out.push_str(&format!(
            "completed {}  overloaded {}  timed-out {}  elapsed {:.2}s  throughput {:.1} req/s\n",
            self.completed, self.overloaded, self.timed_out, self.elapsed_secs, self.throughput_rps,
        ));
        out.push_str(&format!(
            "cache: {} hits / {} misses (hit rate {:.1}%), {} evictions, {} expirations\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
            self.cache.expirations,
        ));
        out.push_str(&format!(
            "serp cache: {} hits / {} misses (hit rate {:.1}%), {} inserts, {} evictions\n",
            self.serp_cache.hits,
            self.serp_cache.misses,
            self.serp_cache.hit_rate() * 100.0,
            self.serp_cache.inserts,
            self.serp_cache.evictions,
        ));
        out.push_str(&format!(
            "retrieval: {} docs scored, {} candidates pruned, {} scratch fallbacks\n",
            self.kernel.docs_scored, self.kernel.candidates_pruned, self.kernel.scratch_fallbacks,
        ));
        out.push_str(&format!(
            "batching: {} drains carrying {} jobs (mean {:.2}, max {})\n",
            self.batch.batches,
            self.batch.batched_jobs,
            self.batch.mean_batch(),
            self.batch.max_batch,
        ));
        out.push_str(&format!(
            "single-flight: {} leaders, {} waiters (collapse rate {:.1}%)\n",
            self.single_flight.leaders,
            self.single_flight.waiters,
            self.single_flight.collapse_rate() * 100.0,
        ));
        if self.live.events > 0 {
            out.push_str(&format!(
                "live index: {} events, {} flushes, {} compactions; \
                 {} segments, {} memtable docs, {} live docs\n",
                self.live.events,
                self.live.flushes,
                self.live.compactions,
                self.live.segments,
                self.live.memtable_docs,
                self.live.live_docs,
            ));
        }
        out.push_str(&format!(
            "resilience: {} retries, {} engine failures, {} breaker rejections, \
             {} stale / {} degraded serves, {} refreshes, {} failed, {} worker panics\n",
            self.retries,
            self.engine_failures,
            self.breaker_rejections,
            self.served_stale,
            self.served_degraded,
            self.refreshes,
            self.failed,
            self.worker_panics,
        ));
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            "engine", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"
        ));
        for row in &self.engines {
            let s = row.summary;
            out.push_str(&format!(
                "{:<14} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                row.kind.name(),
                s.count,
                s.mean_ms,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
            ));
        }
        let o = self.overall;
        out.push_str(&format!(
            "{:<14} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            "(all)", o.count, o.mean_ms, o.p50_ms, o.p95_ms, o.p99_ms,
        ));
        out.push_str(&format!(
            "latency histogram [0, {:.0} ms): {}  (+{} overflow)\n",
            self.histogram.bins().last().map(|b| b.1).unwrap_or(0.0),
            self.histogram.ascii_sparkline(),
            self.histogram.overflow(),
        ));
        out
    }

    /// JSON document (the schema of `BENCH_serve.json`).
    pub fn to_json(&self) -> Value {
        fn num(v: f64) -> Value {
            Value::Number(v)
        }
        fn summary_json(s: &EngineLatencySummary) -> Value {
            let mut m = BTreeMap::new();
            m.insert("count".to_string(), num(s.count as f64));
            m.insert("mean_ms".to_string(), num(s.mean_ms));
            m.insert("p50_ms".to_string(), num(s.p50_ms));
            m.insert("p95_ms".to_string(), num(s.p95_ms));
            m.insert("p99_ms".to_string(), num(s.p99_ms));
            Value::Object(m)
        }
        let mut engines = BTreeMap::new();
        for row in &self.engines {
            engines.insert(row.kind.slug().to_string(), summary_json(&row.summary));
        }
        let mut cache = BTreeMap::new();
        cache.insert("hits".to_string(), num(self.cache.hits as f64));
        cache.insert("misses".to_string(), num(self.cache.misses as f64));
        cache.insert("hit_rate".to_string(), num(self.cache.hit_rate()));
        cache.insert("evictions".to_string(), num(self.cache.evictions as f64));
        cache.insert(
            "expirations".to_string(),
            num(self.cache.expirations as f64),
        );
        cache.insert("inserts".to_string(), num(self.cache.inserts as f64));
        cache.insert("stale_hits".to_string(), num(self.cache.stale_hits as f64));
        let mut serp_cache = BTreeMap::new();
        serp_cache.insert("hits".to_string(), num(self.serp_cache.hits as f64));
        serp_cache.insert("misses".to_string(), num(self.serp_cache.misses as f64));
        serp_cache.insert("hit_rate".to_string(), num(self.serp_cache.hit_rate()));
        serp_cache.insert("inserts".to_string(), num(self.serp_cache.inserts as f64));
        serp_cache.insert(
            "evictions".to_string(),
            num(self.serp_cache.evictions as f64),
        );
        let mut kernel = BTreeMap::new();
        kernel.insert(
            "docs_scored".to_string(),
            num(self.kernel.docs_scored as f64),
        );
        kernel.insert(
            "candidates_pruned".to_string(),
            num(self.kernel.candidates_pruned as f64),
        );
        kernel.insert(
            "scratch_fallbacks".to_string(),
            num(self.kernel.scratch_fallbacks as f64),
        );
        let mut batch = BTreeMap::new();
        batch.insert("batches".to_string(), num(self.batch.batches as f64));
        batch.insert(
            "batched_jobs".to_string(),
            num(self.batch.batched_jobs as f64),
        );
        batch.insert("max_batch".to_string(), num(self.batch.max_batch as f64));
        batch.insert("mean_batch".to_string(), num(self.batch.mean_batch()));
        let mut single_flight = BTreeMap::new();
        single_flight.insert(
            "leaders".to_string(),
            num(self.single_flight.leaders as f64),
        );
        single_flight.insert(
            "waiters".to_string(),
            num(self.single_flight.waiters as f64),
        );
        single_flight.insert(
            "collapse_rate".to_string(),
            num(self.single_flight.collapse_rate()),
        );
        let mut resilience = BTreeMap::new();
        resilience.insert("retries".to_string(), num(self.retries as f64));
        resilience.insert("served_stale".to_string(), num(self.served_stale as f64));
        resilience.insert(
            "served_degraded".to_string(),
            num(self.served_degraded as f64),
        );
        resilience.insert(
            "engine_failures".to_string(),
            num(self.engine_failures as f64),
        );
        resilience.insert(
            "breaker_rejections".to_string(),
            num(self.breaker_rejections as f64),
        );
        resilience.insert("failed".to_string(), num(self.failed as f64));
        resilience.insert("refreshes".to_string(), num(self.refreshes as f64));
        resilience.insert("worker_panics".to_string(), num(self.worker_panics as f64));
        let mut root = BTreeMap::new();
        root.insert("elapsed_secs".to_string(), num(self.elapsed_secs));
        root.insert("completed".to_string(), num(self.completed as f64));
        root.insert("overloaded".to_string(), num(self.overloaded as f64));
        root.insert("timed_out".to_string(), num(self.timed_out as f64));
        root.insert(
            "cache_hits_served".to_string(),
            num(self.cache_hits_served as f64),
        );
        root.insert("throughput_rps".to_string(), num(self.throughput_rps));
        root.insert("overall".to_string(), summary_json(&self.overall));
        root.insert("engines".to_string(), Value::Object(engines));
        root.insert("cache".to_string(), Value::Object(cache));
        root.insert("serp_cache".to_string(), Value::Object(serp_cache));
        root.insert("kernel".to_string(), Value::Object(kernel));
        root.insert("batch".to_string(), Value::Object(batch));
        root.insert("single_flight".to_string(), Value::Object(single_flight));
        root.insert("resilience".to_string(), Value::Object(resilience));
        if self.live.events > 0 {
            let mut live = BTreeMap::new();
            live.insert("events".to_string(), num(self.live.events as f64));
            live.insert("flushes".to_string(), num(self.live.flushes as f64));
            live.insert("compactions".to_string(), num(self.live.compactions as f64));
            live.insert("segments".to_string(), num(self.live.segments as f64));
            live.insert(
                "memtable_docs".to_string(),
                num(self.live.memtable_docs as f64),
            );
            live.insert("live_docs".to_string(), num(self.live.live_docs as f64));
            root.insert("live".to_string(), Value::Object(live));
        }
        root.insert(
            "histogram_counts".to_string(),
            Value::Array(
                self.histogram
                    .counts()
                    .iter()
                    .map(|&c| num(c as f64))
                    .collect(),
            ),
        );
        Value::Object(root)
    }

    /// `to_json` serialized to a string.
    pub fn to_json_string(&self) -> String {
        json_to_string(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HISTOGRAM_BINS, HISTOGRAM_MAX_MS};
    use shift_metrics::LogHistogram;

    fn summary(ms: &[u64]) -> EngineLatencySummary {
        let latency_ns = LogHistogram::new();
        for &v in ms {
            latency_ns.record(v * 1_000_000);
        }
        EngineLatencySummary::from_histogram(&latency_ns)
    }

    fn snapshot() -> MetricsSnapshot {
        let mut histogram = Histogram::new(0.0, HISTOGRAM_MAX_MS, HISTOGRAM_BINS);
        histogram.record(3.0);
        histogram.record(7.0);
        MetricsSnapshot {
            elapsed_secs: 1.5,
            completed: 2,
            overloaded: 1,
            timed_out: 0,
            cache_hits_served: 1,
            retries: 3,
            served_stale: 1,
            served_degraded: 2,
            engine_failures: 4,
            breaker_rejections: 1,
            failed: 1,
            refreshes: 1,
            worker_panics: 0,
            throughput_rps: 2.0 / 1.5,
            overall: summary(&[3, 7]),
            engines: EngineKind::ALL
                .iter()
                .map(|&kind| EngineLatency {
                    kind,
                    summary: summary(&[5]),
                })
                .collect(),
            histogram,
            cache: CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                expirations: 0,
                inserts: 1,
                stale_hits: 1,
            },
            serp_cache: SerpCacheStats {
                hits: 6,
                misses: 4,
                inserts: 4,
                evictions: 2,
            },
            kernel: KernelStats {
                docs_scored: 1234,
                candidates_pruned: 567,
                scratch_fallbacks: 0,
            },
            batch: BatchServeStats {
                batches: 4,
                batched_jobs: 10,
                max_batch: 5,
            },
            single_flight: SingleFlightStats {
                leaders: 3,
                waiters: 9,
            },
            live: LiveServeStats {
                events: 90,
                flushes: 4,
                compactions: 1,
                segments: 3,
                memtable_docs: 12,
                live_docs: 80,
            },
        }
    }

    #[test]
    fn render_mentions_every_engine() {
        let text = snapshot().render();
        for kind in EngineKind::ALL {
            assert!(text.contains(kind.name()), "missing {}", kind.name());
        }
        assert!(text.contains("p99 ms"));
        assert!(text.contains("hit rate 50.0%"));
    }

    #[test]
    fn json_round_trips() {
        let json = snapshot().to_json_string();
        let parsed = shift_freshness::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("completed"),
            Some(&Value::Number(2.0)),
            "completed survives the round trip"
        );
        assert!(parsed.get("engines").and_then(|e| e.get("gpt4o")).is_some());
        assert!(parsed
            .get("cache")
            .and_then(|c| c.get("hit_rate"))
            .is_some());
        assert_eq!(
            parsed.get("resilience").and_then(|r| r.get("retries")),
            Some(&Value::Number(3.0)),
            "resilience counters survive the round trip"
        );
        assert!(parsed
            .get("cache")
            .and_then(|c| c.get("stale_hits"))
            .is_some());
        assert_eq!(
            parsed.get("serp_cache").and_then(|c| c.get("hit_rate")),
            Some(&Value::Number(0.6)),
            "serp cache counters survive the round trip"
        );
        assert_eq!(
            parsed.get("kernel").and_then(|k| k.get("docs_scored")),
            Some(&Value::Number(1234.0)),
            "kernel counters survive the round trip"
        );
        assert_eq!(
            parsed
                .get("kernel")
                .and_then(|k| k.get("scratch_fallbacks")),
            Some(&Value::Number(0.0)),
            "scratch fallbacks survive the round trip"
        );
        assert_eq!(
            parsed.get("batch").and_then(|b| b.get("mean_batch")),
            Some(&Value::Number(2.5)),
            "batch counters survive the round trip"
        );
        assert_eq!(
            parsed
                .get("single_flight")
                .and_then(|s| s.get("collapse_rate")),
            Some(&Value::Number(0.75)),
            "single-flight counters survive the round trip"
        );
        assert_eq!(
            parsed.get("live").and_then(|l| l.get("flushes")),
            Some(&Value::Number(4.0)),
            "live-index counters survive the round trip"
        );
    }

    #[test]
    fn live_section_is_omitted_without_events() {
        let mut snap = snapshot();
        snap.live = LiveServeStats::default();
        let json = snap.to_json_string();
        let parsed = shift_freshness::json::parse(&json).expect("valid JSON");
        assert!(
            parsed.get("live").is_none(),
            "no live section without live events"
        );
        assert!(!snap.render().contains("live index"));
    }

    #[test]
    fn render_mentions_resilience() {
        let text = snapshot().render();
        assert!(text.contains("retries"));
        assert!(text.contains("degraded"));
    }
}
