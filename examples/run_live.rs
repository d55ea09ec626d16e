//! Churn benchmark for the live index: replay the seeded corpus
//! timeline into a [`LiveIndex`] and report ingest rate, query
//! throughput under concurrent compaction, and the segment-count /
//! read-amplification trajectory — then fold the counters through
//! [`ServiceMetrics`] into the `live` section of `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release --example run_live            # full run, rewrites the live section
//! cargo run --release --example run_live -- --gate  # churn-throughput regression gate
//! ```
//!
//! The full run does the deterministic trajectory **twice** and asserts
//! the operation counters, compaction decisions and trajectory samples
//! are identical — the live index's determinism contract, checked on
//! every run. Then a concurrent phase pits one ingest-and-compact
//! thread against query workers hammering the latest published
//! snapshot, which is where the measured throughput numbers come from.
//!
//! `--gate` remeasures concurrent query throughput and fails if it
//! drops below 80% of the committed number (same regression rule as the
//! kernel gate's throughput rows; timing-sensitive, hence the generous
//! floor), or if no number is committed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use navigating_shift::corpus::{EventKind, Timeline, TimelineConfig, World, WorldConfig};
use navigating_shift::engines::{SerpCacheStats, SingleFlightStats};
use navigating_shift::freshness::json::{parse as json_parse, to_string as json_to_string, Value};
use navigating_shift::search::live::{
    LiveCounters, LiveDoc, LiveIndex, LiveIndexConfig, LiveIndexStats, LiveSearcher,
};
use navigating_shift::search::RankingParams;
use navigating_shift::serve::{CacheStats, ServiceMetrics};

const WORLD_SEED: u64 = 20251101;
const TIMELINE_SEED: u64 = 313;
const LIVE_SEED: u64 = 99;
const QUERY_WORKERS: usize = 4;
/// Events applied per snapshot publication in the concurrent phase.
const SNAPSHOT_EVERY: usize = 400;
/// Trajectory sample count over the deterministic replay.
const TRAJECTORY_SAMPLES: usize = 8;
/// A gated metric may not drop below this fraction of its committed
/// value.
const GATE_FLOOR: f64 = 0.8;

const QUERIES: [&str; 6] = [
    "best laptops for students",
    "best smartphones camera battery",
    "top 10 hotels 2025",
    "review espresso machines",
    "most reliable SUVs",
    "best credit cards",
];

fn config() -> LiveIndexConfig {
    LiveIndexConfig::standard(LIVE_SEED)
}

fn apply(index: &mut LiveIndex, world: &World, events: &Timeline, range: std::ops::Range<usize>) {
    for event in &events.events()[range] {
        match event.kind {
            EventKind::Delete => index.delete(event.page.id),
            EventKind::Publish | EventKind::Update => {
                index.upsert(LiveDoc::from_page(world, &event.page));
            }
        }
    }
}

/// One point on the segment-count / read-amplification trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrajectoryPoint {
    events: u64,
    segments: u64,
    stored_docs: u64,
    alive_docs: u64,
}

impl TrajectoryPoint {
    fn read_amplification(&self) -> f64 {
        if self.alive_docs == 0 {
            0.0
        } else {
            self.stored_docs as f64 / self.alive_docs as f64
        }
    }
}

/// The deterministic replay: apply the whole timeline, sampling the
/// trajectory at fixed event strides. Returns counters, policy
/// decisions, trajectory, final roll-up stats, and pure ingest time
/// (trajectory snapshots excluded).
fn run_trajectory(
    world: &World,
    timeline: &Timeline,
) -> (
    LiveCounters,
    u64,
    Vec<TrajectoryPoint>,
    LiveIndexStats,
    Duration,
) {
    let mut index = LiveIndex::new(config());
    let stride = (timeline.len() / TRAJECTORY_SAMPLES).max(1);
    let mut trajectory = Vec::new();
    let mut ingest = Duration::ZERO;
    let mut at = 0usize;
    while at < timeline.len() {
        let to = (at + stride).min(timeline.len());
        let t0 = Instant::now();
        apply(&mut index, world, timeline, at..to);
        ingest += t0.elapsed();
        let snapshot = index.snapshot();
        trajectory.push(TrajectoryPoint {
            events: to as u64,
            segments: snapshot.segment_count() as u64,
            stored_docs: snapshot.stored_docs() as u64,
            alive_docs: u64::from(snapshot.doc_count()),
        });
        at = to;
    }
    let searcher = LiveSearcher::new(Arc::new(index.snapshot()), RankingParams::google());
    let stats = LiveIndexStats::rollup(&searcher.segment_stats());
    (
        index.counters(),
        index.policy_decisions(),
        trajectory,
        stats,
        ingest,
    )
}

/// The concurrent phase: one ingest thread replays the timeline,
/// publishing a fresh snapshot searcher every [`SNAPSHOT_EVERY`] events
/// (flushes and compactions run inline on this thread), while
/// [`QUERY_WORKERS`] workers query whatever snapshot is current.
/// Counters flow into `metrics`; returns (queries served, query
/// seconds, ingest seconds, final counters).
fn run_concurrent(
    world: &World,
    timeline: &Timeline,
    metrics: &ServiceMetrics,
) -> (u64, f64, f64, LiveCounters) {
    let params = RankingParams::ai_retrieval();
    let empty = LiveIndex::new(config());
    let current: Mutex<Arc<LiveSearcher>> = Mutex::new(Arc::new(LiveSearcher::new(
        Arc::new(empty.snapshot()),
        params.clone(),
    )));
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (current, done) = (&current, &done);
    let (queries, ingest_secs, counters) = std::thread::scope(|scope| {
        let ingest_handle = scope.spawn(|| {
            let mut index = LiveIndex::new(config());
            let mut at = 0usize;
            let mut last = LiveCounters::default();
            let t0 = Instant::now();
            while at < timeline.len() {
                let to = (at + SNAPSHOT_EVERY).min(timeline.len());
                apply(&mut index, world, timeline, at..to);
                let now = index.counters();
                metrics.record_live_events(now.applied - last.applied);
                metrics.record_live_flushes(now.flushes - last.flushes);
                metrics.record_live_compactions(now.compactions - last.compactions);
                last = now;
                let snapshot = Arc::new(index.snapshot());
                metrics.set_live_shape(
                    snapshot.segment_count() as u64,
                    index.memtable().len() as u64,
                    u64::from(snapshot.doc_count()),
                );
                *current.lock().expect("publish lock") =
                    Arc::new(LiveSearcher::new(snapshot, params.clone()));
                at = to;
            }
            let elapsed = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            (elapsed, index.counters())
        });
        let worker_handles: Vec<_> = (0..QUERY_WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut served = 0u64;
                    let mut i = w;
                    while !done.load(Ordering::Acquire) {
                        let searcher = current.lock().expect("read lock").clone();
                        let serp = searcher.search(QUERIES[i % QUERIES.len()], 10);
                        let _ = serp.results.len();
                        served += 1;
                        i += 1;
                    }
                    served
                })
            })
            .collect();
        let (ingest_secs, counters) = ingest_handle.join().expect("ingest thread");
        let queries: u64 = worker_handles
            .into_iter()
            .map(|h| h.join().expect("query worker"))
            .sum();
        (queries, ingest_secs, counters)
    });
    (
        queries,
        started.elapsed().as_secs_f64(),
        ingest_secs,
        counters,
    )
}

/// `--gate`: remeasure concurrent query throughput and compare against
/// the committed `live.measured.query_qps`. A missing file, section or
/// key fails the gate.
fn gate_against_committed(world: &World, timeline: &Timeline) {
    let committed = std::fs::read_to_string("BENCH_serve.json").expect("read BENCH_serve.json");
    let parsed = json_parse(&committed).expect("BENCH_serve.json parses");
    let Some(&Value::Number(recorded)) = parsed
        .get("live")
        .and_then(|l| l.get("measured"))
        .and_then(|m| m.get("query_qps"))
    else {
        eprintln!("gate: committed BENCH_serve.json has no live.measured.query_qps");
        std::process::exit(1);
    };
    let metrics = ServiceMetrics::new();
    let (queries, elapsed, _, counters) = run_concurrent(world, timeline, &metrics);
    let measured = queries as f64 / elapsed;
    println!(
        "gate: {} queries in {:.2}s under {} events of churn \
         ({} flushes, {} compactions)",
        queries, elapsed, counters.applied, counters.flushes, counters.compactions,
    );
    println!(
        "gate: measured query_qps {:.1} vs committed {:.1} (floor {:.0}%)",
        measured,
        recorded,
        100.0 * GATE_FLOOR
    );
    assert!(
        measured >= recorded * GATE_FLOOR,
        "churn query throughput regressed below {:.0}% of the committed number: \
         {measured:.1} < {:.1}",
        100.0 * GATE_FLOOR,
        recorded * GATE_FLOOR,
    );
    println!("gate: OK");
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn counters_json(counters: &LiveCounters, decisions: u64) -> Value {
    let mut m = BTreeMap::new();
    m.insert("applied".to_string(), num(counters.applied as f64));
    m.insert("upserts".to_string(), num(counters.upserts as f64));
    m.insert("deletes".to_string(), num(counters.deletes as f64));
    m.insert("flushes".to_string(), num(counters.flushes as f64));
    m.insert("compactions".to_string(), num(counters.compactions as f64));
    m.insert(
        "segments_merged".to_string(),
        num(counters.segments_merged as f64),
    );
    m.insert("policy_decisions".to_string(), num(decisions as f64));
    Value::Object(m)
}

fn main() {
    let gate_only = std::env::args().any(|a| a == "--gate");
    let world = World::generate(&WorldConfig::small(), WORLD_SEED);
    let timeline = Timeline::generate(&world, &TimelineConfig::standard(), TIMELINE_SEED);
    println!(
        "timeline: {} events over a {}-day churn window (seed {TIMELINE_SEED})\n",
        timeline.len(),
        TimelineConfig::standard().churn_days,
    );

    if gate_only {
        gate_against_committed(&world, &timeline);
        return;
    }

    // Phase 1: deterministic trajectory, twice — the determinism
    // contract is part of the benchmark.
    let (counters, decisions, trajectory, stats, ingest) = run_trajectory(&world, &timeline);
    let (counters2, decisions2, trajectory2, _, _) = run_trajectory(&world, &timeline);
    assert_eq!(counters, counters2, "same-seed runs must agree on counters");
    assert_eq!(decisions, decisions2);
    assert_eq!(trajectory, trajectory2, "trajectories must be identical");
    let ingest_eps = counters.applied as f64 / ingest.as_secs_f64();
    println!(
        "deterministic replay x2: {} events ({} upserts, {} deletes) → \
         {} flushes, {} compactions ({} runs merged), identical both runs",
        counters.applied,
        counters.upserts,
        counters.deletes,
        counters.flushes,
        counters.compactions,
        counters.segments_merged,
    );
    println!(
        "ingest: {:.0} events/s (replay only, snapshots excluded)",
        ingest_eps
    );
    println!("\ntrajectory (events → segments, read amplification):");
    for p in &trajectory {
        println!(
            "  {:>6} → {:>2} segments, {:>5} stored / {:>5} alive ({:.3}x)",
            p.events,
            p.segments,
            p.stored_docs,
            p.alive_docs,
            p.read_amplification(),
        );
    }
    println!(
        "\nfinal index: {} segments, {} stored / {} alive docs ({:.3}x read amplification), \
         {} tombstones",
        stats.segments,
        stats.docs,
        stats.alive,
        stats.read_amplification(),
        stats.tombstones,
    );

    // Phase 2: query throughput under concurrent ingest + compaction,
    // counters folded through ServiceMetrics.
    let metrics = ServiceMetrics::new();
    let (queries, elapsed, ingest_secs, live_counters) =
        run_concurrent(&world, &timeline, &metrics);
    assert_eq!(
        live_counters, counters,
        "concurrent replay must apply the identical event stream"
    );
    let query_qps = queries as f64 / elapsed;
    println!(
        "\nconcurrent: {} queries over {} workers in {:.2}s ({:.1} q/s) \
         while ingesting for {:.2}s",
        queries, QUERY_WORKERS, elapsed, query_qps, ingest_secs,
    );
    let snapshot = metrics.snapshot(
        CacheStats::default(),
        SerpCacheStats::default(),
        SingleFlightStats::default(),
    );
    println!("\n{}", snapshot.render());

    // Emit the live section into BENCH_serve.json, preserving whatever
    // else (run_serve's sections) is committed.
    let mut live = match snapshot.to_json().get("live").cloned() {
        Some(Value::Object(m)) => m,
        _ => unreachable!("live events were recorded"),
    };
    live.insert("counters".to_string(), counters_json(&counters, decisions));
    live.insert(
        "trajectory".to_string(),
        Value::Array(
            trajectory
                .iter()
                .map(|p| {
                    let mut m = BTreeMap::new();
                    m.insert("events".to_string(), num(p.events as f64));
                    m.insert("segments".to_string(), num(p.segments as f64));
                    m.insert(
                        "read_amplification".to_string(),
                        num(p.read_amplification()),
                    );
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    let mut index = BTreeMap::new();
    index.insert("segments".to_string(), num(stats.segments as f64));
    index.insert("stored_docs".to_string(), num(stats.docs as f64));
    index.insert("alive_docs".to_string(), num(stats.alive as f64));
    index.insert("tombstones".to_string(), num(stats.tombstones as f64));
    index.insert(
        "read_amplification".to_string(),
        num(stats.read_amplification()),
    );
    live.insert("index".to_string(), Value::Object(index));
    let mut measured = BTreeMap::new();
    measured.insert("ingest_eps".to_string(), num(ingest_eps));
    measured.insert("query_qps".to_string(), num(query_qps));
    measured.insert("queries".to_string(), num(queries as f64));
    live.insert("measured".to_string(), Value::Object(measured));

    let mut root = match std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|text| json_parse(&text).ok())
    {
        Some(Value::Object(m)) => m,
        _ => BTreeMap::new(),
    };
    root.insert("live".to_string(), Value::Object(live));
    let path = "BENCH_serve.json";
    std::fs::write(path, json_to_string(&Value::Object(root)) + "\n")
        .expect("write BENCH_serve.json");
    println!("wrote {path}");
}
