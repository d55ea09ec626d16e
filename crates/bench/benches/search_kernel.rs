//! Retrieval-kernel benchmark: the *pruned* dense kernel (exact pool
//! cut) vs its exhaustive pass vs the frozen term-at-a-time
//! reference scorer, swept over three corpus scales (the paper's
//! ≈2,700-document world, 10×, and 100× via [`WorldConfig::scaled`]), with
//! a batched-execution sweep at every scale. Every scale also builds a
//! *compressed* twin of the
//! same index (delta/bit-packed postings, packed impacts, dictionary
//! metadata), re-checks byte-identity against the raw engine and
//! measures the decode tax; a fourth, compressed-only 1000× tier (~2M
//! documents) reports held bytes against the raw-layout extrapolation.
//!
//! Run with `cargo bench -p shift-bench --bench search_kernel`. The full
//! run re-checks a differential sample at every scale (the batched and
//! compressed SERPs must be byte-identical to the per-query pruned SERP,
//! and the pruned SERP to the reference SERP at paper scale), measures
//! end-to-end top-10 throughput per scale, prints each index's
//! [`IndexStats`] report, writes the per-scale table (with a nested
//! batch-sweep table) into `BENCH_search.json`, and prints the lines
//! recorded in EXPERIMENTS.md §Performance.
//!
//! Two extra modes, both used by `scripts/verify.sh`:
//!
//! * `-- --quick` — smoke check: the same differential pipeline on the
//!   small world with 100 queries, no JSON artifact.
//! * `-- --gate`  — regression gate: measures paper-scale pruned
//!   throughput, 100×-scale batched and *compressed* throughput
//!   (a >20% regression of any fails), and the 100× compressed/raw
//!   byte ratio (fails if it rises >10% above the committed value) — all against the committed `BENCH_search.json`.
//!   Every gated number is one row of a table that is printed whole
//!   before the gate passes or fails.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use shift_bench::STUDY_SEED;
use shift_corpus::{EventKind, Timeline, TimelineConfig, World, WorldConfig};
use shift_metrics::percentile;
use shift_queries::ranking_queries;
use shift_search::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveIndexStats, LiveSearcher};
use shift_search::query::reference;
use shift_search::{EvalMode, QueryScratch, RankingParams, SearchEngine};
use std::hint::black_box;

const K: usize = 10;
/// `--gate` fails when fresh pruned throughput drops below this fraction
/// of the committed number (>20% regression).
const GATE_FLOOR: f64 = 0.8;
/// Workspace-root artifact path (benches run with the package dir as cwd).
const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
/// Batch sizes swept through the [`shift_search::BatchExecutor`] at
/// every scale (clamped to the query count).
const BATCH_SIZES: [usize; 4] = [16, 64, 256, 1000];
/// `--gate` fails when the fresh 100× compressed/raw byte ratio rises
/// above the committed ratio by more than this factor (>10% regression
/// in compression effectiveness).
const RATIO_GATE_CEIL: f64 = 1.1;

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Times `f` over `rounds` passes of the whole query set and returns
/// queries per second (best pass, so background noise can only hurt,
/// never flatter).
fn measure_qps(queries: &[String], rounds: usize, mut f: impl FnMut(&str)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for q in queries {
            f(q);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    queries.len() as f64 / best
}

/// One row of a scale's batched-execution sweep.
struct BatchRow {
    /// Queries per [`shift_search::BatchExecutor`] run.
    batch: usize,
    /// Throughput of chunked batched execution over the whole query set.
    qps: f64,
    /// Relative to per-query execution on the same engine.
    speedup_vs_per_query: f64,
    /// 99th percentile of per-query latency, taken over the batch
    /// chunks of the best-timed pass (each chunk contributes its
    /// elapsed time divided by its size).
    p99_ms: f64,
}

impl BatchRow {
    fn json(&self) -> String {
        format!(
            "{{\"batch\":{},\"qps\":{:.1},\"ms_per_query\":{:.6},\
             \"speedup_vs_per_query\":{:.3},\"p99_ms\":{:.6}}}",
            self.batch,
            self.qps,
            1e3 / self.qps,
            self.speedup_vs_per_query,
            self.p99_ms,
        )
    }
}

/// One row of the scale sweep.
struct ScaleRow {
    scale: &'static str,
    docs: usize,
    queries: usize,
    /// Pruned-kernel throughput (the production path).
    qps: f64,
    /// Exhaustive-pass throughput (the same kernel with no pool cut).
    exhaustive_qps: f64,
    /// Pruned vs exhaustive on the same index — the pruning win itself.
    speedup: f64,
    /// Documents fully scored by the pruned kernel over one query pass.
    docs_scored: u64,
    /// Matching documents the pruned kernel never scored (exhaustive
    /// scores every matching document exactly once, so the difference
    /// of the two counters is exact).
    docs_skipped: u64,
    /// Batched-execution sweep at this scale, in [`BATCH_SIZES`] order.
    batched: Vec<BatchRow>,
    /// Best batched throughput across the sweep.
    batched_qps: f64,
    /// Batch size that achieved [`ScaleRow::batched_qps`].
    batched_best_batch: usize,
    /// Pre-rendered byte-breakdown object from [`shift_search::IndexStats`].
    index_bytes_json: String,
    /// Pre-rendered compressed-layout object: held vs raw bytes, ratio,
    /// and the decode tax (compressed pruned q/s vs the raw engine's).
    compressed_json: String,
    /// Pruned throughput through the compressed read path.
    compressed_qps: f64,
    /// Held-over-raw byte ratio of the compressed index.
    compressed_ratio: f64,
}

impl ScaleRow {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"scale\":\"{}\",\"docs\":{},\"queries\":{},\"k\":{K},\
             \"qps\":{:.1},\"ms_per_query\":{:.6},\"exhaustive_qps\":{:.1},\
             \"speedup\":{:.3},\"docs_scored\":{},\"docs_skipped\":{},\"batched\":[",
            self.scale,
            self.docs,
            self.queries,
            self.qps,
            1e3 / self.qps,
            self.exhaustive_qps,
            self.speedup,
            self.docs_scored,
            self.docs_skipped,
        );
        for (i, row) in self.batched.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&row.json());
        }
        out.push_str("],\"index_bytes\":");
        out.push_str(&self.index_bytes_json);
        out.push_str(",\"compressed\":");
        out.push_str(&self.compressed_json);
        out.push('}');
        out
    }
}

/// Builds one scale's engine, checks byte-identity on a query sample,
/// collects pruning-effectiveness counters, measures both kernel modes,
/// and sweeps the batch executor over [`BATCH_SIZES`].
fn run_scale(
    scale: &'static str,
    config: &WorldConfig,
    n_queries: usize,
    rounds: usize,
) -> (SearchEngine, Vec<String>, ScaleRow) {
    let t = Instant::now();
    let world = World::generate(config, STUDY_SEED);
    let engine = SearchEngine::build(&world, RankingParams::google());
    let docs = engine.index().len();
    println!(
        "[{scale}] {docs} docs, world+index built in {:.2?}",
        t.elapsed()
    );
    println!("{}", engine.index().stats());
    let queries: Vec<String> = ranking_queries(&world, n_queries, STUDY_SEED)
        .into_iter()
        .map(|q| q.text)
        .collect();

    // Differential gate inside the bench: the throughput comparison is
    // only meaningful while both modes return byte-identical SERPs.
    let sample_stride = (queries.len() / 25).max(1);
    for q in queries.iter().step_by(sample_stride) {
        let fast = engine.search(q, K);
        let slow = engine.search_with_mode(&mut QueryScratch::new(), q, K, EvalMode::Exhaustive);
        assert_eq!(fast.urls(), slow.urls(), "pruned kernel diverged on {q:?}");
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "score bits diverged on {q:?}"
            );
        }
    }

    // Pruning-effectiveness counters: one untimed pass per mode. The
    // exhaustive pass scores every matching document exactly once, so
    // its counter is the total matching-set size and the difference is
    // the exact number of documents pruning never touched.
    let mut scratch = QueryScratch::new();
    for q in &queries {
        black_box(engine.search_with_mode(&mut scratch, q, K, EvalMode::Pruned));
    }
    let pruned_stats = scratch.take_stats();
    for q in &queries {
        black_box(engine.search_with_mode(&mut scratch, q, K, EvalMode::Exhaustive));
    }
    let exhaustive_stats = scratch.take_stats();
    assert!(
        exhaustive_stats.docs_scored >= pruned_stats.docs_scored,
        "pruned mode scored more docs than exhaustive"
    );
    let docs_skipped = exhaustive_stats.docs_scored - pruned_stats.docs_scored;

    // Interleave the two modes round-by-round so drifting background
    // load (shared box) hits both equally; best-of-rounds per mode.
    let mut pruned_best = f64::INFINITY;
    let mut exhaustive_best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for q in &queries {
            black_box(engine.search_with(&mut scratch, black_box(q), K));
        }
        pruned_best = pruned_best.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for q in &queries {
            black_box(engine.search_with_mode(&mut scratch, black_box(q), K, EvalMode::Exhaustive));
        }
        exhaustive_best = exhaustive_best.min(start.elapsed().as_secs_f64());
    }
    let qps = queries.len() as f64 / pruned_best;
    let exhaustive_qps = queries.len() as f64 / exhaustive_best;

    // Batched-execution sweep: the same queries streamed through the
    // BatchExecutor in submission-order chunks of each sweep size.
    // Identity is re-checked against the per-query kernel on the sample
    // stride before anything is timed, and the re-entrancy fallback
    // counter must not move — batch workers own their scratches.
    let fallbacks_before = shift_search::scratch_fallbacks();
    let batched_all = engine.search_batch(&queries, K, EvalMode::Pruned);
    for (q, b) in queries.iter().zip(&batched_all).step_by(sample_stride) {
        let per = engine.search(q, K);
        assert_eq!(
            b.urls(),
            per.urls(),
            "[{scale}] batched SERP diverged on {q:?}"
        );
        for (x, y) in b.results.iter().zip(&per.results) {
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "[{scale}] batched score bits diverged on {q:?}"
            );
        }
    }
    drop(batched_all);
    let mut batch_rows: Vec<BatchRow> = Vec::new();
    for &requested in BATCH_SIZES.iter() {
        let size = requested.min(queries.len());
        if batch_rows.iter().any(|r| r.batch == size) {
            continue; // clamping collapsed this size onto a smaller one
        }
        let mut best_total = f64::INFINITY;
        let mut per_query_ms: Vec<f64> = Vec::new();
        for _ in 0..rounds {
            let mut total = 0.0;
            let mut chunk_ms = Vec::new();
            for chunk in queries.chunks(size) {
                let start = Instant::now();
                black_box(engine.search_batch(black_box(chunk), K, EvalMode::Pruned));
                let dt = start.elapsed().as_secs_f64();
                total += dt;
                chunk_ms.push(dt * 1e3 / chunk.len() as f64);
            }
            if total < best_total {
                best_total = total;
                per_query_ms = chunk_ms;
            }
        }
        let batched_qps = queries.len() as f64 / best_total;
        let p99_ms = percentile(&per_query_ms, 99.0);
        println!(
            "[{scale}] batch {size}: {batched_qps:.0} q/s ({:.3} ms/q, p99 {p99_ms:.3} ms/q), \
             {:.2}x vs per-query",
            1e3 / batched_qps,
            batched_qps / qps,
        );
        batch_rows.push(BatchRow {
            batch: size,
            qps: batched_qps,
            speedup_vs_per_query: batched_qps / qps,
            p99_ms,
        });
    }
    assert_eq!(
        shift_search::scratch_fallbacks(),
        fallbacks_before,
        "[{scale}] batched execution allocated fallback scratches"
    );
    let (batched_qps, batched_best_batch) = batch_rows
        .iter()
        .map(|r| (r.qps, r.batch))
        .fold((0.0f64, 0usize), |acc, v| if v.0 > acc.0 { v } else { acc });

    // The compressed companion: the same world through the compressed
    // read path. Byte-identity is re-checked on the sample before the
    // decode tax is timed — the tax number is only meaningful while the
    // packed cursors return bit-identical SERPs.
    let t = Instant::now();
    let compressed_engine = SearchEngine::build_compressed(&world, RankingParams::google());
    println!("[{scale}] compressed index built in {:.2?}", t.elapsed());
    for q in queries.iter().step_by(sample_stride) {
        let packed = compressed_engine.search(q, K);
        let flat = engine.search(q, K);
        assert_eq!(
            packed.urls(),
            flat.urls(),
            "[{scale}] compressed SERP diverged on {q:?}"
        );
        for (a, b) in packed.results.iter().zip(&flat.results) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "[{scale}] compressed score bits diverged on {q:?}"
            );
        }
    }
    let mut compressed_best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for q in &queries {
            black_box(compressed_engine.search_with(&mut scratch, black_box(q), K));
        }
        compressed_best = compressed_best.min(start.elapsed().as_secs_f64());
    }
    let compressed_qps = queries.len() as f64 / compressed_best;

    // Captured after the timed pass so the lazily-built per-params
    // caches (static and packed impact tables) are populated and
    // counted.
    let cstats = compressed_engine.index().stats();
    println!("{cstats}");
    println!(
        "[{scale}] compressed pruned {compressed_qps:.0} q/s vs raw {qps:.0} q/s \
         (decode tax {:+.1}%); {} held bytes vs {} raw ({:.3} ratio)",
        100.0 * (qps / compressed_qps - 1.0),
        cstats.compressed_bytes,
        cstats.raw_bytes,
        cstats.ratio(),
    );
    let compressed_json = format!(
        "{{\"qps\":{compressed_qps:.1},\"ms_per_query\":{:.6},\"decode_tax_pct\":{:.2},\
         \"postings_bytes\":{},\"positions_bytes\":{},\"score_table_bytes\":{},\
         \"doc_meta_bytes\":{},\"estimated_heap_bytes\":{},\"raw_bytes\":{},\
         \"compressed_bytes\":{},\"ratio\":{:.4}}}",
        1e3 / compressed_qps,
        100.0 * (qps / compressed_qps - 1.0),
        cstats.postings_bytes,
        cstats.positions_bytes,
        cstats.score_table_bytes,
        cstats.doc_meta_bytes,
        cstats.estimated_heap_bytes,
        cstats.raw_bytes,
        cstats.compressed_bytes,
        cstats.ratio(),
    );
    drop(compressed_engine);

    // Captured after the timed passes so the lazily-built per-params
    // caches (static and impact tables) are populated and counted.
    let index_stats = engine.index().stats();
    let index_bytes_json = format!(
        "{{\"postings_bytes\":{},\"positions_bytes\":{},\"block_bytes\":{},\
         \"dict_bytes\":{},\"score_table_bytes\":{},\
         \"doc_meta_bytes\":{},\"estimated_heap_bytes\":{}}}",
        index_stats.postings_bytes,
        index_stats.positions_bytes,
        index_stats.block_bytes,
        index_stats.dict_bytes,
        index_stats.score_table_bytes,
        index_stats.doc_meta_bytes,
        index_stats.estimated_heap_bytes,
    );
    let row = ScaleRow {
        scale,
        docs,
        queries: queries.len(),
        qps,
        exhaustive_qps,
        speedup: qps / exhaustive_qps,
        docs_scored: pruned_stats.docs_scored,
        docs_skipped,
        batched: batch_rows,
        batched_qps,
        batched_best_batch,
        index_bytes_json,
        compressed_json,
        compressed_qps,
        compressed_ratio: cstats.ratio(),
    };
    println!(
        "[{scale}] exhaustive {exhaustive_qps:.0} q/s ({:.3} ms/q) → pruned {qps:.0} q/s \
         ({:.3} ms/q), speedup {:.2}x; scored {} docs, skipped {} ({:.1}% of matches)",
        1e3 / exhaustive_qps,
        1e3 / qps,
        row.speedup,
        row.docs_scored,
        row.docs_skipped,
        100.0 * docs_skipped as f64 / exhaustive_stats.docs_scored.max(1) as f64,
    );
    (engine, queries, row)
}

/// The 1000×-scale tier (~2M documents): compressed-only — the point
/// of the compressed layout is that this world stays comfortably in
/// memory where the raw layout would not. No raw twin is built at this
/// scale; byte-identity is checked internally (pruned vs exhaustive on
/// the same compressed index — the small-scale differential suites
/// anchor compressed-vs-raw identity). Reports compressed pruned
/// throughput and held bytes against the raw-layout extrapolation
/// carried by [`shift_search::IndexStats`].
fn run_scale_1000x() -> String {
    let t = Instant::now();
    let world = World::generate(&WorldConfig::scaled(1000), STUDY_SEED);
    println!("[1000x] world generated in {:.2?}", t.elapsed());
    let t = Instant::now();
    let engine = SearchEngine::build_compressed(&world, RankingParams::google());
    let docs = engine.index().len();
    println!(
        "[1000x] {docs} docs, compressed index built in {:.2?}",
        t.elapsed()
    );
    let queries: Vec<String> = ranking_queries(&world, 200, STUDY_SEED)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let sample_stride = (queries.len() / 10).max(1);
    for q in queries.iter().step_by(sample_stride) {
        let fast = engine.search(q, K);
        let slow = engine.search_with_mode(&mut QueryScratch::new(), q, K, EvalMode::Exhaustive);
        assert_eq!(fast.urls(), slow.urls(), "[1000x] pruned diverged on {q:?}");
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "[1000x] score bits diverged on {q:?}"
            );
        }
    }
    let mut scratch = QueryScratch::new();
    let qps = measure_qps(&queries, 2, |q| {
        black_box(engine.search_with(&mut scratch, black_box(q), K));
    });
    let exhaustive_qps = measure_qps(&queries, 1, |q| {
        black_box(engine.search_with_mode(&mut scratch, q, K, EvalMode::Exhaustive));
    });
    let stats = engine.index().stats();
    println!("{stats}");
    println!(
        "[1000x] compressed pruned {qps:.0} q/s, exhaustive {exhaustive_qps:.0} q/s \
         (speedup {:.2}x); {} held bytes vs {} raw extrapolated ({:.3} ratio)",
        qps / exhaustive_qps,
        stats.compressed_bytes,
        stats.raw_bytes,
        stats.ratio(),
    );
    if stats.ratio() > 0.45 {
        eprintln!(
            "WARNING: 1000x compressed/raw ratio {:.3} above the 0.45 acceptance bar",
            stats.ratio()
        );
    }
    format!(
        "{{\"scale\":\"1000x\",\"docs\":{docs},\"queries\":{},\"k\":{K},\
         \"qps\":{qps:.1},\"ms_per_query\":{:.6},\"exhaustive_qps\":{exhaustive_qps:.1},\
         \"speedup\":{:.3},\"postings_bytes\":{},\"positions_bytes\":{},\
         \"score_table_bytes\":{},\"doc_meta_bytes\":{},\"estimated_heap_bytes\":{},\
         \"raw_bytes\":{},\"compressed_bytes\":{},\"ratio\":{:.4}}}",
        queries.len(),
        1e3 / qps,
        qps / exhaustive_qps,
        stats.postings_bytes,
        stats.positions_bytes,
        stats.score_table_bytes,
        stats.doc_meta_bytes,
        stats.estimated_heap_bytes,
        stats.raw_bytes,
        stats.compressed_bytes,
        stats.ratio(),
    )
}

/// Replays the whole seeded corpus timeline into a [`LiveIndex`] and
/// renders the per-segment byte breakdown plus roll-up that sits next
/// to the batch scale rows in `BENCH_search.json` — the live index's
/// storage cost at the end of a full churn run, same seed as the study.
fn live_json() -> String {
    let t = Instant::now();
    let world = World::generate(&WorldConfig::small(), STUDY_SEED);
    let timeline = Timeline::generate(&world, &TimelineConfig::standard(), STUDY_SEED);
    let mut live = LiveIndex::new(LiveIndexConfig::standard(STUDY_SEED));
    for event in timeline.events() {
        match event.kind {
            EventKind::Delete => live.delete(event.page.id),
            EventKind::Publish | EventKind::Update => {
                live.upsert(LiveDoc::from_page(&world, &event.page));
            }
        }
    }
    let counters = live.counters();
    let searcher = LiveSearcher::new(Arc::new(live.snapshot()), RankingParams::google());
    let per_segment = searcher.segment_stats();
    let rollup = LiveIndexStats::rollup(&per_segment);
    println!(
        "[live] {} events → {} segments, {} stored / {} alive docs \
         ({:.3}x read amplification), built in {:.2?}",
        counters.applied,
        rollup.segments,
        rollup.docs,
        rollup.alive,
        rollup.read_amplification(),
        t.elapsed(),
    );
    let mut out = String::from("{\"segments\":[");
    for (i, s) in per_segment.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"segment\":{},\"docs\":{},\"alive\":{},\"tombstones\":{},\
             \"postings_bytes\":{},\"positions_bytes\":{},\"block_bytes\":{},\
             \"dict_bytes\":{},\"impact_bytes\":{},\"raw_bytes\":{},\
             \"compressed_bytes\":{},\"ratio\":{:.4}}}",
            s.segment,
            s.docs,
            s.alive,
            s.tombstones,
            s.postings_bytes,
            s.positions_bytes,
            s.block_bytes,
            s.dict_bytes,
            s.impact_bytes,
            s.raw_bytes,
            s.compressed_bytes,
            s.ratio(),
        )
        .unwrap();
    }
    write!(
        out,
        "],\"rollup\":{{\"segments\":{},\"stored_docs\":{},\"alive_docs\":{},\
         \"tombstones\":{},\"postings_bytes\":{},\"positions_bytes\":{},\
         \"block_bytes\":{},\"dict_bytes\":{},\"impact_bytes\":{},\
         \"raw_bytes\":{},\"compressed_bytes\":{},\"ratio\":{:.4},\
         \"read_amplification\":{:.6}}},\
         \"events\":{},\"flushes\":{},\"compactions\":{}}}",
        rollup.segments,
        rollup.docs,
        rollup.alive,
        rollup.tombstones,
        rollup.postings_bytes,
        rollup.positions_bytes,
        rollup.block_bytes,
        rollup.dict_bytes,
        rollup.impact_bytes,
        rollup.raw_bytes,
        rollup.compressed_bytes,
        rollup.ratio(),
        rollup.read_amplification(),
        counters.applied,
        counters.flushes,
        counters.compactions,
    )
    .unwrap();
    out
}

/// Extracts a numeric field from the flat committed JSON without a JSON
/// dependency (the workspace has none).
fn json_number_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One gated metric of `--gate`: its committed value in
/// `BENCH_search.json`, the fresh measurement, and the bound on
/// `fresh / committed` — a floor when higher is better, a ceiling when
/// lower is better.
struct GateRow {
    key: &'static str,
    label: String,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    committed: f64,
    fresh: f64,
}

impl GateRow {
    /// Builds a row, reading the committed value of `key` from the
    /// committed artifact.
    fn new(
        committed: &str,
        key: &'static str,
        label: String,
        unit: &'static str,
        lower_is_better: bool,
        bound: f64,
        fresh: f64,
    ) -> GateRow {
        let committed = json_number_field(committed, key)
            .unwrap_or_else(|| panic!("gate: no {key} in {BENCH_JSON}"));
        GateRow {
            key,
            label,
            unit,
            lower_is_better,
            bound,
            committed,
            fresh,
        }
    }

    fn diff_pct(&self) -> f64 {
        100.0 * (self.fresh / self.committed - 1.0)
    }

    fn breached(&self) -> bool {
        let ratio = self.fresh / self.committed;
        if self.lower_is_better {
            ratio > self.bound
        } else {
            ratio < self.bound
        }
    }
}

/// Prints every gate row as one table, then fails if any row breached
/// its bound.
fn report_gate(rows: &[GateRow]) {
    println!(
        "{:<22} {:<34} {:<5} {:<6} {:>6} {:>10} {:>10} {:>8}  verdict",
        "key", "label", "unit", "lower", "bound", "committed", "fresh", "diff%"
    );
    for r in rows {
        println!(
            "{:<22} {:<34} {:<5} {:<6} {:>5.0}% {:>10.4} {:>10.4} {:>+7.1}%  {}",
            r.key,
            r.label,
            r.unit,
            if r.lower_is_better { "yes" } else { "no" },
            100.0 * r.bound,
            r.committed,
            r.fresh,
            r.diff_pct(),
            if r.breached() { "FAILED" } else { "ok" },
        );
    }
    let breached: Vec<&str> = rows
        .iter()
        .filter(|r| r.breached())
        .map(|r| r.key)
        .collect();
    assert!(
        breached.is_empty(),
        "bench gate FAILED: out of bounds against {BENCH_JSON}: {}",
        breached.join(", ")
    );
    println!("bench gate OK: {} rows within bounds", rows.len());
}

/// `--gate`: measures paper-scale pruned throughput and, on the 100×
/// world, batched and compressed throughput plus
/// the compressed/raw byte ratio, and checks each against the committed
/// artifact: q/s may not fall below [`GATE_FLOOR`] of committed, the
/// byte ratio may not rise above [`RATIO_GATE_CEIL`] of committed.
fn run_gate() {
    let committed = std::fs::read_to_string(BENCH_JSON)
        .unwrap_or_else(|e| panic!("gate: cannot read {BENCH_JSON}: {e}"));
    let mut rows = Vec::new();

    let world = World::generate(&WorldConfig::paper(), STUDY_SEED);
    let engine = SearchEngine::build(&world, RankingParams::google());
    let queries: Vec<String> = ranking_queries(&world, 1000, STUDY_SEED)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let mut scratch = QueryScratch::new();
    let qps = measure_qps(&queries, 3, |q| {
        black_box(engine.search_with(&mut scratch, black_box(q), K));
    });
    rows.push(GateRow::new(
        &committed,
        "paper_pruned_qps",
        "paper-scale pruned kernel".to_string(),
        "q/s",
        false,
        GATE_FLOOR,
        qps,
    ));

    let world = World::generate(&WorldConfig::scaled(100), STUDY_SEED);
    let engine = SearchEngine::build(&world, RankingParams::google());
    let queries: Vec<String> = ranking_queries(&world, 1000, STUDY_SEED)
        .into_iter()
        .map(|q| q.text)
        .collect();

    // The BatchExecutor at the committed best batch size; batch workers
    // own their scratches, so it must never trip the re-entrancy
    // fallback.
    let batch_size = json_number_field(&committed, "x100_batched_batch")
        .unwrap_or_else(|| panic!("gate: no x100_batched_batch in {BENCH_JSON}"))
        as usize;
    let fallbacks_before = shift_search::scratch_fallbacks();
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        for chunk in queries.chunks(batch_size.max(1)) {
            black_box(engine.search_batch(black_box(chunk), K, EvalMode::Pruned));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(
        shift_search::scratch_fallbacks(),
        fallbacks_before,
        "bench gate FAILED: batched execution allocated fallback scratches"
    );
    rows.push(GateRow::new(
        &committed,
        "x100_batched_qps",
        format!("100x batched kernel (batch {batch_size})"),
        "q/s",
        false,
        GATE_FLOOR,
        queries.len() as f64 / best,
    ));

    // The compressed read path, byte-identity spot-checked against the
    // raw engine before anything is timed.
    let compressed = SearchEngine::build_compressed(&world, RankingParams::google());
    for q in queries.iter().step_by((queries.len() / 25).max(1)) {
        let packed = compressed.search_with(&mut scratch, q, K);
        let raw = engine.search(q, K);
        assert_eq!(
            packed.urls(),
            raw.urls(),
            "gate: compressed SERP diverged on {q:?}"
        );
        for (a, b) in packed.results.iter().zip(&raw.results) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "gate: compressed score bits diverged on {q:?}"
            );
        }
    }
    let qps = measure_qps(&queries, 2, |q| {
        black_box(compressed.search_with(&mut scratch, black_box(q), K));
    });
    rows.push(GateRow::new(
        &committed,
        "x100_compressed_qps",
        "100x compressed kernel".to_string(),
        "q/s",
        false,
        GATE_FLOOR,
        qps,
    ));
    // Captured after the timed passes so the lazily-built static and
    // packed impact tables are populated and counted, matching the
    // full run.
    rows.push(GateRow::new(
        &committed,
        "x100_compressed_ratio",
        "100x compressed/raw bytes".to_string(),
        "ratio",
        true,
        RATIO_GATE_CEIL,
        compressed.index().stats().ratio(),
    ));

    report_gate(&rows);
}

fn bench(c: &mut Criterion) {
    if has_flag("--gate") {
        run_gate();
        return;
    }
    let quick = has_flag("--quick");

    let (engine, queries) = if quick {
        let (engine, queries, _row) = run_scale("small", &WorldConfig::small(), 100, 2);
        // Smoke-check the reference oracle too on a small sample.
        for q in queries.iter().step_by(10) {
            let fast = engine.search(q, K);
            let slow = reference::search(&engine, q, K);
            assert_eq!(fast.urls(), slow.urls(), "kernel diverged on {q:?}");
        }
        (engine, queries)
    } else {
        // The scale sweep: posting lists deepen ~10× per step while the
        // vocabulary stays put, so the pruning win should widen.
        let (engine, queries, paper_row) = run_scale("paper", &WorldConfig::paper(), 1000, 7);
        let (_, _, x10_row) = run_scale("10x", &WorldConfig::scaled(10), 1000, 3);
        let (_, _, x100_row) = run_scale("100x", &WorldConfig::scaled(100), 1000, 2);
        let rows = [&paper_row, &x10_row, &x100_row];
        for row in rows {
            assert!(
                row.docs_skipped > 0,
                "[{}] pruning skipped nothing",
                row.scale
            );
        }
        let x1000_json = run_scale_1000x();

        // The historical comparison kept from PR 2: pruned kernel vs the
        // frozen term-at-a-time reference, paper scale only (the
        // reference is O(total postings) per query and pointless to time
        // at 100×).
        let reference_qps = measure_qps(&queries, 3, |q| {
            black_box(reference::search(&engine, black_box(q), K));
        });
        println!(
            "[paper] reference {reference_qps:.0} q/s → pruned {:.0} q/s, \
             speedup {:.2}x over the reference scorer",
            paper_row.qps,
            paper_row.qps / reference_qps,
        );

        let mut json = String::new();
        write!(
            json,
            "{{\"seed\":{STUDY_SEED},\"k\":{K},\"paper_pruned_qps\":{:.1},\
             \"reference_qps\":{reference_qps:.1},\"reference_speedup\":{:.3},\
             \"x100_batched_qps\":{:.1},\"x100_batched_batch\":{},\
             \"x100_compressed_qps\":{:.1},\"x100_compressed_ratio\":{:.4},\
             \"scales\":[",
            paper_row.qps,
            paper_row.qps / reference_qps,
            x100_row.batched_qps,
            x100_row.batched_best_batch,
            x100_row.compressed_qps,
            x100_row.compressed_ratio,
        )
        .unwrap();
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&row.json());
        }
        json.push_str("],\"scale_1000x\":");
        json.push_str(&x1000_json);
        json.push_str(",\"live\":");
        json.push_str(&live_json());
        json.push_str("}\n");
        std::fs::write(BENCH_JSON, &json).expect("write BENCH_search.json");
        println!("wrote {BENCH_JSON}");
        if paper_row.speedup < 1.3 {
            eprintln!(
                "WARNING: paper-scale pruning speedup {:.2}x below the 1.3x acceptance bar",
                paper_row.speedup
            );
        }
        if x10_row.speedup <= paper_row.speedup {
            eprintln!(
                "WARNING: 10x speedup {:.2}x not above paper-scale {:.2}x",
                x10_row.speedup, paper_row.speedup
            );
        }
        (engine, queries)
    };

    // Per-query latency under the criterion harness, for the record.
    let mut scratch = QueryScratch::new();
    let mut group = c.benchmark_group("search_kernel");
    group.sample_size(10);
    let probe = queries[0].clone();
    group.bench_function("pruned_top10", |b| {
        b.iter(|| black_box(engine.search_with(&mut scratch, black_box(&probe), K)))
    });
    group.bench_function("exhaustive_top10", |b| {
        b.iter(|| {
            black_box(engine.search_with_mode(
                &mut scratch,
                black_box(&probe),
                K,
                EvalMode::Exhaustive,
            ))
        })
    });
    group.bench_function("reference_top10", |b| {
        b.iter(|| black_box(reference::search(&engine, black_box(&probe), K)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
