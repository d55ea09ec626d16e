//! Retrieval-kernel gate table behind `BENCH_search.json`.
//!
//! ```sh
//! cargo run --release --example search_kernel -- --quick  # the harness on the small world, nothing gated
//! cargo run --release --example search_kernel -- --gate   # gate table vs committed BENCH_search.json
//! cargo run --release --example search_kernel             # remeasure, rewrite BENCH_search.json
//! ```
//!
//! Every mode measures the same rows. Before anything is timed the
//! measured kernels are checked on a sample of the very queries they are
//! timed on: the pruned kernel against its exhaustive pass and against
//! the frozen term-at-a-time reference scorer, batched execution against
//! per-query execution (with no fallback scratch allocated), and the
//! compressed layout against the raw one, each in URLs and score bits.
//! The randomized differential suites (`crates/search/tests/differential_*`)
//! cover the kernel on generated queries; these checks keep a wrong kernel
//! from ever being timed.
//!
//! `--gate` measures the table at paper scale and 100× and checks each
//! row against the committed value:
//!
//! * paper-scale pruned, 100× batched and 100× compressed throughput may
//!   not fall below 80% of committed;
//! * the 100× compressed/raw byte ratio may not rise above 110%;
//! * the kernel's work counts (documents scored and candidates pruned in
//!   one default-path pass of the 1,000 queries, at paper scale and at
//!   100×) and the paper index's estimated heap bytes are deterministic,
//!   so they are gated exactly: scored documents and bytes may not rise
//!   at all, pruned candidates may not fall at all.
//!
//! The table is printed whole before the gate passes or fails. A row
//! whose committed value is missing fails.
//!
//! With no flag the same rows are measured and `BENCH_search.json` is
//! rewritten with exactly the gated keys.
//!
//! `--quick` runs the whole harness in well under a second on the small
//! world with 100 queries: it measures the table twice, checks that every
//! untimed row is identical across the two passes (the premise of the
//! exact rows), and reads back the file the writer would write, checking
//! that the gate finds every row's key with the value just measured.

use std::hint::black_box;
use std::time::Instant;

use navigating_shift::corpus::{World, WorldConfig};
use navigating_shift::freshness::json::{parse as json_parse, Value};
use navigating_shift::queries::ranking_queries;
use navigating_shift::search::query::reference;
use navigating_shift::search::{
    scratch_fallbacks, EvalMode, KernelStats, QueryScratch, RankingParams, SearchEngine, Serp,
};

/// The seed behind the committed EXPERIMENTS.md numbers.
const STUDY_SEED: u64 = 20251101;
/// SERP depth of every measured query.
const K: usize = 10;
/// Ranking queries per measured pass.
const QUERIES: usize = 1000;
/// Queries per `BatchExecutor` run: the whole query set, the best size in
/// every batch sweep measured so far. Written to the file as a record of
/// what was timed; never read back.
const BATCH: usize = 1000;
/// Queries checked against another path before anything is timed.
const CHECKED: usize = 40;
/// A throughput row fails below this fraction of its committed value.
const QPS_FLOOR: f64 = 0.8;
/// The byte-ratio row fails above this multiple of its committed value.
const RATIO_CEIL: f64 = 1.1;
/// Exact rows: any move in the worse direction fails.
const EXACT: f64 = 1.0;
const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_search.json");

/// The two worlds one measurement runs on, with the names its labels
/// use, and the number of ranking queries per pass.
struct Scales {
    paper: (&'static str, WorldConfig),
    x100: (&'static str, WorldConfig),
    queries: usize,
}

impl Scales {
    /// What `--gate` and the writer measure.
    fn committed() -> Scales {
        Scales {
            paper: ("paper", WorldConfig::paper()),
            x100: ("100x", WorldConfig::scaled(100)),
            queries: QUERIES,
        }
    }

    /// What `--quick` measures: the small world in both places.
    fn quick() -> Scales {
        Scales {
            paper: ("small", WorldConfig::small()),
            x100: ("small", WorldConfig::small()),
            queries: 100,
        }
    }
}

fn ranking_texts(world: &World, n: usize) -> Vec<String> {
    ranking_queries(world, n, STUDY_SEED)
        .into_iter()
        .map(|q| q.text)
        .collect()
}

/// The stride that picks about `CHECKED` of `n` queries.
fn check_step(n: usize) -> usize {
    (n / CHECKED).max(1)
}

/// Panics unless the two SERPs hold the same URLs with the same score
/// bits.
fn assert_same(a: &Serp, b: &Serp, what: &str) {
    assert_eq!(a.urls(), b.urls(), "{what} diverged on {:?}", a.query);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what} score bits diverged on {:?}",
            a.query
        );
    }
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

/// The kernel counters of one untimed pass over `queries` on the
/// default (`search_with`) path.
fn work_pass(engine: &SearchEngine, scratch: &mut QueryScratch, queries: &[String]) -> KernelStats {
    scratch.take_stats();
    for q in queries {
        black_box(engine.search_with(scratch, q, K));
    }
    scratch.take_stats()
}

/// One gated metric: the fresh measurement, its committed value in
/// `BENCH_search.json`, and the bound on `fresh / committed` — a floor
/// when higher is better, a ceiling when lower is better.
struct GateRow {
    key: &'static str,
    label: String,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    fresh: f64,
    committed: Option<f64>,
}

impl GateRow {
    fn new(
        key: &'static str,
        label: impl Into<String>,
        unit: &'static str,
        lower_is_better: bool,
        bound: f64,
        fresh: f64,
    ) -> GateRow {
        GateRow {
            key,
            label: label.into(),
            unit,
            lower_is_better,
            bound,
            fresh,
            committed: None,
        }
    }

    /// A row gated exactly: deterministic work never moves on the same
    /// code, so any change in the worse direction is a regression.
    fn exact(
        key: &'static str,
        label: impl Into<String>,
        unit: &'static str,
        lower_is_better: bool,
        fresh: u64,
    ) -> GateRow {
        GateRow::new(key, label, unit, lower_is_better, EXACT, fresh as f64)
    }

    /// Throughput rows are timed; every other row is a deterministic
    /// function of the code and the seed.
    fn timed(&self) -> bool {
        self.unit == "q/s"
    }

    /// A missing committed value fails the row.
    fn breached(&self) -> bool {
        let Some(committed) = self.committed else {
            return true;
        };
        let ratio = self.fresh / committed;
        if self.lower_is_better {
            ratio > self.bound
        } else {
            ratio < self.bound
        }
    }
}

/// Renders a value as the committed file holds it: throughput to one
/// decimal, the byte ratio to four, counts as integers.
fn render(unit: &str, v: f64) -> String {
    match unit {
        "q/s" => format!("{v:.1}"),
        "ratio" => format!("{v:.4}"),
        _ => format!("{v:.0}"),
    }
}

/// The two work rows of one default-path pass.
fn work_rows(rows: &mut Vec<GateRow>, keys: [&'static str; 2], scale: &str, work: KernelStats) {
    rows.push(GateRow::exact(
        keys[0],
        format!("{scale} docs scored per pass"),
        "docs",
        true,
        work.docs_scored,
    ));
    rows.push(GateRow::exact(
        keys[1],
        format!("{scale} candidates pruned per pass"),
        "docs",
        false,
        work.candidates_pruned,
    ));
}

/// Measures every gate row.
fn measure(scales: &Scales) -> Vec<GateRow> {
    let mut rows = Vec::new();
    let mut scratch = QueryScratch::new();

    let (name, config) = &scales.paper;
    let world = World::generate(config, STUDY_SEED);
    let engine = SearchEngine::build(&world, RankingParams::google());
    let queries = ranking_texts(&world, scales.queries);
    for q in queries.iter().step_by(check_step(queries.len())) {
        let pruned = engine.search_with(&mut scratch, q, K);
        let exhaustive = engine.search_with_mode(&mut scratch, q, K, EvalMode::Exhaustive);
        assert_same(&pruned, &exhaustive, "pruned kernel");
        assert_same(
            &pruned,
            &reference::search(&engine, q, K),
            "kernel vs reference",
        );
    }
    let work = work_pass(&engine, &mut scratch, &queries);
    let qps = measure_qps(&queries, 3, |q| {
        black_box(engine.search_with(&mut scratch, black_box(q), K));
    });
    rows.push(GateRow::new(
        "paper_pruned_qps",
        format!("{name} pruned kernel"),
        "q/s",
        false,
        QPS_FLOOR,
        qps,
    ));
    work_rows(
        &mut rows,
        ["paper_docs_scored", "paper_candidates_pruned"],
        name,
        work,
    );
    // Read after the passes, so the lazily built static and impact
    // tables are held and counted.
    rows.push(GateRow::exact(
        "paper_index_heap_bytes",
        format!("{name} index heap (estimated)"),
        "B",
        true,
        engine.index().stats().estimated_heap_bytes,
    ));
    drop(engine);

    let (name, config) = &scales.x100;
    let world = World::generate(config, STUDY_SEED);
    let engine = SearchEngine::build(&world, RankingParams::google());
    let queries = ranking_texts(&world, scales.queries);
    work_rows(
        &mut rows,
        ["x100_docs_scored", "x100_candidates_pruned"],
        name,
        work_pass(&engine, &mut scratch, &queries),
    );

    // Batch workers own their scratches, so batched execution must never
    // trip the re-entrancy fallback.
    let fallbacks = scratch_fallbacks();
    let batched = engine.search_batch(&queries, K, EvalMode::Pruned);
    for (q, b) in queries
        .iter()
        .zip(&batched)
        .step_by(check_step(queries.len()))
    {
        assert_same(b, &engine.search(q, K), "batched SERP");
    }
    drop(batched);
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        for chunk in queries.chunks(BATCH) {
            black_box(engine.search_batch(black_box(chunk), K, EvalMode::Pruned));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(
        scratch_fallbacks(),
        fallbacks,
        "batched execution allocated fallback scratches"
    );
    rows.push(GateRow::new(
        "x100_batched_qps",
        format!("{name} batched kernel (batch {BATCH})"),
        "q/s",
        false,
        QPS_FLOOR,
        queries.len() as f64 / best,
    ));

    let compressed = SearchEngine::build_compressed(&world, RankingParams::google());
    for q in queries.iter().step_by(check_step(queries.len())) {
        assert_same(
            &compressed.search_with(&mut scratch, q, K),
            &engine.search(q, K),
            "compressed SERP",
        );
    }
    drop(engine);
    let qps = measure_qps(&queries, 2, |q| {
        black_box(compressed.search_with(&mut scratch, black_box(q), K));
    });
    rows.push(GateRow::new(
        "x100_compressed_qps",
        format!("{name} compressed kernel"),
        "q/s",
        false,
        QPS_FLOOR,
        qps,
    ));
    rows.push(GateRow::new(
        "x100_compressed_ratio",
        format!("{name} compressed/raw bytes"),
        "ratio",
        true,
        RATIO_CEIL,
        compressed.index().stats().ratio(),
    ));
    rows
}

/// Prints every row as one table and returns whether all are within
/// bounds.
fn report(rows: &[GateRow]) -> bool {
    println!(
        "{:<24} {:<36} {:<5} {:<5} {:>6} {:>12} {:>12} {:>8}  verdict",
        "key", "label", "unit", "lower", "bound", "committed", "fresh", "diff%"
    );
    for r in rows {
        let (committed, diff) = match r.committed {
            Some(c) => (
                render(r.unit, c),
                format!("{:+.1}%", 100.0 * (r.fresh / c - 1.0)),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<24} {:<36} {:<5} {:<5} {:>5.0}% {:>12} {:>12} {:>8}  {}",
            r.key,
            r.label,
            r.unit,
            if r.lower_is_better { "yes" } else { "no" },
            100.0 * r.bound,
            committed,
            render(r.unit, r.fresh),
            diff,
            match (r.committed, r.breached()) {
                (None, _) => "not committed",
                (Some(_), true) => "FAILED",
                (Some(_), false) => "ok",
            },
        );
    }
    rows.iter().all(|r| !r.breached())
}

/// The committed value of each row's key, where the file holds one.
fn fill_committed(rows: &mut [GateRow], committed: &Value) {
    for row in rows {
        row.committed = match committed.get(row.key) {
            Some(&Value::Number(v)) => Some(v),
            _ => None,
        };
    }
}

/// The text of `BENCH_search.json` holding `rows`' fresh values.
fn json_text(rows: &[GateRow]) -> String {
    let mut json = format!("{{\"seed\":{STUDY_SEED},\"k\":{K},\"x100_batched_batch\":{BATCH}");
    for r in rows {
        json.push_str(&format!(",\"{}\":{}", r.key, render(r.unit, r.fresh)));
    }
    json.push_str("}\n");
    json
}

/// `--quick`: the harness on the small world, with nothing gated.
fn run_quick() {
    let first = measure(&Scales::quick());
    let second = measure(&Scales::quick());
    for (a, b) in first.iter().zip(&second).filter(|(a, _)| !a.timed()) {
        assert_eq!(
            a.fresh.to_bits(),
            b.fresh.to_bits(),
            "{} moved between two passes on the same code",
            a.key
        );
    }
    let mut rows = first;
    let written = json_parse(&json_text(&rows)).expect("the written file parses");
    fill_committed(&mut rows, &written);
    for r in &rows {
        let committed = r
            .committed
            .unwrap_or_else(|| panic!("{} not read back", r.key));
        assert_eq!(
            render(r.unit, committed),
            render(r.unit, r.fresh),
            "{} read back a different value",
            r.key
        );
    }
    assert!(
        report(&rows),
        "a row breached its bound against its own value"
    );
    println!(
        "quick: {} rows measured twice on the small world; untimed rows identical, \
         every key read back",
        rows.len()
    );
}

/// `--gate`: measures every row and checks it against the committed
/// file.
fn run_gate() {
    let text = std::fs::read_to_string(BENCH_JSON)
        .unwrap_or_else(|e| panic!("gate: cannot read {BENCH_JSON}: {e}"));
    let committed = json_parse(&text).unwrap_or_else(|e| panic!("gate: {BENCH_JSON}: {e:?}"));
    let mut rows = measure(&Scales::committed());
    fill_committed(&mut rows, &committed);
    if !report(&rows) {
        let breached: Vec<&str> = rows
            .iter()
            .filter(|r| r.breached())
            .map(|r| r.key)
            .collect();
        eprintln!(
            "bench gate FAILED: out of bounds or not committed in {BENCH_JSON}: {}",
            breached.join(", ")
        );
        std::process::exit(1);
    }
    println!("bench gate OK: {} rows within bounds", rows.len());
}

/// No flag: measures every row, prints it beside the value it replaces,
/// and rewrites the committed file with exactly the gated keys.
fn run_write() {
    let mut rows = measure(&Scales::committed());
    if let Some(old) = std::fs::read_to_string(BENCH_JSON)
        .ok()
        .and_then(|text| json_parse(&text).ok())
    {
        fill_committed(&mut rows, &old);
    }
    report(&rows);
    std::fs::write(BENCH_JSON, json_text(&rows)).expect("write BENCH_search.json");
    println!("wrote {BENCH_JSON}");
}

fn main() {
    let has_flag = |flag: &str| std::env::args().any(|a| a == flag);
    if has_flag("--quick") {
        run_quick();
    } else if has_flag("--gate") {
        run_gate();
    } else {
        run_write();
    }
}
