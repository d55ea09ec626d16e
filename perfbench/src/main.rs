//! `perfbench`: the repository benchmark. It drives the answer service
//! and the paper study through the public APIs of `shift-core`,
//! `shift-engines` and `shift-serve`, checks their outputs, and prints one
//! JSON line of metrics.
//!
//! ```text
//! perfbench --workload serve_cold|serve_hot --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with a single-thread span replay and prints the
//! per-layer metrics instead (spans go to `perfbench/traces/`). See
//! `perfbench/README.md` for the workloads and what each metric means.

mod inputs;
mod replay;
mod serve;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use shift_freshness::json::{self, Value};
use shift_serve::Request;

/// Set-up samples per run; the median is reported.
pub const MIN_SETUPS: usize = 15;

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("throughput_rps", "req/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 41] = [
    ("corpus.generate_s", "s"),
    ("search.build_s", "s"),
    ("search.kernel_us_p50", "us"),
    ("search.kernel_share", "share"),
    ("search.docs_scored_per_query", "count"),
    ("search.candidates_pruned_per_query", "count"),
    ("search.scratch_fallbacks", "count"),
    ("llm.pretrain_s", "s"),
    ("llm.rank_us_p50", "us"),
    ("llm.rank_calls", "count"),
    ("engines.build_s", "s"),
    ("engines.answer_us_p50.google", "us"),
    ("engines.answer_us_p50.gpt4o", "us"),
    ("engines.answer_us_p50.claude", "us"),
    ("engines.answer_us_p50.gemini", "us"),
    ("engines.answer_us_p50.perplexity", "us"),
    ("engines.snippets_us_p50", "us"),
    ("engines.unattributed_share", "share"),
    ("engines.serp_cache_hit_rate", "share"),
    ("engines.serp_cache_evictions", "count"),
    ("engines.single_flight_waiters", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.cache_evictions", "count"),
    ("serve.batch_mean", "jobs"),
    ("serve.overloaded", "count"),
    ("serve.timed_out", "count"),
    ("serve.failed", "count"),
    ("serve.p99_ms", "ms"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p90_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("core.fig1_s", "s"),
    ("core.fig2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig4_s", "s"),
    ("core.tab1_s", "s"),
    ("core.tab2_s", "s"),
    ("core.tab3_s", "s"),
    ("trace.overhead_share", "share"),
    ("workload.distinct_queries", "count"),
];

/// What a workload measured and checked.
#[derive(Default)]
pub struct Run {
    /// Output checks that failed, one line each.
    pub checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// The workload's requests, for the traced replay.
    pub replay: Vec<Request>,
    /// Requests the replay's service answers before the replay.
    pub warm: Vec<Request>,
}

/// Values recorded in `reference.json`.
pub struct Reference {
    pub study_seed: u64,
    pub study_digest: u64,
    pub open_loop_rps: f64,
}

fn reference() -> Reference {
    let doc = json::parse(include_str!("../reference.json")).expect("reference.json parses");
    let number = |v: Option<&Value>| match v {
        Some(Value::Number(n)) => *n,
        other => panic!("reference.json: expected a number, got {other:?}"),
    };
    let study = doc.get("study_digest").expect("study_digest");
    let open_loop = doc.get("open_loop").expect("open_loop");
    Reference {
        study_seed: number(study.get("seed")) as u64,
        study_digest: u64::from_str_radix(
            study
                .get("fnv1a64")
                .and_then(Value::as_str)
                .expect("fnv1a64"),
            16,
        )
        .expect("fnv1a64 is hex"),
        open_loop_rps: number(open_loop.get("rate_rps")),
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of this process so far, in MiB. Workloads read it
/// after their first pass: later passes rebuild the same stack, and what
/// they add is allocator fragmentation from the repetition.
pub fn peak_rss_mib() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and the pointer is
    // valid for writes for the duration of the call. 0 = RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss as f64 / 1024.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: perfbench --workload serve_cold|serve_hot --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let reference = reference();
    let mut run = match args.workload.as_str() {
        "serve_cold" => {
            let mut run = serve::cold(
                args.seed,
                args.seconds,
                reference.open_loop_rps,
                args.trace,
            );
            study::check(args.seed, &reference, args.trace, &mut run);
            run
        }
        "serve_hot" => serve::hot(args.seed, args.seconds),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace {
        let path: PathBuf = [
            "perfbench",
            "traces",
            &format!("{}-{}.jsonl", args.workload, args.seed),
        ]
        .iter()
        .collect();
        let layers = replay::run(args.seed, &run.replay, &run.warm, &path);
        run.metrics.extend(layers);
        &PER_LAYER
    } else {
        &END_TO_END
    };

    for check in &run.checks {
        eprintln!("check failed: {check}");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A metric the workload does not exercise reads 0; a
            // percentile that lands on a refused request (infinitely
            // slow) reads 1e300.
            let v = run.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 1e300 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.checks.is_empty(),
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
}
