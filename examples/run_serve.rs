//! Run the online answer service under a seeded mixed workload — cold and
//! warm passes plus a chaos experiment — and print the serving report
//! (plus `BENCH_serve.json`).
//!
//! ```sh
//! cargo run --release --example run_serve             # full run, rewrites BENCH_serve.json
//! cargo run --release --example run_serve -- --chaos  # chaos smoke + availability gate
//! cargo run --release --example run_serve -- --alloc  # allocation-count gate
//! ```
//!
//! The full run does two passes of the same 4-worker, 5-persona, Zipfian
//! closed-loop workload: the first starts with an empty answer cache, the
//! second replays the identical request sequence against the warmed
//! cache. The warm pass must show a strictly higher cache hit rate and a
//! lower p50 — that is the whole point of caching generative answers.
//! Then the chaos harness replays the workload under the committed
//! standard fault plan, resilience on vs. off; the resilient run must be
//! at least twice as available.
//!
//! Last, it counts allocations: what one answer-cache hit allocates on
//! the client thread, what computing one cold answer allocates (the
//! engine work of a miss), what one cold `AnswerService::answer`
//! allocates (that work plus key, cache insert and metrics, all on the
//! calling thread), and what one `SearchIndex::build` of the world
//! allocates. These are exact work
//! counts, written to the `alloc` section; unlike the timings they do
//! not move with the host's speed.
//!
//! `--chaos` runs only the chaos experiment and gates it against the
//! committed `BENCH_serve.json`: if availability-with-resilience drops
//! below the recorded number, or no number is recorded, the process
//! exits non-zero.
//!
//! `--alloc` recomputes only the `alloc` section and gates it against
//! the committed one: the counts are deterministic, so the process exits
//! non-zero if any of them exceeds its committed value at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use navigating_shift::corpus::{World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::freshness::json::{parse as json_parse, to_string as json_to_string, Value};
use navigating_shift::search::SearchIndex;
use navigating_shift::serve::{
    run_chaos, run_load, AnswerService, ChaosConfig, ChaosReport, FaultPlan, LoadConfig, LoadMode,
    MetricsSnapshot, Request, ServeConfig, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts this thread's allocations and requested bytes, then defers to
/// the system allocator.
struct Counting;

thread_local! {
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counting beside it never
// allocates: the thread-local is `const`-initialised and has no
// destructor, so reaching it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns the allocations and bytes it made on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (n0, b0) = COUNT.with(Cell::get);
    f();
    let (n1, b1) = COUNT.with(Cell::get);
    (n1 - n0, b1 - b0)
}

const WORLD_SEED: u64 = 20251101;
const WORKLOAD_SEED: u64 = 77;
const LOAD_SEED: u64 = 4242;
const REQUESTS: u64 = 1500;
const WORKERS: usize = 4;
/// Epoch of the committed standard fault plan; the chaos numbers in
/// `BENCH_serve.json` are pinned to this fault stream.
const CHAOS_EPOCH: u64 = 1;

fn drive(service: &AnswerService, workload: &Workload, label: &str) -> MetricsSnapshot {
    let config = LoadConfig {
        requests: REQUESTS,
        engines: EngineKind::ALL.to_vec(),
        top_k: 10,
        mode: LoadMode::Closed { clients: WORKERS },
        seed: LOAD_SEED,
    };
    let outcome = run_load(service, workload, &config);
    let snapshot = service.snapshot();
    println!(
        "[{label}] {} ok / {} overloaded / {} timed-out / {} failed\n",
        outcome.succeeded,
        outcome.overloaded,
        outcome.timed_out,
        outcome.total() - outcome.succeeded - outcome.overloaded - outcome.timed_out,
    );
    println!("{}", snapshot.render());
    snapshot
}

fn run_chaos_experiment(stack: &Arc<AnswerEngines>) -> (ChaosConfig, ChaosReport) {
    let config = ChaosConfig::standard(FaultPlan::standard(CHAOS_EPOCH));
    let report = run_chaos(stack, &config);
    println!("{}", report.render());
    assert!(
        report.ratio() >= 2.0,
        "resilience must at least double availability under the standard plan, got {:.2}x",
        report.ratio()
    );
    (config, report)
}

fn chaos_json(config: &ChaosConfig, report: &ChaosReport) -> Value {
    fn num(v: f64) -> Value {
        Value::Number(v)
    }
    let mut plan = BTreeMap::new();
    plan.insert("epoch".to_string(), num(config.plan.epoch as f64));
    plan.insert(
        "transient_rate".to_string(),
        num(config.plan.transient_rate),
    );
    plan.insert(
        "truncated_rate".to_string(),
        num(config.plan.truncated_rate),
    );
    plan.insert("spike_rate".to_string(), num(config.plan.spike_rate));
    plan.insert("outages".to_string(), num(config.plan.outages.len() as f64));
    let mut chaos = BTreeMap::new();
    chaos.insert("requests".to_string(), num(report.requests as f64));
    chaos.insert(
        "availability_resilient".to_string(),
        num(report.availability_resilient()),
    );
    chaos.insert(
        "availability_baseline".to_string(),
        num(report.availability_baseline()),
    );
    chaos.insert("ratio".to_string(), num(report.ratio()));
    chaos.insert(
        "served_stale".to_string(),
        num(report.resilient.served_stale as f64),
    );
    chaos.insert(
        "served_degraded".to_string(),
        num(report.resilient.served_degraded as f64),
    );
    chaos.insert("plan".to_string(), Value::Object(plan));
    Value::Object(chaos)
}

/// Draws of the workload whose distinct requests the `alloc` section
/// is measured over.
const ALLOC_DRAWS: u64 = 500;

/// The `alloc` section, measured on fresh stacks and a fresh service so
/// it leaves the snapshot above untouched: `per_miss`, `per_served_miss`
/// and `per_hit` are mean allocations over the distinct requests of
/// [`ALLOC_DRAWS`] workload draws, each first computed cold on one stack,
/// then served cold by a service over a second stack (whose SERP cache
/// is as cold as the first's was), then served as a hit;
/// `per_index_build` is one `SearchIndex::build` of the world.
fn alloc_json(workload: &Workload) -> Value {
    let mut rng = StdRng::seed_from_u64(LOAD_SEED);
    let mut seen = HashSet::new();
    let requests: Vec<Request> = (0..ALLOC_DRAWS)
        .map(|i| workload.request_at(&mut rng, i, &EngineKind::ALL, 10))
        .filter(|r| seen.insert((r.engine, r.query.clone())))
        .collect();
    let n = requests.len() as f64;
    let world = Arc::new(World::generate(&WorldConfig::small(), WORLD_SEED));
    let (build, build_bytes) = counted(|| drop(SearchIndex::build(&world)));
    let engines = Arc::new(AnswerEngines::build(Arc::clone(&world)));

    let (mut miss, mut miss_bytes) = (0, 0);
    for r in &requests {
        let (allocs, bytes) = counted(|| drop(engines.answer(r.engine, &r.query, r.top_k, r.seed)));
        miss += allocs;
        miss_bytes += bytes;
    }
    let service = AnswerService::start(
        Arc::new(AnswerEngines::build(world)),
        ServeConfig::with_workers(WORKERS),
    );
    let mut served_miss = 0;
    for r in &requests {
        let r = r.clone();
        let (allocs, _) = counted(|| {
            let served = service.answer(r).expect("cold answer");
            assert!(!served.from_cache, "a first request must miss the cache");
        });
        served_miss += allocs;
    }
    let (mut hit, mut hit_bytes) = (0, 0);
    for r in &requests {
        let r = r.clone();
        let (allocs, bytes) = counted(|| {
            let served = service.answer(r).expect("cached answer");
            assert!(served.from_cache, "a warmed request must hit the cache");
        });
        hit += allocs;
        hit_bytes += bytes;
    }
    service.shutdown();
    println!(
        "alloc: {} distinct requests; {:.1} allocations per miss ({:.0} B), {:.1} per served miss, \
         {:.1} per hit ({:.0} B); {build} per index build ({build_bytes} B)",
        requests.len(),
        miss as f64 / n,
        miss_bytes as f64 / n,
        served_miss as f64 / n,
        hit as f64 / n,
        hit_bytes as f64 / n,
    );
    let alloc = [
        ("per_miss", miss as f64 / n),
        ("bytes_per_miss", miss_bytes as f64 / n),
        ("per_served_miss", served_miss as f64 / n),
        ("per_hit", hit as f64 / n),
        ("bytes_per_hit", hit_bytes as f64 / n),
        ("per_index_build", build as f64),
        ("bytes_per_index_build", build_bytes as f64),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_string(), Value::Number(value)))
    .collect();
    Value::Object(alloc)
}

/// Keys of the `alloc` section [`gate_alloc`] holds to the committed
/// values.
const ALLOC_KEYS: [&str; 7] = [
    "per_hit",
    "bytes_per_hit",
    "per_miss",
    "bytes_per_miss",
    "per_served_miss",
    "per_index_build",
    "bytes_per_index_build",
];

/// Alloc gate mode: recompute the `alloc` section and fail if any count
/// exceeds the committed one. The counts are exact and deterministic, so
/// there is no tolerance: any rise is a real regression.
fn gate_alloc(workload: &Workload) {
    let committed = std::fs::read_to_string("BENCH_serve.json").expect("read BENCH_serve.json");
    let parsed = json_parse(&committed).expect("BENCH_serve.json parses");
    let measured = alloc_json(workload);
    let mut failed = false;
    println!(
        "{:<22} {:>12} {:>12}  verdict",
        "alloc", "measured", "committed"
    );
    for key in ALLOC_KEYS {
        let fresh = match measured.get(key) {
            Some(&Value::Number(v)) => v,
            _ => unreachable!("alloc_json writes every gated key"),
        };
        let recorded = match parsed.get("alloc").and_then(|a| a.get(key)) {
            Some(&Value::Number(v)) => v,
            _ => {
                println!("{key:<22} {fresh:>12.1} {:>12}  FAIL (not committed)", "-");
                failed = true;
                continue;
            }
        };
        let ok = fresh <= recorded;
        failed |= !ok;
        println!(
            "{key:<22} {fresh:>12.1} {recorded:>12.1}  {}",
            if ok { "ok" } else { "FAIL" }
        );
    }
    println!("measured alloc section: {}", json_to_string(&measured));
    if failed {
        eprintln!("alloc gate: an allocation count rose above committed BENCH_serve.json");
        std::process::exit(1);
    }
    println!("alloc gate: OK");
}

/// Gate mode: recompute chaos availability and fail if it dropped below
/// the committed number (the run is deterministic, so any drop is a real
/// regression, not noise — a tiny tolerance absorbs only float printing).
/// A missing file, section or key fails the gate before anything runs.
fn gate_chaos(engines: &Arc<AnswerEngines>) {
    let committed = std::fs::read_to_string("BENCH_serve.json").expect("read BENCH_serve.json");
    let parsed = json_parse(&committed).expect("BENCH_serve.json parses");
    let Some(&Value::Number(recorded)) = parsed
        .get("chaos")
        .and_then(|c| c.get("availability_resilient"))
    else {
        eprintln!("gate: committed BENCH_serve.json has no chaos.availability_resilient");
        std::process::exit(1);
    };
    println!("chaos smoke: standard fault plan (epoch {CHAOS_EPOCH}), resilience on vs off\n");
    let (_config, report) = run_chaos_experiment(engines);
    let measured = report.availability_resilient();
    println!("gate: measured availability_resilient {measured:.6} vs committed {recorded:.6}");
    assert!(
        measured >= recorded - 1e-9,
        "availability with resilience regressed below the committed number: \
         {measured:.6} < {recorded:.6}"
    );
    println!("gate: OK");
}

fn main() {
    let chaos_only = std::env::args().any(|a| a == "--chaos");
    let alloc_only = std::env::args().any(|a| a == "--alloc");
    let world = Arc::new(World::generate(&WorldConfig::small(), WORLD_SEED));
    let engines = Arc::new(AnswerEngines::build(world));

    if chaos_only {
        gate_chaos(&engines);
        return;
    }
    let workload = Workload::mixed(&engines.world_handle(), WORKLOAD_SEED);
    if alloc_only {
        gate_alloc(&workload);
        return;
    }

    println!(
        "serving {REQUESTS} requests x2 over {WORKERS} workers, all 5 personas, \
         world seed {WORLD_SEED}\n"
    );
    println!(
        "workload: {} distinct queries, Zipf(s = {})\n",
        workload.len(),
        Workload::DEFAULT_ZIPF_S
    );

    let service = AnswerService::start(Arc::clone(&engines), ServeConfig::with_workers(WORKERS));
    let cold = drive(&service, &workload, "cold");
    let warm = drive(&service, &workload, "warm");

    let cold_rate = cold.cache.hit_rate();
    let warm_rate = warm.cache.hit_rate();
    let cold_p50 = cold.overall.p50_ms;
    let warm_p50 = warm.overall.p50_ms;
    println!(
        "cold → warm: hit rate {:.1}% → {:.1}%, overall p50 {:.3} ms → {:.3} ms",
        cold_rate * 100.0,
        warm_rate * 100.0,
        cold_p50,
        warm_p50
    );
    assert!(
        warm_rate > cold_rate,
        "warm pass must strictly raise the cache hit rate"
    );
    assert!(
        warm_p50 < cold_p50,
        "warm pass must lower the cumulative overall p50"
    );

    println!("\nchaos: standard fault plan (epoch {CHAOS_EPOCH}), resilience on vs off\n");
    let (chaos_config, chaos_report) = run_chaos_experiment(&engines);

    let final_snapshot = service.shutdown();
    let mut root = match final_snapshot.to_json() {
        Value::Object(map) => map,
        _ => unreachable!("snapshot JSON is an object"),
    };
    root.insert(
        "chaos".to_string(),
        chaos_json(&chaos_config, &chaos_report),
    );
    root.insert("alloc".to_string(), alloc_json(&workload));
    // The churn benchmark (`run_live`) owns the "live" section; carry
    // the committed one over so a serve rerun doesn't drop it.
    if let Ok(committed) = std::fs::read_to_string("BENCH_serve.json") {
        if let Ok(parsed) = json_parse(&committed) {
            if let Some(live) = parsed.get("live").cloned() {
                root.insert("live".to_string(), live);
            }
        }
    }
    let path = "BENCH_serve.json";
    std::fs::write(path, json_to_string(&Value::Object(root)) + "\n")
        .expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}
