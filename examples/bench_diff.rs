//! Compare two sets of perfbench runs, parent against change, and print
//! one row per end-to-end metric with a verdict.
//!
//! ```sh
//! cargo run --release --example bench_diff -- parent.jsonl change.jsonl [BENCHMARK.json]
//! ```
//!
//! Each input file holds one perfbench output object per line, with the
//! run's seed added as a `"seed"` number:
//! `{"seed": 301, "correct": true, "attempted": ..., "failed": 0, "metrics": {...}}`.
//! Runs of the two files are paired by seed. The metrics, their units,
//! their better direction and their regression bounds come from the
//! `end_to_end` list of `BENCHMARK.json` (default: `BENCHMARK.json` in the
//! working directory).
//!
//! The verdict of a metric is
//! * `gain` when at least [`MIN_PAIRS`] pairs ran, the change wins at
//!   least 9 of every 10 of them (ties count for neither side) and the
//!   medians differ in its favour by more than the parent's
//!   interquartile range;
//! * `tie` when the medians are within 1% of each other;
//! * `worse` when the parent wins by the same rule, or the change's
//!   median is worse than the parent's by more than the metric's bound;
//! * `unresolved` otherwise.
//!
//! A second mode compares two committed BENCH files key by key:
//!
//! ```sh
//! cargo run --release --example bench_diff -- --files A.json B.json
//! ```
//!
//! Each file's numeric leaves are flattened to dotted keys (array
//! elements by index), and each key gets one row: A, B, the signed
//! change from A to B in percent, and a verdict, `tie` within 1%,
//! `changed` otherwise, or `only in A` / `only in B` for a key one side
//! lacks. A last line counts the rows per verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use navigating_shift::freshness::json::{parse as json_parse, Value};

/// Fewest pairs that can decide a `gain` (or a `worse` by the same
/// rule): with fewer, one side's quartiles say nothing of its spread.
const MIN_PAIRS: usize = 10;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Largest relative worsening the benchmark accepts.
    bound: f64,
}

/// One perfbench run.
struct Run {
    seed: u64,
    correct: bool,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Gain,
    Tie,
    Worse,
    Unresolved,
}

/// One printed row.
struct Row<'a> {
    metric: &'a Metric,
    parent: Spread,
    change: Spread,
    /// Change median over parent median.
    ratio: f64,
    wins: usize,
    losses: usize,
    pairs: usize,
    verdict: Verdict,
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> Option<&str> {
    v.and_then(Value::as_str)
}

fn parse_benchmark(input: &str) -> Result<Vec<Metric>, String> {
    let root = json_parse(input).map_err(|e| format!("benchmark: {e:?}"))?;
    let list = root
        .get("end_to_end")
        .ok_or("benchmark: no end_to_end list")?;
    list.as_array()
        .iter()
        .map(|m| {
            let field = |key: &str| text(m.get(key)).ok_or(format!("benchmark metric: no {key}"));
            Ok(Metric {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: match field("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("benchmark metric: better = {other}")),
                },
                bound: number(m.get("bound")).ok_or("benchmark metric: no bound")?,
            })
        })
        .collect()
}

fn parse_runs(input: &str) -> Result<Vec<Run>, String> {
    input
        .lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let run = json_parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
            let seed = number(run.get("seed")).ok_or(format!("line {}: no seed", i + 1))?;
            let values = match run.get("metrics") {
                Some(Value::Object(map)) => map
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), number(v.get("value"))?)))
                    .collect(),
                _ => return Err(format!("line {}: no metrics object", i + 1)),
            };
            Ok(Run {
                seed: seed as u64,
                correct: matches!(run.get("correct"), Some(Value::Bool(true))),
                failed: number(run.get("failed")).unwrap_or(0.0) as u64,
                values,
            })
        })
        .collect()
}

/// Quantile `p` of ascending `sorted` by linear interpolation between
/// the closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn spread(values: &mut [f64]) -> Spread {
    values.sort_by(f64::total_cmp);
    Spread {
        q1: quantile(values, 0.25),
        median: quantile(values, 0.5),
        q3: quantile(values, 0.75),
    }
}

fn compare<'a>(metric: &'a Metric, parent: &[Run], change: &[Run]) -> Option<Row<'a>> {
    let value = |r: &Run| r.values.get(&metric.name).copied();
    let mut a: Vec<f64> = parent.iter().filter_map(value).collect();
    let mut b: Vec<f64> = change.iter().filter_map(value).collect();
    if a.is_empty() || b.is_empty() {
        return None;
    }
    // `better(x, y)`: x is strictly better than y.
    let better = |x: f64, y: f64| if metric.lower_is_better { x < y } else { x > y };
    let (mut wins, mut losses, mut pairs) = (0, 0, 0);
    for p in parent {
        let paired = change.iter().find(|c| c.seed == p.seed);
        if let (Some(x), Some(y)) = (value(p), paired.and_then(value)) {
            pairs += 1;
            wins += usize::from(better(y, x));
            losses += usize::from(better(x, y));
        }
    }
    let (parent, change) = (spread(&mut a), spread(&mut b));
    let ratio = change.median / parent.median;
    let gap = (change.median - parent.median).abs();
    let iqr = parent.q3 - parent.q1;
    let decisive = |n: usize| pairs >= MIN_PAIRS && 10 * n >= 9 * pairs && gap > iqr;
    let beyond_bound = if metric.lower_is_better {
        ratio > 1.0 + metric.bound
    } else {
        ratio < 1.0 - metric.bound
    };
    let verdict = if decisive(wins) && better(change.median, parent.median) {
        Verdict::Gain
    } else if (ratio - 1.0).abs() <= 0.01 {
        Verdict::Tie
    } else if beyond_bound || (decisive(losses) && better(parent.median, change.median)) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    Some(Row {
        metric,
        parent,
        change,
        ratio,
        wins,
        losses,
        pairs,
        verdict,
    })
}

/// Formats a value with four significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

fn render(rows: &[Row<'_>]) -> String {
    let mut out = String::from(
        "| metric | unit | better | parent median [q1–q3] | change median [q1–q3] | ratio | wins | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let side = |s: Spread| format!("{} [{}–{}]", sig(s.median), sig(s.q1), sig(s.q3));
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {:.3}× | {}/{} ({} lost) | {} |",
            r.metric.name,
            r.metric.unit,
            if r.metric.lower_is_better {
                "lower"
            } else {
                "higher"
            },
            side(r.parent),
            side(r.change),
            r.ratio,
            r.wins,
            r.pairs,
            r.losses,
            format!("{:?}", r.verdict).to_lowercase(),
        );
    }
    out
}

fn health(label: &str, runs: &[Run]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let seeds: Vec<String> = runs.iter().map(|r| r.seed.to_string()).collect();
    format!(
        "{label}: {} runs (seeds {}), {correct} correct, {failed} failed operations",
        runs.len(),
        seeds.join(", ")
    )
}

/// Every numeric leaf of `value` under its dotted path.
fn flatten(path: &str, value: &Value, out: &mut BTreeMap<String, f64>) {
    let child = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match value {
        Value::Number(n) => {
            out.insert(path.to_string(), *n);
        }
        Value::Object(map) => {
            for (key, v) in map {
                flatten(&child(key), v, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(&child(&i.to_string()), v, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::String(_) => {}
    }
}

fn leaves(input: &str) -> Result<BTreeMap<String, f64>, String> {
    let root = json_parse(input).map_err(|e| format!("{e:?}"))?;
    let mut out = BTreeMap::new();
    flatten("", &root, &mut out);
    Ok(out)
}

/// One row per key of either file, in key order, then the verdict counts.
fn diff_files(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("| key | A | B | diff | verdict |\n|---|---|---|---|---|\n");
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let show = |v: Option<&f64>| v.map_or("—".to_string(), |v| sig(*v));
        let (x, y) = (a.get(key), b.get(key));
        let (diff, verdict) = match (x, y) {
            (Some(x), Some(y)) => {
                let pct = if x == y {
                    0.0
                } else {
                    (y - x) / x.abs() * 100.0
                };
                let verdict = if pct.abs() <= 1.0 { "tie" } else { "changed" };
                (format!("{pct:+.2}%"), verdict)
            }
            (Some(_), None) => ("—".to_string(), "only in A"),
            _ => ("—".to_string(), "only in B"),
        };
        *counts.entry(verdict).or_default() += 1;
        let _ = writeln!(
            out,
            "| `{key}` | {} | {} | {diff} | {verdict} |",
            show(x),
            show(y)
        );
    }
    let counts: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    let _ = writeln!(out, "\n{}", counts.join(", "));
    out
}

fn run(args: &[String]) -> Result<String, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    if let [flag, a, b] = args {
        if flag == "--files" {
            let leaves_of = |path: &str| leaves(&read(path)?).map_err(|e| format!("{path}: {e}"));
            return Ok(diff_files(&leaves_of(a)?, &leaves_of(b)?));
        }
    }
    let [parent, change, rest @ ..] = args else {
        return Err(
            "usage: bench_diff <parent.jsonl> <change.jsonl> [BENCHMARK.json]\n       \
                    bench_diff --files <A.json> <B.json>"
                .into(),
        );
    };
    let metrics = parse_benchmark(&read(
        rest.first().map_or("BENCHMARK.json", String::as_str),
    )?)?;
    let parent = parse_runs(&read(parent)?)?;
    let change = parse_runs(&read(change)?)?;
    let rows: Vec<Row<'_>> = metrics
        .iter()
        .filter_map(|m| compare(m, &parent, &change))
        .collect();
    Ok(format!(
        "{}\n{}\n\n{}",
        health("parent", &parent),
        health("change", &change),
        render(&rows)
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]}"#;

    /// Ten runs, seeds 1–10: throughput and p50 drift with the seed
    /// (a host phase both sides share), memory and set-up as given.
    fn runs(throughput: f64, p50: f64, rss: impl Fn(u64) -> f64, setup: f64) -> Vec<Run> {
        (1..=10u64)
            .map(|seed| {
                let drift = 1.0 + 0.02 * seed as f64;
                let line = format!(
                    r#"{{"seed": {seed}, "correct": true, "attempted": 100, "failed": 0, "metrics": {{
                        "throughput_rps": {{"value": {}, "unit": "req/s"}},
                        "p50_ms": {{"value": {}, "unit": "ms"}},
                        "peak_rss_mb": {{"value": {}, "unit": "MiB"}},
                        "setup_s": {{"value": {}, "unit": "s"}}}}}}"#,
                    throughput * drift,
                    p50 * drift,
                    rss(seed),
                    setup * drift,
                );
                parse_runs(&line.replace('\n', " ")).expect("fixture parses").remove(0)
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let metrics = parse_benchmark(BENCHMARK).expect("benchmark parses");
        let parent = runs(1000.0, 0.25, |s| 100.0 + s as f64, 0.15);
        // Throughput 10% higher in every pair and beyond the parent's
        // spread; p50 within 1%; memory 40% lower; set-up 40% slower.
        let change = runs(1100.0, 0.2505, |s| 60.0 + s as f64, 0.21);
        let rows: Vec<Row<'_>> = metrics
            .iter()
            .filter_map(|m| compare(m, &parent, &change))
            .collect();
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            [Verdict::Gain, Verdict::Tie, Verdict::Gain, Verdict::Worse]
        );
        assert_eq!((rows[0].wins, rows[0].pairs), (10, 10));
        assert_eq!(rows[2].parent.median, 105.5);
        assert_eq!(rows[2].parent.q1, 103.25);
        let table = render(&rows);
        assert!(table.contains("| `peak_rss_mb` | MiB | lower | 105.5 [103.2–107.8] | 65.50 [63.25–67.75] | 0.621× | 10/10 (0 lost) | gain |"), "{table}");
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_a_gap_beyond_the_spread() {
        let metrics = parse_benchmark(BENCHMARK).expect("benchmark parses");
        let parent = runs(1000.0, 0.25, |s| 100.0 + s as f64, 0.15);
        // Memory 2% lower in every pair, but the parent's own runs spread
        // by 4.5 MiB between quartiles: not resolved.
        let change = runs(1000.0, 0.25, |s| 98.0 + s as f64, 0.15);
        let row = compare(&metrics[2], &parent, &change).expect("row");
        assert_eq!(row.wins, 10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // Only 8 of 10 pairs lower, by far: not a gain either.
        let change = runs(1000.0, 0.25, |s| if s <= 8 { 50.0 } else { 200.0 }, 0.15);
        let row = compare(&metrics[2], &parent, &change).expect("row");
        assert_eq!((row.wins, row.losses), (8, 2));
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn one_pair_decides_nothing() {
        let metrics = parse_benchmark(BENCHMARK).expect("benchmark parses");
        let parent = runs(1000.0, 0.25, |s| 100.0 + s as f64, 0.15);
        let change = runs(1000.0, 0.25, |s| 60.0 + s as f64, 0.15);
        let row = compare(&metrics[2], &parent[..1], &change[..1]).expect("row");
        assert_eq!((row.wins, row.pairs), (1, 1));
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn files_diff_flattens_numeric_leaves_to_dotted_keys() {
        let a = leaves(
            r#"{"alloc": {"per_hit": 1.0, "per_miss": 100.0}, "hist": [3, 4],
                "gone": {"p50_ms": 2.5, "policy": "pow2"}, "label": "x"}"#,
        )
        .expect("A parses");
        let b = leaves(r#"{"alloc": {"per_hit": 1.005, "per_miss": 90.0}, "hist": [3, 4, 0]}"#)
            .expect("B parses");
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            [
                "alloc.per_hit",
                "alloc.per_miss",
                "gone.p50_ms",
                "hist.0",
                "hist.1"
            ],
            "strings are not leaves; array elements are keyed by index"
        );
        let table = diff_files(&a, &b);
        for row in [
            "| `alloc.per_hit` | 1.000 | 1.005 | +0.50% | tie |",
            "| `alloc.per_miss` | 100.0 | 90.00 | -10.00% | changed |",
            "| `gone.p50_ms` | 2.500 | — | — | only in A |",
            "| `hist.0` | 3.000 | 3.000 | +0.00% | tie |",
            "| `hist.2` | — | 0 | — | only in B |",
        ] {
            assert!(table.contains(row), "missing {row}:\n{table}");
        }
        assert!(
            table.ends_with("\n1 changed, 1 only in A, 1 only in B, 3 tie\n"),
            "{table}"
        );
    }

    #[test]
    fn runs_need_a_seed() {
        assert!(parse_runs(r#"{"correct": true, "metrics": {}}"#).is_err());
    }
}
