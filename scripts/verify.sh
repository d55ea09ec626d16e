#!/usr/bin/env bash
# Repo verification: tier-1 build+tests, formatting, and the serving-layer
# integration suite. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root-package tests =="
cargo test -q

echo "== workspace: every crate's unit, integration and doc tests =="
cargo test -q --workspace --release

echo "== serving layer: unit + integration =="
cargo test -q -p shift-serve

echo "== serving layer: a cache hit allocates exactly once, its key (whatever the answer's size and the query's length) =="
cargo test -q -p shift-serve --test alloc_hit

echo "== metrics: log-bucket histogram properties (quantiles within 1/64 of exact, merge == recording both, held bytes fixed after 10 and 10^6 records) =="
cargo test -q -p shift-metrics --test log_histogram

echo "== resilience: engines fault-injection suite =="
cargo test -q -p shift-engines fault

echo "== resilience: deterministic chaos suite (incl. injected panics on answer() and submit()) =="
cargo test -q -p shift-serve --test chaos_serve

echo "== resilience: chaos smoke + availability gate (vs committed BENCH_serve.json) =="
cargo run --release --example run_serve -- --chaos

echo "== allocations per hit, per cold answer (no snippet copies), per served cold answer (run on the calling thread: no reply channel) and per index build (positions stored once), gated exactly (vs committed BENCH_serve.json) =="
cargo run --release --example run_serve -- --alloc

echo "== retrieval kernel: unit suite (incl. live memtable/segment/WAL/compaction) =="
cargo test -q -p shift-search --lib

echo "== retrieval kernel: differential suite (kernel == reference, pruned == exhaustive, edge inputs) =="
cargo test -q -p shift-search --test differential_search

echo "== retrieval kernel: SERP invariants + in-place snippet locator == lowercase-and-find =="
cargo test -q -p shift-search --test proptest_search

echo "== live index: differential suite (snapshots == batch-built oracle at every cut) =="
cargo test -q -p shift-search --test differential_live

echo "== live index: WAL crash-cut recovery suite (incl. one bit flipped in a mid-log payload or length word) =="
cargo test -q -p shift-search --test live_wal

echo "== outside-input parsers: no panic on adversarial text (JSON, dates, HTML, URLs), JSON nested past its depth limit is an error =="
cargo test -q --release --test adversarial_input

echo "== index build: memoized build == page-by-page add_document on both layouts, deterministic term ids, span walker == frozen tokenizer =="
cargo test -q -p shift-search --test build_equivalence

echo "== cache keys: one-pass answer-cache key == joined tokens (ASCII byte loop and non-ASCII case mappings), SERP-cache key == joined analysis =="
cargo test -q -p shift-textkit --test normalize_equivalence
cargo test -q -p shift-engines --test serp_key_equivalence

echo "== snippets: Excerpt window == oracle snippet String (Display, Debug, ==), attribution on the window == on the composed text == by lookup in the occurrence table (declined exactly for bodies not case-simple and for empty or … names) =="
cargo test -q -p shift-search --test excerpt_equivalence

echo "== compressed postings: codec round-trips + partial-block subranges =="
cargo test -q -p shift-search --test codec_roundtrip

echo "== compressed postings: differential suite (compressed == raw == oracle, metadata dict) =="
cargo test -q -p shift-search --test differential_compressed

echo "== batched execution: differential suite (batched == per-query, shuffled orders, live cuts) =="
cargo test -q -p shift-search --test differential_batch

echo "== live index: churn-throughput gate (vs committed BENCH_serve.json) =="
cargo run --release --example run_live -- --gate

echo "== engine stack: SERP cache + stack unit suite =="
cargo test -q -p shift-engines serp_cache
cargo test -q -p shift-engines stack

echo "== engine stack: single-flight dedup (N concurrent misses compute once; a panicking leader hands its key on) =="
cargo test -q -p shift-engines single_flight

echo "== engine stack: answer invariants + build-time text tables (citation domains, every page's mention-occurrence table) == per-result derivation (paper scale) =="
cargo test -q -p shift-engines --test proptest_engines
cargo test -q -p shift-engines --test precomputed_text

echo "== engine stack: result text and snippet windows shared from the doc store to the answer (pointer identity + cold answer allocates one fewer per result than with copied snippets) =="
cargo test -q -p shift-engines --test shared_text

echo "== lint: clippy on every workspace package except the compat/* shims (all targets: lib, tests, benches, examples) =="
cargo clippy -q --workspace --exclude criterion --exclude crossbeam --exclude parking_lot --exclude proptest --exclude rand --all-targets -- -D warnings

echo "== retrieval kernel: bench smoke (small world, byte-identity incl. batch and compressed sweeps) =="
cargo bench -p shift-bench --bench search_kernel -- --quick

echo "== retrieval kernel: gate table (paper pruned, 100x batched/compressed q/s >= 80%, 100x compressed byte ratio <= 110% of committed BENCH_search.json) =="
cargo bench -p shift-bench --bench search_kernel -- --gate

echo "verify.sh: all checks passed"
