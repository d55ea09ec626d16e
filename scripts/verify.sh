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

echo "== serving layer: a cache hit shares the cached answer (allocation count independent of answer size) =="
cargo test -q -p shift-serve --test alloc_hit

echo "== resilience: engines fault-injection suite =="
cargo test -q -p shift-engines fault

echo "== resilience: deterministic chaos suite =="
cargo test -q -p shift-serve --test chaos_serve

echo "== resilience: chaos smoke + availability gate (vs committed BENCH_serve.json) =="
cargo run --release --example run_serve -- --chaos

echo "== serving layer: allocations per hit and per cold answer, gated exactly (vs committed BENCH_serve.json) =="
cargo run --release --example run_serve -- --alloc

echo "== replicated tier: routing/failover/open-loop suite =="
cargo test -q -p shift-serve --test replicated_serve

echo "== replicated tier: determinism + availability + skew + cliff gates (vs committed BENCH_serve.json) =="
cargo run --release --example run_replicated -- --gate

echo "== retrieval kernel: unit suite (incl. live memtable/segment/WAL/compaction) =="
cargo test -q -p shift-search --lib

echo "== retrieval kernel: differential suite (kernel == reference, pruned == exhaustive, edge inputs) =="
cargo test -q -p shift-search --test differential_search

echo "== retrieval kernel: SERP invariants + in-place snippet locator == lowercase-and-find =="
cargo test -q -p shift-search --test proptest_search

echo "== live index: differential suite (snapshots == batch-built oracle at every cut) =="
cargo test -q -p shift-search --test differential_live

echo "== live index: WAL crash-cut recovery suite =="
cargo test -q -p shift-search --test live_wal

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

echo "== engine stack: single-flight dedup (N concurrent misses compute once) =="
cargo test -q -p shift-engines single_flight

echo "== engine stack: answer invariants + build-time text tables == per-result derivation (paper scale) =="
cargo test -q -p shift-engines --test proptest_engines
cargo test -q -p shift-engines --test precomputed_text

echo "== engine stack: result text shared from the index to the answer (pointer identity + allocations per cold answer) =="
cargo test -q -p shift-engines --test shared_text

echo "== lint: clippy on every workspace package except the compat/* shims (all targets: lib, tests, benches, examples) =="
cargo clippy -q --workspace --exclude criterion --exclude crossbeam --exclude parking_lot --exclude proptest --exclude rand --all-targets -- -D warnings

echo "== retrieval kernel: bench smoke (small world, byte-identity incl. batch and compressed sweeps) =="
cargo bench -p shift-bench --bench search_kernel -- --quick

echo "== retrieval kernel: gate table (paper pruned, 100x batched/compressed q/s >= 80%, 100x compressed byte ratio <= 110% of committed BENCH_search.json) =="
cargo bench -p shift-bench --bench search_kernel -- --gate

echo "verify.sh: all checks passed"
