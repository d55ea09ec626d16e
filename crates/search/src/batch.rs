//! Batched query execution: per-worker pinned indexes, cross-query
//! amortization, and in-batch deduplication.
//!
//! The [`BatchExecutor`] parallelizes across queries, not within one:
//! each worker pins one immutable index reference and streams *many
//! queries* through it, so threads amortize their setup over a whole
//! batch and never contend on shared query state. (Splitting one query
//! across document-range shards was measured against this and lost at
//! every tested scale; DESIGN.md §3 "Why there is no sharded
//! retrieval" has the numbers.)
//!
//! What is amortized across a batch — and why none of it can change
//! output bytes:
//!
//! * **Table resolution.** The engine's static/impact tables are
//!   resolved once per batch (they are `OnceLock`-cached per
//!   [`RankingParams`] anyway, so this merely hoists the probe out of
//!   the per-query path). Same tables, same floats.
//! * **Dictionary interning.** Every *distinct* term in the batch is
//!   resolved to its [`TermId`](crate::postings::TermId) exactly once;
//!   queries then carry pre-resolved id lists into the kernel. The id
//!   list preserves query-term occurrence order (duplicates included),
//!   so the cursor sequence — and every scored float — is identical to
//!   the per-query dictionary probe.
//! * **Warm scratch reuse.** Each worker owns one [`QueryScratch`] for
//!   the whole batch; after the first few queries its buffers stop
//!   allocating. Scratches never affect scores.
//! * **Term-grouped execution order.** Queries are executed grouped by
//!   identical analyzed term lists, with groups ordered
//!   lexicographically by their terms and rotated by the executor's
//!   seed (deterministic for a given seed). Queries sharing terms run
//!   back-to-back, so posting lists and their block tables stay hot
//!   in cache. Queries are independent, so execution order is
//!   unobservable in the output — results are re-emitted in submission
//!   order regardless.
//! * **In-batch deduplication.** Queries whose analyzed term lists are
//!   identical produce identical result lists (execution is a pure
//!   function of terms, k, mode and the immutable index), so each
//!   group is executed once and its results cloned to every member —
//!   only the raw `query` echo differs per member, exactly as the
//!   SERP-cache hit path patches it.
//!
//! Parallel schedule: on batch indexes and live snapshots alike,
//! workers claim query groups from a shared atomic cursor
//! (query-per-worker).
//!
//! Byte-identity against per-query execution — for every batch size,
//! submission order, parameterization, eval mode and live cut — is
//! gated by `tests/differential_batch.rs`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use shift_textkit::analyze;

use crate::kernel::{self, EvalMode, QueryScratch};
use crate::live::LiveSearcher;
use crate::postings::TermId;
use crate::query::SearchEngine;
use crate::serp::{Serp, SerpResult};

/// Hardware threads available to this process, resolved once: the
/// executor's default worker count, and the gate that keeps live
/// compaction's claim scans serial on a single-CPU host.
pub(crate) fn hardware_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// One group of submitted queries sharing an identical analyzed term
/// list — the unit of execution and in-batch deduplication.
struct Group {
    terms: Vec<String>,
    members: usize,
}

/// The deterministic execution plan for one batch: term-grouped,
/// seeded-rotation-ordered groups plus the submission-index → group
/// map used to re-emit results in submission order.
struct Plan {
    groups: Vec<Group>,
    group_of: Vec<usize>,
}

impl Plan {
    fn build<Q: AsRef<str>>(queries: &[Q], seed: u64) -> Plan {
        let mut index_of: HashMap<Vec<String>, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of = Vec::with_capacity(queries.len());
        for q in queries {
            let terms = analyze(q.as_ref());
            let gi = match index_of.get(&terms) {
                Some(&gi) => gi,
                None => {
                    index_of.insert(terms.clone(), groups.len());
                    groups.push(Group { terms, members: 0 });
                    groups.len() - 1
                }
            };
            groups[gi].members += 1;
            group_of.push(gi);
        }
        drop(index_of);

        // Deterministic, seeded execution order: lexicographic by term
        // list (queries sharing leading terms run back-to-back, keeping
        // their posting blocks hot), rotated by the seed so repeated
        // batches can start from different regions of the term space.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| groups[a].terms.cmp(&groups[b].terms));
        if !order.is_empty() {
            let rot = (seed % order.len() as u64) as usize;
            order.rotate_left(rot);
        }
        let mut new_index = vec![0usize; groups.len()];
        for (new_i, &old_i) in order.iter().enumerate() {
            new_index[old_i] = new_i;
        }
        let mut taken: Vec<Option<Group>> = groups.into_iter().map(Some).collect();
        let groups: Vec<Group> = order
            .iter()
            .map(|&i| taken[i].take().expect("permutation visits each group once"))
            .collect();
        for gi in &mut group_of {
            *gi = new_index[*gi];
        }
        Plan { groups, group_of }
    }

    /// Every distinct term across the batch (the dictionary-interning
    /// work list).
    fn distinct_terms(&self) -> HashSet<&str> {
        let mut set = HashSet::new();
        for g in &self.groups {
            for t in &g.terms {
                set.insert(t.as_str());
            }
        }
        set
    }

    /// Re-emits per-group results as one SERP per submitted query, in
    /// submission order. The last member of a group moves the result
    /// list instead of cloning it, so singleton groups (the common
    /// case) pay no copy.
    fn emit<Q: AsRef<str>>(
        &self,
        queries: &[Q],
        mut results: Vec<Option<Vec<SerpResult>>>,
    ) -> Vec<Serp> {
        let mut remaining: Vec<usize> = self.groups.iter().map(|g| g.members).collect();
        let mut out = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let gi = self.group_of[i];
            remaining[gi] -= 1;
            let slot = &mut results[gi];
            let list = if remaining[gi] == 0 {
                slot.take().expect("group executed")
            } else {
                slot.as_ref().expect("group executed").clone()
            };
            out.push(Serp {
                query: q.as_ref().to_string(),
                results: list,
            });
        }
        out
    }
}

/// Streams batches of queries through pinned immutable index
/// references — see the module docs for the full amortization and
/// determinism inventory. One executor is reusable across batches;
/// [`BatchExecutor::new`] is what [`SearchEngine::search_batch`] and
/// [`LiveSearcher::search_batch`] construct per call.
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    workers: usize,
    seed: u64,
}

impl Default for BatchExecutor {
    fn default() -> BatchExecutor {
        BatchExecutor::new()
    }
}

impl BatchExecutor {
    /// An executor using every hardware thread and seed 0 (pure
    /// lexicographic group order).
    pub fn new() -> BatchExecutor {
        BatchExecutor {
            workers: hardware_threads(),
            seed: 0,
        }
    }

    /// Caps the worker count (clamped to at least 1). Worker count
    /// affects wall-clock only, never output bytes.
    pub fn with_workers(mut self, workers: usize) -> BatchExecutor {
        self.workers = workers.max(1);
        self
    }

    /// Sets the execution-order seed (rotates the term-grouped order;
    /// deterministic for a given seed, unobservable in the output).
    pub fn with_seed(mut self, seed: u64) -> BatchExecutor {
        self.seed = seed;
        self
    }

    /// Executes a batch against a [`SearchEngine`], returning one SERP
    /// per query in submission order, byte-identical to per-query
    /// [`SearchEngine::search_with_mode`].
    pub fn run<Q: AsRef<str>>(
        &self,
        engine: &SearchEngine,
        queries: &[Q],
        k: usize,
        mode: EvalMode,
    ) -> Vec<Serp> {
        let plan = Plan::build(queries, self.seed);
        if k == 0 || engine.index().is_empty() {
            // The per-query early-out: echo the query, return nothing.
            let empty: Vec<Option<Vec<SerpResult>>> =
                plan.groups.iter().map(|_| Some(Vec::new())).collect();
            return plan.emit(queries, empty);
        }
        let index = engine.index();
        let store = index.postings();
        let interned: HashMap<&str, Option<TermId>> = plan
            .distinct_terms()
            .into_iter()
            .map(|t| (t, store.term_id(t)))
            .collect();
        let resolved: Vec<Vec<TermId>> = plan
            .groups
            .iter()
            .map(|g| {
                g.terms
                    .iter()
                    .filter_map(|t| interned[t.as_str()])
                    .collect()
            })
            .collect();
        // Resolve the per-params tables once for the whole batch.
        let params = engine.params();
        let statics = engine.statics();
        let impacts = engine.impacts();
        let results = self.for_each_group(&plan, |gi, g, scratch| {
            if g.terms.is_empty() {
                Vec::new()
            } else {
                kernel::execute(
                    index,
                    params,
                    statics,
                    impacts,
                    scratch,
                    &g.terms,
                    Some(&resolved[gi]),
                    k,
                    mode,
                )
            }
        });
        plan.emit(queries, results)
    }

    /// Executes a batch against a [`LiveSearcher`] snapshot
    /// (query-per-worker; terms are interned once per segment
    /// dictionary), byte-identical to per-query
    /// [`LiveSearcher::search_with_mode`].
    pub fn run_live<Q: AsRef<str>>(
        &self,
        searcher: &LiveSearcher,
        queries: &[Q],
        k: usize,
        mode: EvalMode,
    ) -> Vec<Serp> {
        let plan = Plan::build(queries, self.seed);
        if k == 0 || searcher.snapshot().is_empty() {
            let empty: Vec<Option<Vec<SerpResult>>> =
                plan.groups.iter().map(|_| Some(Vec::new())).collect();
            return plan.emit(queries, empty);
        }
        // Intern each distinct term once per segment dictionary (live
        // segments have independent term-id spaces).
        let nseg = searcher.segment_count();
        let interned: HashMap<&str, Vec<Option<TermId>>> = plan
            .distinct_terms()
            .into_iter()
            .map(|t| {
                let ids = (0..nseg)
                    .map(|si| searcher.segment_store(si).term_id(t))
                    .collect();
                (t, ids)
            })
            .collect();
        let resolved: Vec<Vec<Vec<TermId>>> = plan
            .groups
            .iter()
            .map(|g| {
                (0..nseg)
                    .map(|si| {
                        g.terms
                            .iter()
                            .filter_map(|t| interned[t.as_str()][si])
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let slots = self.for_each_group(&plan, |gi, g, scratch| {
            if g.terms.is_empty() {
                Vec::new()
            } else {
                searcher.run(scratch, &g.terms, Some(&resolved[gi]), k, mode)
            }
        });
        plan.emit(queries, slots)
    }

    /// The query-per-worker schedule: workers claim groups from a
    /// shared atomic cursor (dynamic load balance; assignment order is
    /// unobservable because groups are independent and each result
    /// lands in its own slot), each with one warm scratch for the
    /// whole batch. Serial when one worker suffices.
    fn for_each_group(
        &self,
        plan: &Plan,
        compute: impl Fn(usize, &Group, &mut QueryScratch) -> Vec<SerpResult> + Sync,
    ) -> Vec<Option<Vec<SerpResult>>> {
        let n = plan.groups.len();
        let workers = self.workers.min(n).max(1);
        if workers <= 1 {
            let mut scratch = QueryScratch::new();
            return plan
                .groups
                .iter()
                .enumerate()
                .map(|(gi, g)| Some(compute(gi, g, &mut scratch)))
                .collect();
        }
        let slots: Vec<OnceLock<Vec<SerpResult>>> = (0..n).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = QueryScratch::new();
                    loop {
                        let gi = cursor.fetch_add(1, Ordering::Relaxed);
                        if gi >= n {
                            break;
                        }
                        let _ = slots[gi].set(compute(gi, &plan.groups[gi], &mut scratch));
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RankingParams;
    use shift_corpus::{World, WorldConfig};

    fn assert_batch_matches(engine: &SearchEngine, queries: &[&str], k: usize) {
        for mode in [EvalMode::Pruned, EvalMode::Exhaustive] {
            let got = engine.search_batch(queries, k, mode);
            assert_eq!(got.len(), queries.len());
            let mut scratch = QueryScratch::new();
            for (serp, &q) in got.iter().zip(queries) {
                let want = engine.search_with_mode(&mut scratch, q, k, mode);
                assert_eq!(serp.query, want.query, "query echo ({mode:?})");
                assert_eq!(serp.results.len(), want.results.len(), "{q} ({mode:?})");
                for (g, w) in serp.results.iter().zip(&want.results) {
                    assert_eq!(g.url, w.url, "{q} ({mode:?})");
                    assert_eq!(g.score.to_bits(), w.score.to_bits(), "{q} ({mode:?})");
                    assert_eq!(g.snippet, w.snippet, "{q} ({mode:?})");
                }
            }
        }
    }

    #[test]
    fn batch_matches_per_query_on_unsharded_engine() {
        let world = World::generate(&WorldConfig::small(), 7);
        let engine = SearchEngine::build(&world, RankingParams::google());
        let queries = [
            "best laptops for students",
            "most reliable SUVs 2025",
            "best laptops for students", // in-batch duplicate
            "",                          // degenerate: no terms
            "best smartphones camera battery battery",
            "zzzzunknownterm",
        ];
        assert_batch_matches(&engine, &queries, 10);
    }

    #[test]
    fn seed_and_worker_count_do_not_change_bytes() {
        let world = World::generate(&WorldConfig::small(), 91);
        let engine = SearchEngine::build(&world, RankingParams::ai_retrieval());
        let queries = [
            "best credit cards cashback",
            "best hotels rewards",
            "most reliable SUVs",
            "best credit cards cashback",
        ];
        let base = engine.search_batch(&queries, 10, EvalMode::Pruned);
        for (seed, workers) in [(1u64, 1usize), (7, 2), (0xDEAD_BEEF, 8)] {
            let exec = BatchExecutor::new().with_seed(seed).with_workers(workers);
            let got = exec.run(&engine, &queries, 10, EvalMode::Pruned);
            assert_eq!(got.len(), base.len());
            for (g, b) in got.iter().zip(&base) {
                assert_eq!(g.query, b.query, "seed {seed} workers {workers}");
                assert_eq!(g.results.len(), b.results.len());
                for (x, y) in g.results.iter().zip(&b.results) {
                    assert_eq!(x.url, y.url);
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_k_and_empty_batches_are_handled() {
        let world = World::generate(&WorldConfig::small(), 7);
        let engine = SearchEngine::build(&world, RankingParams::google());
        assert!(engine
            .search_batch(&["best laptops"], 0, EvalMode::Pruned)
            .iter()
            .all(|s| s.results.is_empty()));
        let none: [&str; 0] = [];
        assert!(engine.search_batch(&none, 10, EvalMode::Pruned).is_empty());
    }
}
