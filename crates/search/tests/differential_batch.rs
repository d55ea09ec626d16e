//! Differential gate for batched execution: [`BatchExecutor`] output
//! must be **byte-identical** to per-query execution — across batch
//! sizes (1, 7, 64, 1000), shuffled submission orders, duplicate
//! queries, mixed ranking parameterizations / k / evaluation modes,
//! worker counts, grouping seeds, and live snapshots at arbitrary
//! timeline cuts. Scores compare at the bit level.
//!
//! (The companion dedup property — N concurrent identical cache misses
//! run the kernel exactly once and every waiter receives identical
//! bytes — lives with the single-flight layer in `shift-engines`,
//! which owns the SERP cache the flights sit under.)

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use shift_corpus::{EventKind, Timeline, TimelineConfig, World, WorldConfig};
use shift_search::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveSearcher};
use shift_search::{BatchExecutor, EvalMode, QueryScratch, RankingParams, SearchEngine, Serp};

/// Engines over two independent worlds × the two study
/// parameterizations, plus the disabled-features and tie-dense stress
/// parameterizations from the kernel differential suite.
fn engines() -> &'static Vec<SearchEngine> {
    static ENGINES: OnceLock<Vec<SearchEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut engines = Vec::new();
        for seed in [4040u64, 91] {
            let world = World::generate(&WorldConfig::small(), seed);
            let google = SearchEngine::build(&world, RankingParams::google());
            let ai = SearchEngine::with_index(google.index_handle(), RankingParams::ai_retrieval());
            engines.push(google);
            engines.push(ai);
        }
        let world = World::generate(&WorldConfig::small(), 17);
        let bare = RankingParams {
            proximity_bonus: 0.0,
            coordination: 0.0,
            max_per_host: 0,
            ..RankingParams::google()
        };
        engines.push(SearchEngine::build(&world, bare));
        let world = World::generate(&WorldConfig::small(), 29);
        let mut ties = RankingParams {
            proximity_bonus: 0.0,
            coordination: 0.0,
            max_per_host: 0,
            authority_weight: 0.0,
            freshness_weight: 0.0,
            ..RankingParams::google()
        };
        ties.bm25.b = 0.0;
        engines.push(SearchEngine::build(&world, ties));
        engines
    })
}

/// Full structural equality with bit-exact scores.
fn assert_serp_identical(batched: &Serp, per_query: &Serp) {
    assert_eq!(batched.query, per_query.query);
    assert_eq!(
        batched.results.len(),
        per_query.results.len(),
        "result counts differ for {:?}",
        batched.query
    );
    for (i, (a, b)) in batched.results.iter().zip(&per_query.results).enumerate() {
        assert_eq!(a.url, b.url, "url diverges at rank {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "score diverges at rank {i}: {} vs {}",
            a.score,
            b.score
        );
        assert_eq!(a.page, b.page, "page diverges at rank {i}");
        assert_eq!(a.host, b.host, "host diverges at rank {i}");
        assert_eq!(a.title, b.title, "title diverges at rank {i}");
        assert_eq!(a.snippet, b.snippet, "snippet diverges at rank {i}");
        assert_eq!(a.source_type, b.source_type);
        assert_eq!(a.age_days.to_bits(), b.age_days.to_bits());
    }
}

/// The core property: the batched SERP vector equals running every
/// query alone, in submission order, one fresh scratch per query.
fn assert_batch_matches_per_query(
    engine: &SearchEngine,
    queries: &[String],
    k: usize,
    mode: EvalMode,
) {
    let batched = engine.search_batch(queries, k, mode);
    assert_eq!(batched.len(), queries.len());
    for (q, b) in queries.iter().zip(&batched) {
        let per = engine.search_with_mode(&mut QueryScratch::new(), q, k, mode);
        assert_serp_identical(b, &per);
    }
}

/// Query strings mixing realistic templates with junk (same family as
/// the kernel differential suite), so batches hold everything from
/// posting-dense queries to stopword-only and unknown-term ones.
fn query() -> impl Strategy<Value = String> {
    prop_oneof![
        (
            prop_oneof![
                Just("best"),
                Just("top 10"),
                Just("most reliable"),
                Just("buy"),
                Just("review"),
            ],
            prop_oneof![
                Just("smartphones"),
                Just("laptops"),
                Just("SUVs"),
                Just("hotels"),
                Just("credit cards"),
                Just("espresso machines"),
                Just("smartwatches battery"),
            ],
            prop_oneof![
                Just(""),
                Just(" 2025"),
                Just(" for students"),
                Just(" battery battery"), // duplicate query terms
            ],
        )
            .prop_map(|(a, b, c)| format!("{a} {b}{c}")),
        "\\PC{0,32}",
        edge_query(),
    ]
}

/// Edge inputs every path must handle: duplicate query terms, a
/// 70-term query, a query with no indexed term, and a single term.
fn edge_queries() -> Vec<String> {
    let words = [
        "best",
        "laptops",
        "battery",
        "review",
        "hotels",
        "2025",
        "students",
        "camera",
        "smartphones",
        "reliable",
    ];
    let long: Vec<&str> = words.iter().copied().cycle().take(70).collect();
    vec![
        "best best laptops".to_string(),
        long.join(" "),
        "xylophonic quuxations".to_string(),
        "laptops".to_string(),
    ]
}

/// [`edge_queries`] as a strategy, mixed into [`query`].
fn edge_query() -> impl Strategy<Value = String> {
    (0..edge_queries().len()).prop_map(|i| edge_queries().swap_remove(i))
}

/// Deterministic Fisher–Yates driven by a proptest-chosen seed: the
/// suite controls submission order without needing a shuffle strategy.
fn shuffle(queries: &mut [String], mut seed: u64) {
    for i in (1..queries.len()).rev() {
        // SplitMix64 step.
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        queries.swap(i, (z as usize) % (i + 1));
    }
}

/// The canonical batch-size ladder from the issue: a singleton, an odd
/// partial group, a typical micro-batch, and a size that dwarfs the
/// distinct-query pool (forcing heavy in-batch dedup) — on both study
/// parameterizations.
#[test]
fn batch_sizes_1_7_64_1000_match_per_query() {
    let pool = [
        "best laptops for students",
        "best smartphones camera battery",
        "top 10 hotels 2025",
        "review espresso machines",
        "most reliable SUVs",
        "buy credit cards",
        "the of and",            // analyzes to nothing
        "xylophonic quuxations", // unknown terms
        "",
    ];
    for engine in [&engines()[0], &engines()[1]] {
        for size in [1usize, 7, 64, 1000] {
            let queries: Vec<String> = (0..size)
                .map(|i| {
                    // Cycle the pool, with a varying suffix on every
                    // third pick so batches mix exact duplicates with
                    // distinct analyzed term lists.
                    let base = pool[i % pool.len()];
                    if i % 3 == 0 {
                        format!("{base} {}", 2020 + (i % 7))
                    } else {
                        base.to_string()
                    }
                })
                .collect();
            assert_batch_matches_per_query(engine, &queries, 10, EvalMode::Pruned);
        }
    }
}

/// Worker counts and grouping seeds are scheduling knobs only: any
/// (workers, seed) pair must produce the same bytes as the default.
#[test]
fn worker_counts_and_seeds_are_invisible() {
    let queries: Vec<String> = (0..40)
        .map(|i| format!("best laptops pick {}", i % 11))
        .collect();
    let engine = &engines()[0];
    let baseline = engine.search_batch(&queries, 10, EvalMode::Pruned);
    for (workers, seed) in [(1usize, 0u64), (2, 1), (3, 0xDEAD_BEEF), (16, u64::MAX)] {
        let run = BatchExecutor::new()
            .with_workers(workers)
            .with_seed(seed)
            .run(engine, &queries, 10, EvalMode::Pruned);
        for (a, b) in run.iter().zip(&baseline) {
            assert_serp_identical(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary batches over every engine, both evaluation modes and
    /// the full k range: batched output is byte-identical to per-query.
    #[test]
    fn batched_matches_per_query(
        queries in prop::collection::vec(query(), 1..24),
        k in 0usize..25,
        which in 0usize..6,
        mode_ix in 0usize..2,
    ) {
        let mode = [EvalMode::Pruned, EvalMode::Exhaustive][mode_ix];
        assert_batch_matches_per_query(&engines()[which], &queries, k, mode);
    }

    /// Submission order is a free variable: results always come back in
    /// whatever order the queries were submitted, and reordering a
    /// batch reorders exactly the results.
    #[test]
    fn shuffled_submission_orders_match(
        mut queries in prop::collection::vec(query(), 2..16),
        order_seed in 0u64..u64::MAX,
        k in 1usize..15,
        which in 0usize..6,
    ) {
        let engine = &engines()[which];
        let before = engine.search_batch(&queries, k, EvalMode::Pruned);
        let paired: std::collections::HashMap<String, Serp> =
            queries.iter().cloned().zip(before).collect();
        shuffle(&mut queries, order_seed);
        let after = engine.search_batch(&queries, k, EvalMode::Pruned);
        for (q, serp) in queries.iter().zip(&after) {
            assert_serp_identical(serp, &paired[q]);
        }
    }

    /// Duplicate-heavy batches (many copies of few distinct queries,
    /// differing only in raw casing/echo) still emit one correct SERP
    /// per submission, each echoing its own raw text.
    #[test]
    fn duplicate_queries_each_get_their_own_echo(
        picks in prop::collection::vec(0usize..4, 3..20),
        k in 1usize..15,
        which in 0usize..6,
    ) {
        let distinct = ["best laptops", "top 10 hotels", "review", "the of and"];
        let queries: Vec<String> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                // Vary casing so raw strings differ while analyzed
                // term lists collide — the in-batch dedup path.
                if i % 2 == 0 {
                    distinct[p].to_uppercase()
                } else {
                    distinct[p].to_string()
                }
            })
            .collect();
        assert_batch_matches_per_query(&engines()[which], &queries, k, EvalMode::Pruned);
    }

}

// ---------------------------------------------------------------------
// Live snapshots: batches against point-in-time cuts of a mutating
// index.
// ---------------------------------------------------------------------

fn base_world() -> World {
    World::generate(&WorldConfig::small(), 4040)
}

fn timeline() -> &'static Timeline {
    static TIMELINE: OnceLock<Timeline> = OnceLock::new();
    TIMELINE.get_or_init(|| Timeline::generate(&base_world(), &TimelineConfig::dense(), 5))
}

/// Snapshot searchers at a spread of timeline cuts (prime fractions so
/// cuts land at "random" event offsets, not round numbers), under both
/// study parameterizations.
fn live_searchers() -> &'static Vec<(usize, Vec<LiveSearcher>)> {
    static SEARCHERS: OnceLock<Vec<(usize, Vec<LiveSearcher>)>> = OnceLock::new();
    SEARCHERS.get_or_init(|| {
        let world = base_world();
        let n = timeline().len();
        [n / 7, n / 3, (5 * n) / 8, n]
            .into_iter()
            .map(|cut| {
                let mut index = LiveIndex::new(LiveIndexConfig::tiny(42));
                for event in &timeline().events()[..cut] {
                    match event.kind {
                        EventKind::Delete => {
                            index.delete(event.page.id);
                        }
                        EventKind::Publish | EventKind::Update => {
                            index.upsert(LiveDoc::from_page(&world, &event.page));
                        }
                    }
                }
                let snapshot = Arc::new(index.snapshot());
                let searchers = [RankingParams::google(), RankingParams::ai_retrieval()]
                    .into_iter()
                    .map(|p| LiveSearcher::new(Arc::clone(&snapshot), p))
                    .collect();
                (cut, searchers)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Live-snapshot batches at arbitrary cuts: the multi-segment
    /// batch path (per-segment term interning, grouped execution) is
    /// byte-identical to per-query snapshot search.
    #[test]
    fn live_snapshot_batches_match_per_query(
        queries in prop::collection::vec(query(), 1..12),
        k in 0usize..20,
        cut_ix in 0usize..4,
        params_ix in 0usize..2,
        mode_ix in 0usize..2,
    ) {
        let mode = [EvalMode::Pruned, EvalMode::Exhaustive][mode_ix];
        let (cut, searchers) = &live_searchers()[cut_ix];
        let searcher = &searchers[params_ix];
        let batched = searcher.search_batch(&queries, k, mode);
        prop_assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            let per = searcher.search_with_mode(&mut QueryScratch::new(), q, k, mode);
            assert_serp_identical(b, &per);
        }
        prop_assert!(*cut <= timeline().len());
    }
}

/// One batch of every edge input plus realistic templates, on every
/// engine (the tie-dense one included) and live cut,
/// in every mode, at shallow, default and the deepest persona pool
/// depth (k = 60).
#[test]
fn edge_inputs_batch_like_per_query() {
    let mut queries = edge_queries();
    queries.extend(
        [
            "best laptops for students",
            "top 10 hotels 2025",
            "best smartphones camera battery",
        ]
        .map(String::from),
    );
    let modes = [EvalMode::Pruned, EvalMode::Exhaustive];
    for k in [1usize, 10, 60] {
        for mode in modes {
            for engine in engines() {
                assert_batch_matches_per_query(engine, &queries, k, mode);
            }
            for (_, searchers) in live_searchers() {
                for searcher in searchers {
                    let batched = searcher.search_batch(&queries, k, mode);
                    for (q, b) in queries.iter().zip(&batched) {
                        let per = searcher.search_with_mode(&mut QueryScratch::new(), q, k, mode);
                        assert_serp_identical(b, &per);
                    }
                }
            }
        }
    }
}

/// Batched execution never trips the re-entrancy fallback in
/// `with_thread_scratch` — workers own their scratches outright.
#[test]
fn batching_never_falls_back_on_scratch_allocation() {
    let before = shift_search::scratch_fallbacks();
    let queries: Vec<String> = (0..64).map(|i| format!("best laptops {i}")).collect();
    let _ = engines()[0].search_batch(&queries, 10, EvalMode::Pruned);
    assert_eq!(
        shift_search::scratch_fallbacks(),
        before,
        "batch execution must not allocate fallback scratches"
    );
}
