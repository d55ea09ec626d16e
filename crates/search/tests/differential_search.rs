//! Differential gate for the retrieval kernel: both evaluation modes —
//! the exhaustive dense pass and the *pruned* dense pass with its exact
//! pool cut — must return byte-identical SERPs to the frozen
//! term-at-a-time reference scorer (`query::reference`)
//! on every world, parameterization, query and k — scores compared at
//! the bit level, not with a tolerance.

use std::sync::OnceLock;

use proptest::prelude::*;
use shift_corpus::{World, WorldConfig};
use shift_search::query::reference;
use shift_search::{EvalMode, QueryScratch, RankingParams, SearchEngine, Serp};

/// Engines over two independent worlds × the two study
/// parameterizations, plus two stress parameterizations for the
/// kernel's edge paths.
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
        // A degenerate parameterization: no crowding, no coordination,
        // no proximity — exercises the kernel's disabled-feature paths.
        let world = World::generate(&WorldConfig::small(), 17);
        let bare = RankingParams {
            proximity_bonus: 0.0,
            coordination: 0.0,
            max_per_host: 0,
            ..RankingParams::google()
        };
        engines.push(SearchEngine::build(&world, bare));
        // A tie-dense parameterization: b = 0 removes length
        // normalization and zeroed static weights collapse every
        // document's static factors to exactly (1, 1), so documents
        // with equal term frequencies score bit-identically. This is
        // the adversarial case for pruning — equal-score tie clusters
        // straddle the pool cut, and the `score desc, doc asc`
        // tie-break must survive it.
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
fn assert_serp_identical(kernel: &Serp, reference: &Serp) {
    assert_eq!(kernel.query, reference.query);
    assert_eq!(
        kernel.results.len(),
        reference.results.len(),
        "result counts differ"
    );
    for (i, (a, b)) in kernel.results.iter().zip(&reference.results).enumerate() {
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

/// Pruned mode, exhaustive mode and the reference oracle must agree
/// byte-for-byte.
fn assert_all_paths_identical(engine: &SearchEngine, q: &str, k: usize) {
    let pruned = engine.search(q, k); // default path = pruned
    let exhaustive = engine.search_with_mode(&mut QueryScratch::new(), q, k, EvalMode::Exhaustive);
    let oracle = reference::search(engine, q, k);
    assert_serp_identical(&pruned, &oracle);
    assert_serp_identical(&exhaustive, &oracle);
}

/// Query strings mixing realistic templates (which hit many postings,
/// including duplicate terms) with arbitrary junk.
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
        "\\PC{0,48}",
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

/// Single-term queries: with one cursor every accumulated score is
/// exact, so the pool cut decides every document on its own.
fn single_term_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("best".to_string()),
        Just("laptops".to_string()),
        Just("battery".to_string()),
        Just("review".to_string()),
        Just("hotels".to_string()),
        Just("2025".to_string()),
    ]
}

/// Queries that analyze to nothing (stopwords) or resolve no cursors
/// (terms absent from the vocabulary) — both must yield empty SERPs
/// from every path.
fn degenerate_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("the of and".to_string()),
        Just("a an the".to_string()),
        Just("xylophonic quuxations".to_string()),
        Just("zzzzqqq wwwwvvv".to_string()),
        Just("the xylophonic of".to_string()),
        Just("".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pruned kernel, the exhaustive kernel and the reference
    /// scorer agree byte-for-byte on every engine, query and k.
    #[test]
    fn kernel_matches_reference(q in query(), k in 0usize..25, which in 0usize..6) {
        assert_all_paths_identical(&engines()[which], &q, k);
    }

    /// Overfetch larger than the matching set (k up to world size and
    /// beyond): pruning must degrade to the exhaustive pass without
    /// dropping or reordering anything.
    #[test]
    fn k_at_or_beyond_matching_docs(q in query(), k in 500usize..2000, which in 0usize..6) {
        assert_all_paths_identical(&engines()[which], &q, k);
    }

    /// Single-term queries exercise the cut on exact scores alone.
    #[test]
    fn single_term_queries_match(q in single_term_query(), k in 1usize..40, which in 0usize..6) {
        assert_all_paths_identical(&engines()[which], &q, k);
    }

    /// All-stopword / unknown-term / empty queries return empty SERPs
    /// from every path.
    #[test]
    fn degenerate_queries_are_empty_everywhere(q in degenerate_query(), k in 0usize..20, which in 0usize..6) {
        let engine = &engines()[which];
        let pruned = engine.search(&q, k);
        let exhaustive = engine.search_with_mode(&mut QueryScratch::new(), &q, k, EvalMode::Exhaustive);
        let oracle = reference::search(engine, &q, k);
        prop_assert!(pruned.results.is_empty());
        prop_assert!(exhaustive.results.is_empty());
        prop_assert!(oracle.results.is_empty());
    }

    /// The tie-dense engine (uniform static factors, no length
    /// normalization) produces equal-score clusters; whatever k cuts
    /// through a cluster, the `score desc, doc asc` order must survive
    /// pruning bit-for-bit.
    #[test]
    fn tie_clusters_straddling_the_threshold(q in single_term_query(), k in 1usize..60) {
        assert_all_paths_identical(&engines()[5], &q, k);
    }

    /// The tie-dense engine at the deepest persona pool (k = 60, so a
    /// 240-deep overfetch): equal-score clusters straddle the pool cut
    /// on multi-term queries too, and every path must keep the
    /// `score desc, doc asc` order bit-for-bit.
    #[test]
    fn tie_clusters_at_a_sixty_deep_pool(q in query()) {
        assert_all_paths_identical(&engines()[5], &q, 60);
    }

    /// A single scratch reused across an arbitrary query sequence never
    /// leaks state between queries (generation stamps + cleared buffers).
    #[test]
    fn scratch_reuse_never_leaks_state(queries in prop::collection::vec(query(), 1..6)) {
        let engine = &engines()[0];
        let mut scratch = QueryScratch::new();
        for q in &queries {
            let reused = engine.search_with(&mut scratch, q, 10);
            let fresh = engine.search_with(&mut QueryScratch::new(), q, 10);
            assert_serp_identical(&reused, &fresh);
        }
    }
}

/// Every edge input on every engine, at shallow, default and the
/// deepest persona pool depth, through every mode.
#[test]
fn edge_inputs_match_on_every_path() {
    for which in 0..engines().len() {
        for q in edge_queries() {
            for k in [1usize, 10, 60] {
                assert_all_paths_identical(&engines()[which], &q, k);
            }
        }
    }
}

/// Two consecutive queries on one scratch: the second must not see the
/// first's crowding counters or accumulator contents. The pair is chosen
/// so both queries hit overlapping hosts/documents.
#[test]
fn consecutive_queries_on_one_scratch_do_not_leak() {
    let engine = &engines()[0];
    let mut scratch = QueryScratch::new();
    let a1 = engine.search_with(&mut scratch, "best smartphones camera battery", 10);
    let b1 = engine.search_with(&mut scratch, "best smartphones 2025", 10);
    // Same queries against a never-used scratch.
    let a2 = engine.search_with(
        &mut QueryScratch::new(),
        "best smartphones camera battery",
        10,
    );
    let b2 = engine.search_with(&mut QueryScratch::new(), "best smartphones 2025", 10);
    assert_serp_identical(&a1, &a2);
    assert_serp_identical(&b1, &b2);
    // And repeating the first query after the second still agrees.
    let a3 = engine.search_with(&mut scratch, "best smartphones camera battery", 10);
    assert_serp_identical(&a3, &a2);
}

/// The kernel's crowding (dense stamped counters over interned host ids)
/// agrees with the reference's string-keyed counting on a query dense
/// enough to trigger the per-host cap.
#[test]
fn host_crowding_agrees_with_reference() {
    for engine in engines() {
        let q = "best smartphones camera battery life";
        assert_all_paths_identical(engine, q, 20);
    }
}

/// The tie-dense engine really does produce equal-score clusters (the
/// tie tests above would be vacuous otherwise), and the clusters come
/// back in ascending document order.
#[test]
fn tie_engine_produces_real_score_ties() {
    let engine = &engines()[5];
    let serp = engine.search("best", 60);
    let mut tie_pairs = 0;
    for pair in serp.results.windows(2) {
        if pair[0].score.to_bits() == pair[1].score.to_bits() {
            tie_pairs += 1;
        }
    }
    assert!(
        tie_pairs > 0,
        "expected bit-equal score ties in the tie-dense engine"
    );
    assert_serp_identical(&serp, &reference::search(engine, "best", 60));
}

/// Pruning effectiveness is visible through the public stats while the
/// output stays byte-identical — the core claim of this PR.
#[test]
fn pruning_skips_work_but_not_results() {
    let engine = &engines()[0];
    let mut pruned_scratch = QueryScratch::new();
    let mut exhaustive_scratch = QueryScratch::new();
    for q in [
        "best laptops for students",
        "best smartphones camera battery",
        "top 10 hotels 2025",
        "review espresso machines",
    ] {
        let fast = engine.search_with_mode(&mut pruned_scratch, q, 10, EvalMode::Pruned);
        let slow = engine.search_with_mode(&mut exhaustive_scratch, q, 10, EvalMode::Exhaustive);
        assert_serp_identical(&fast, &slow);
    }
    let fast_stats = pruned_scratch.take_stats();
    let slow_stats = exhaustive_scratch.take_stats();
    assert!(
        fast_stats.docs_scored < slow_stats.docs_scored,
        "pruning scored as much as the exhaustive pass: {fast_stats:?} vs {slow_stats:?}"
    );
}
