//! Differential gate for the compressed read path: an engine built
//! with [`SearchEngine::build_compressed`] (delta/bit-packed postings,
//! packed impacts, dictionary-encoded doc metadata) must return SERPs
//! byte-identical to the raw-layout engine over the same world and
//! parameterization — and to the frozen reference oracle — for every
//! query, k and evaluation mode. Scores are compared at the bit level,
//! not with a tolerance.

use std::sync::OnceLock;

use proptest::prelude::*;
use shift_corpus::{World, WorldConfig};
use shift_search::query::reference;
use shift_search::{EvalMode, QueryScratch, RankingParams, SearchEngine, Serp};

/// Raw/compressed engine twins over two worlds × the two study
/// parameterizations, plus the tie-dense stress parameterization
/// (uniform statics, no length normalization) whose equal-score
/// clusters are the adversarial case for block-granular seeks.
fn twins() -> &'static Vec<(SearchEngine, SearchEngine)> {
    static TWINS: OnceLock<Vec<(SearchEngine, SearchEngine)>> = OnceLock::new();
    TWINS.get_or_init(|| {
        let mut twins = Vec::new();
        for seed in [4040u64, 91] {
            let world = World::generate(&WorldConfig::small(), seed);
            for params in [RankingParams::google(), RankingParams::ai_retrieval()] {
                twins.push((
                    SearchEngine::build(&world, params.clone()),
                    SearchEngine::build_compressed(&world, params),
                ));
            }
        }
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
        twins.push((
            SearchEngine::build(&world, ties.clone()),
            SearchEngine::build_compressed(&world, ties),
        ));
        twins
    })
}

/// Full structural equality with bit-exact scores.
fn assert_serp_identical(got: &Serp, want: &Serp) {
    assert_eq!(got.query, want.query);
    assert_eq!(
        got.results.len(),
        want.results.len(),
        "result counts differ"
    );
    for (i, (a, b)) in got.results.iter().zip(&want.results).enumerate() {
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

/// The compressed engine's pruned and exhaustive modes must both match
/// the raw engine's pruned SERP and the reference oracle byte-for-byte.
fn assert_compressed_matches_raw(which: usize, q: &str, k: usize) {
    let (raw, compressed) = &twins()[which];
    let base = raw.search(q, k);
    let oracle = reference::search(raw, q, k);
    let pruned = compressed.search(q, k);
    let exhaustive =
        compressed.search_with_mode(&mut QueryScratch::new(), q, k, EvalMode::Exhaustive);
    assert_serp_identical(&base, &oracle);
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
/// exact, so the packed-block scan and the pool cut act alone.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compressed pruned, compressed exhaustive, raw pruned and the
    /// reference oracle agree byte-for-byte on every twin, query and k.
    #[test]
    fn compressed_matches_raw_and_oracle(q in query(), k in 0usize..25, which in 0usize..5) {
        assert_compressed_matches_raw(which, &q, k);
    }

    /// Overfetch larger than the matching set: the compressed kernel
    /// degrades to an exhaustive pass (every block decoded in order)
    /// without dropping or reordering anything.
    #[test]
    fn compressed_k_at_or_beyond_matching_docs(q in query(), k in 500usize..2000, which in 0usize..5) {
        assert_compressed_matches_raw(which, &q, k);
    }

    /// Single-term queries exercise the packed-block scan with exact
    /// accumulated scores.
    #[test]
    fn compressed_single_term_queries_match(q in single_term_query(), k in 1usize..40, which in 0usize..5) {
        assert_compressed_matches_raw(which, &q, k);
    }

    /// The tie-dense twin: equal-score clusters straddle the heap
    /// threshold, so any off-by-one-posting seek error in the packed
    /// cursors surfaces as a reordered tie. Must survive bit-for-bit.
    #[test]
    fn compressed_tie_clusters_survive(q in single_term_query(), k in 1usize..60) {
        assert_compressed_matches_raw(4, &q, k);
    }

    /// The tie-dense twin at the deepest persona pool (k = 60): tie
    /// clusters straddle the pool cut on multi-term queries too.
    #[test]
    fn compressed_tie_clusters_at_a_sixty_deep_pool(q in query()) {
        assert_compressed_matches_raw(4, &q, 60);
    }
}

/// Every edge input on every twin at shallow, default and the deepest
/// persona pool depth.
#[test]
fn edge_inputs_match_raw_and_oracle() {
    for which in 0..twins().len() {
        for q in edge_queries() {
            for k in [1usize, 10, 60] {
                assert_compressed_matches_raw(which, &q, k);
            }
        }
    }
}

/// The paper-artifact scale: the committed query templates on the full
/// ≈2k-page world, raw vs compressed, pruned and exhaustive. A single
/// larger-scale anchor on top of the small-world property sweeps.
#[test]
fn paper_scale_compressed_matches_raw() {
    let world = World::generate(&WorldConfig::paper(), 20251101);
    let raw = SearchEngine::build(&world, RankingParams::google());
    let compressed = SearchEngine::build_compressed(&world, RankingParams::google());
    assert!(compressed.index().is_compressed());
    assert!(!raw.index().is_compressed());
    for q in [
        "best laptops for students",
        "best smartphones camera battery",
        "top 10 hotels 2025",
        "review espresso machines",
        "most reliable SUVs",
        "battery",
    ] {
        for k in [1usize, 10, 100] {
            let base = raw.search(q, k);
            assert_serp_identical(&compressed.search(q, k), &base);
            let exhaustive =
                compressed.search_with_mode(&mut QueryScratch::new(), q, k, EvalMode::Exhaustive);
            assert_serp_identical(&exhaustive, &base);
        }
    }
    // The compressed layout actually compresses: held bytes stay well
    // under the raw-layout extrapolation for the same index.
    let stats = compressed.index().stats();
    assert!(stats.compressed_bytes < stats.raw_bytes);
    assert!(
        stats.ratio() < 0.6,
        "expected a real size win, got ratio {:.3}",
        stats.ratio()
    );
}

/// The doc-metadata dictionary round-trips every field: raw and
/// compact stores agree on url, host, title, body and numerics for
/// every document in the world.
#[test]
fn doc_metadata_dictionary_roundtrips() {
    let world = World::generate(&WorldConfig::small(), 4040);
    let raw = SearchEngine::build(&world, RankingParams::google());
    let compressed = SearchEngine::build_compressed(&world, RankingParams::google());
    let n = raw.index().postings().doc_count();
    assert_eq!(n, compressed.index().postings().doc_count());
    for doc in 0..n {
        let a = raw.index().doc_fields(doc);
        let b = compressed.index().doc_fields(doc);
        assert_eq!(a.url, b.url, "url diverges at doc {doc}");
        assert_eq!(a.host, b.host);
        assert_eq!(a.host_id, b.host_id);
        assert_eq!(a.page, b.page);
        assert_eq!(a.title, b.title);
        assert_eq!(a.body, b.body);
        assert_eq!(a.token_len, b.token_len);
        assert_eq!(a.title_len, b.title_len);
        assert_eq!(a.authority.to_bits(), b.authority.to_bits());
        assert_eq!(a.age_days.to_bits(), b.age_days.to_bits());
        assert_eq!(a.source_type, b.source_type);
    }
}
