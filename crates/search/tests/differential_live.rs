//! Differential gate for the live index: a point-in-time snapshot of a
//! [`LiveIndex`] that absorbed the first `cut` timeline events must
//! serve SERPs **byte-identical** to a batch [`SearchEngine`] built
//! over the oracle world (`Timeline::world_at`) holding exactly the
//! same live page versions — across ranking parameterizations, flush /
//! compaction layouts (including randomly injected flush points), both
//! evaluation modes, and arbitrary cut points. Scores compare at the
//! bit level, not with a tolerance.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use shift_corpus::{EventKind, Timeline, TimelineConfig, World, WorldConfig};
use shift_search::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveIndexStats, LiveSearcher};
use shift_search::{EvalMode, QueryScratch, RankingParams, SearchEngine, Serp};

/// The five ranking parameterizations under test: the two study
/// configurations, a disabled-features one, a tie-dense one, and a
/// crowding-tight one.
fn params_set() -> Vec<RankingParams> {
    let bare = RankingParams {
        proximity_bonus: 0.0,
        coordination: 0.0,
        max_per_host: 0,
        ..RankingParams::google()
    };
    let mut ties = RankingParams {
        proximity_bonus: 0.0,
        coordination: 0.0,
        max_per_host: 0,
        authority_weight: 0.0,
        freshness_weight: 0.0,
        ..RankingParams::google()
    };
    ties.bm25.b = 0.0;
    let tight = RankingParams {
        max_per_host: 1,
        ..RankingParams::ai_retrieval()
    };
    vec![
        RankingParams::google(),
        RankingParams::ai_retrieval(),
        bare,
        ties,
        tight,
    ]
}

/// Three contrasting segment layouts over the same event stream: the
/// test default (flushes + occasional merges), an aggressive 2-way
/// always-compact stack, and a never-flushing pure-memtable snapshot.
fn live_configs() -> Vec<LiveIndexConfig> {
    vec![
        LiveIndexConfig::tiny(42),
        LiveIndexConfig {
            flush_bytes: 6 * 1024,
            compact_trigger: 2,
            fanin_min: 2,
            fanin_max: 2,
            seed: 7,
        },
        LiveIndexConfig {
            flush_bytes: usize::MAX,
            compact_trigger: 4,
            fanin_min: 2,
            fanin_max: 3,
            seed: 1,
        },
    ]
}

fn base_world() -> World {
    World::generate(&WorldConfig::small(), 4040)
}

fn timeline() -> &'static Timeline {
    static TIMELINE: OnceLock<Timeline> = OnceLock::new();
    TIMELINE.get_or_init(|| Timeline::generate(&base_world(), &TimelineConfig::dense(), 5))
}

/// Replays the first `cut` events into a fresh live index, forcing a
/// memtable flush after each applied-event index in `forced_flushes`
/// (segment layout must never leak into SERPs).
fn live_index_at(config: LiveIndexConfig, cut: usize, forced_flushes: &[usize]) -> LiveIndex {
    let world = base_world();
    let mut index = LiveIndex::new(config);
    for (i, event) in timeline().events()[..cut].iter().enumerate() {
        match event.kind {
            EventKind::Delete => index.delete(event.page.id),
            EventKind::Publish | EventKind::Update => {
                index.upsert(LiveDoc::from_page(&world, &event.page));
            }
        }
        if forced_flushes.contains(&i) {
            index.flush();
        }
    }
    index
}

/// Everything cached for one cut point: the batch oracle per params and
/// a snapshot searcher per (live config, params).
struct CutFixture {
    cut: usize,
    oracles: Vec<SearchEngine>,
    searchers: Vec<Vec<LiveSearcher>>,
}

fn cuts() -> &'static Vec<CutFixture> {
    static CUTS: OnceLock<Vec<CutFixture>> = OnceLock::new();
    CUTS.get_or_init(|| {
        let world = base_world();
        let n = timeline().len();
        [n / 4, n / 2, 3 * n / 4, n]
            .into_iter()
            .map(|cut| {
                let oracle_world = timeline().world_at(&world, cut);
                let oracles = params_set()
                    .into_iter()
                    .map(|p| SearchEngine::build(&oracle_world, p))
                    .collect();
                let searchers = live_configs()
                    .into_iter()
                    .map(|config| {
                        let snapshot = Arc::new(live_index_at(config, cut, &[]).snapshot());
                        params_set()
                            .into_iter()
                            .map(|p| LiveSearcher::new(Arc::clone(&snapshot), p))
                            .collect()
                    })
                    .collect();
                CutFixture {
                    cut,
                    oracles,
                    searchers,
                }
            })
            .collect()
    })
}

/// Full structural equality with bit-exact scores.
fn assert_serp_identical(live: &Serp, oracle: &Serp) {
    assert_eq!(live.query, oracle.query);
    assert_eq!(
        live.results.len(),
        oracle.results.len(),
        "result counts differ"
    );
    for (i, (a, b)) in live.results.iter().zip(&oracle.results).enumerate() {
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

/// Both snapshot evaluation modes — pruned and exhaustive — must
/// reproduce the batch oracle.
fn assert_snapshot_matches_oracle(c: &CutFixture, cfg: usize, p: usize, q: &str, k: usize) {
    let oracle = c.oracles[p].search(q, k);
    let searcher = &c.searchers[cfg][p];
    let mut scratch = QueryScratch::new();
    let pruned = searcher.search_with_mode(&mut scratch, q, k, EvalMode::Pruned);
    let exhaustive = searcher.search_with_mode(&mut scratch, q, k, EvalMode::Exhaustive);
    assert_serp_identical(&pruned, &oracle);
    assert_serp_identical(&exhaustive, &oracle);
}

/// Realistic query templates (many postings, duplicate terms) plus junk.
fn query() -> impl Strategy<Value = String> {
    prop_oneof![
        (
            prop_oneof![
                Just("best"),
                Just("top 10"),
                Just("most reliable"),
                Just("review"),
            ],
            prop_oneof![
                Just("smartphones"),
                Just("laptops"),
                Just("hotels"),
                Just("credit cards"),
                Just("espresso machines"),
                Just("smartwatches battery"),
            ],
            prop_oneof![
                Just(""),
                Just(" 2025"),
                Just(" for students"),
                Just(" battery battery"),
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

/// Every cut × layout × params combination on a fixed query panel
/// (with the edge inputs), up to the deepest persona pool (k = 60),
/// where the tie-dense parameterization's clusters straddle every
/// segment's cut.
#[test]
fn snapshots_match_batch_oracle_everywhere() {
    let mut queries: Vec<String> = [
        "best laptops for students",
        "best smartphones camera battery",
        "top 10 hotels 2025",
        "review espresso machines",
    ]
    .map(String::from)
    .to_vec();
    queries.extend(edge_queries());
    for c in cuts() {
        for cfg in 0..c.searchers.len() {
            for p in 0..c.oracles.len() {
                for q in &queries {
                    for k in [1usize, 10, 60] {
                        assert_snapshot_matches_oracle(c, cfg, p, q, k);
                    }
                }
            }
        }
    }
}

/// An update's newest body — including the editor's-note suffix only
/// the latest revision carries — is what the snapshot snippets serve.
#[test]
fn snapshots_serve_newest_versions() {
    let c = cuts().last().unwrap();
    assert_eq!(c.cut, timeline().len());
    let oracle = c.oracles[1].search("prices availability rankings rechecked", 10);
    let live = c.searchers[0][1].search("prices availability rankings rechecked", 10);
    assert_serp_identical(&live, &oracle);
    assert!(
        !live.results.is_empty(),
        "updated revisions must be retrievable"
    );
}

/// The snapshot's visible-doc roll-up equals the oracle's corpus size,
/// for every layout at every cut; stored versions never shrink below it.
#[test]
fn snapshot_alive_counts_match_oracle() {
    for c in cuts() {
        let oracle_docs = c.oracles[0].index().postings().doc_count() as usize;
        for searchers in &c.searchers {
            let stats = LiveIndexStats::rollup(&searchers[0].segment_stats());
            assert_eq!(stats.alive, oracle_docs, "at cut {}", c.cut);
            assert!(stats.docs >= stats.alive);
            assert!(stats.read_amplification() >= 1.0);
            assert!(stats.postings_bytes > 0);
        }
    }
}

/// An empty prefix yields an empty snapshot that answers everything
/// with an empty SERP from both modes.
#[test]
fn cut_zero_serves_empty_serps() {
    let snapshot = Arc::new(live_index_at(LiveIndexConfig::tiny(42), 0, &[]).snapshot());
    assert!(snapshot.is_empty());
    for p in params_set() {
        let searcher = LiveSearcher::new(Arc::clone(&snapshot), p);
        let serp = searcher.search("best laptops", 10);
        assert!(serp.results.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random queries and depths across every cached cut, segment
    /// layout and parameterization.
    #[test]
    fn random_queries_match_oracle(
        q in query(),
        k in 0usize..25,
        cut_ix in 0usize..4,
        cfg in 0usize..3,
        p in 0usize..5,
    ) {
        assert_snapshot_matches_oracle(&cuts()[cut_ix], cfg, p, &q, k);
    }

    /// Depths at or beyond the matching set: every segment degrades to
    /// an exhaustive local scan and the merge must still be exact.
    #[test]
    fn k_beyond_matching_docs_matches_oracle(
        q in query(),
        k in 500usize..1200,
        cut_ix in 0usize..4,
        p in 0usize..5,
    ) {
        assert_snapshot_matches_oracle(&cuts()[cut_ix], 0, p, &q, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random flush/compaction layouts: arbitrary config knobs plus
    /// forced flush injections at random event indices must leave the
    /// SERPs byte-identical to the cached fixed-layout snapshot (which
    /// the tests above pin to the batch oracle).
    #[test]
    fn random_layouts_are_invisible_in_serps(
        flush_bytes in 2048usize..32768,
        compact_trigger in 2usize..6,
        fanin_max in 2usize..5,
        seed in 0u64..1000,
        forced in prop::collection::vec(0usize..5000, 0..4),
        q in query(),
        k in 1usize..20,
        cut_ix in 0usize..4,
        p in 0usize..5,
    ) {
        let c = &cuts()[cut_ix];
        let config = LiveIndexConfig {
            flush_bytes,
            compact_trigger,
            fanin_min: 2,
            fanin_max,
            seed,
        };
        let snapshot = Arc::new(live_index_at(config, c.cut, &forced).snapshot());
        let searcher = LiveSearcher::new(snapshot, params_set().swap_remove(p));
        let live = searcher.search(&q, k);
        let oracle = c.oracles[p].search(&q, k);
        assert_serp_identical(&live, &oracle);
        // No flush/compaction layout may leak through the exhaustive
        // pass either.
        let exhaustive =
            searcher.search_with_mode(&mut QueryScratch::new(), &q, k, EvalMode::Exhaustive);
        assert_serp_identical(&exhaustive, &oracle);
    }
}
