//! Query execution: the user-facing [`SearchEngine`].
//!
//! Queries run through the dense kernel in [`crate::kernel`] by default;
//! the original term-at-a-time HashMap scorer survives as
//! [`reference`], kept solely to gate the kernel with differential
//! tests (the two must return byte-identical SERPs).

use std::sync::{Arc, OnceLock};

use shift_corpus::World;
use shift_textkit::analyze;

use crate::bm25::Bm25Params;
use crate::index::{ScoreTable, SearchIndex, StaticScores};
use crate::kernel::{self, EvalMode, QueryScratch};
use crate::serp::Serp;

/// Full ranking parameterization: relevance + priors + result shaping.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingParams {
    /// BM25 core parameters.
    pub bm25: Bm25Params,
    /// Maximum proximity bonus added to the relevance score.
    pub proximity_bonus: f64,
    /// Multiplicative weight of domain authority:
    /// `score *= 1 + authority_weight * authority`.
    pub authority_weight: f64,
    /// Multiplicative weight of freshness:
    /// `score *= 1 + freshness_weight * exp(-age / half_life)`.
    pub freshness_weight: f64,
    /// Freshness half-life in days.
    pub freshness_half_life: f64,
    /// Coordination exponent: scores are multiplied by
    /// `(matched query terms / total query terms) ^ coordination`.
    /// Penalizes documents matching only the generic words of a query
    /// ("best … 2025" without the product noun). 0 disables.
    pub coordination: f64,
    /// Host-crowding limit (0 = unlimited).
    pub max_per_host: usize,
    /// Snippet width in bytes.
    pub snippet_width: usize,
}

impl RankingParams {
    /// Classic organic web ranking: authority-heavy, mildly fresh,
    /// strong host-crowding. This parameterization plays the role of
    /// Google Search in the study.
    pub fn google() -> Self {
        RankingParams {
            bm25: Bm25Params::default(),
            proximity_bonus: 1.0,
            authority_weight: 2.2,
            freshness_weight: 0.12,
            freshness_half_life: 365.0,
            coordination: 1.5,
            max_per_host: 2,
            snippet_width: 240,
        }
    }

    /// The retrieval stage behind generative engines: recency-hungry,
    /// authority-light, looser crowding. Answer engines re-filter this
    /// pool with their own citation policies.
    pub fn ai_retrieval() -> Self {
        RankingParams {
            bm25: Bm25Params::default(),
            proximity_bonus: 1.0,
            authority_weight: 0.5,
            freshness_weight: 0.9,
            freshness_half_life: 120.0,
            coordination: 1.5,
            max_per_host: 3,
            // Wide windows: AI retrieval feeds whole passages to the
            // model, so a "best of" snippet shows the head of the list.
            snippet_width: 720,
        }
    }
}

impl RankingParams {
    /// A stable 64-bit fingerprint of the full parameterization —
    /// FNV-1a over every field's bit pattern, in declaration order.
    /// Two parameterizations collide only if every field is bitwise
    /// equal, which is exactly when they produce identical SERPs; used
    /// as the cache key discriminant for SERP-level caching.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.bm25.k1.to_bits());
        mix(self.bm25.b.to_bits());
        mix(self.bm25.title_weight.to_bits());
        mix(self.proximity_bonus.to_bits());
        mix(self.authority_weight.to_bits());
        mix(self.freshness_weight.to_bits());
        mix(self.freshness_half_life.to_bits());
        mix(self.coordination.to_bits());
        mix(self.max_per_host as u64);
        mix(self.snippet_width as u64);
        h
    }
}

impl Default for RankingParams {
    fn default() -> Self {
        RankingParams::google()
    }
}

/// An executable search engine: a shared index + ranking parameters.
///
/// The index is behind an [`Arc`] so several parameterizations (Google's
/// organic ranking, the AI retrieval stage, persona variants) can share one
/// index build.
#[derive(Debug)]
pub struct SearchEngine {
    index: Arc<SearchIndex>,
    params: RankingParams,
    // This engine's handle into the index's per-params static-score
    // cache, resolved on first search. Engines sharing an index and a
    // parameterization share the underlying table.
    statics: OnceLock<Arc<StaticScores>>,
    // The precomputed per-posting BM25 impact table for this engine's
    // BM25 parameters, shared through the index's cache.
    impacts: OnceLock<Arc<ScoreTable>>,
}

impl SearchEngine {
    /// Builds an index over `world` and wraps it with `params`.
    pub fn build(world: &World, params: RankingParams) -> SearchEngine {
        SearchEngine::with_index(Arc::new(SearchIndex::build(world)), params)
    }

    /// Builds a *compressed* index over `world` (block-coded postings,
    /// packed impacts, dictionary-encoded metadata) and wraps it with
    /// `params`. SERPs are byte-identical to [`SearchEngine::build`]
    /// over the same world — gated by `tests/differential_compressed.rs`.
    pub fn build_compressed(world: &World, params: RankingParams) -> SearchEngine {
        SearchEngine::with_index(Arc::new(SearchIndex::build_compressed(world)), params)
    }

    /// Wraps an existing shared index (lets several parameterizations share
    /// one index build).
    pub fn with_index(index: Arc<SearchIndex>, params: RankingParams) -> SearchEngine {
        SearchEngine {
            index,
            params,
            statics: OnceLock::new(),
            impacts: OnceLock::new(),
        }
    }

    /// Clones the shared index handle.
    pub fn index_handle(&self) -> Arc<SearchIndex> {
        Arc::clone(&self.index)
    }

    /// The underlying index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// The active parameters.
    pub fn params(&self) -> &RankingParams {
        &self.params
    }

    /// This engine's static score factors (lazily built, then cached on
    /// the shared index keyed by the parameter triple).
    pub(crate) fn statics(&self) -> &Arc<StaticScores> {
        self.statics.get_or_init(|| {
            self.index.static_scores(
                self.params.authority_weight,
                self.params.freshness_weight,
                self.params.freshness_half_life,
            )
        })
    }

    /// This engine's precomputed per-posting impact table (lazily
    /// built, then cached on the shared index keyed by the BM25
    /// parameter triple).
    pub(crate) fn impacts(&self) -> &Arc<ScoreTable> {
        self.impacts
            .get_or_init(|| self.index.score_table(&self.params.bm25))
    }

    /// Executes a query and returns the top-`k` SERP.
    ///
    /// Convenience wrapper around [`SearchEngine::search_with`] using a
    /// per-thread [`QueryScratch`], so repeated calls on one thread
    /// reuse the same working memory.
    pub fn search(&self, query: &str, k: usize) -> Serp {
        kernel::with_thread_scratch(|scratch| self.search_with(scratch, query, k))
    }

    /// Executes a query with an explicitly managed scratch (the
    /// zero-allocation hot path for serving workers and batch runners).
    ///
    /// Runs the pruned dense kernel ([`EvalMode::Pruned`]), which
    /// returns byte-identical SERPs to the exhaustive pass — gated by
    /// `tests/differential_search.rs`.
    pub fn search_with(&self, scratch: &mut QueryScratch, query: &str, k: usize) -> Serp {
        self.search_with_mode(scratch, query, k, EvalMode::Pruned)
    }

    /// Executes a query with an explicit evaluation mode — the hook the
    /// kernel gate and differential tests use to compare the pruned
    /// kernel against the exhaustive pass on identical inputs.
    pub fn search_with_mode(
        &self,
        scratch: &mut QueryScratch,
        query: &str,
        k: usize,
        mode: EvalMode,
    ) -> Serp {
        let terms = analyze(query);
        let mut serp = Serp {
            query: query.to_string(),
            results: Vec::new(),
        };
        if terms.is_empty() || k == 0 || self.index.is_empty() {
            return serp;
        }
        serp.results = kernel::execute(
            &self.index,
            &self.params,
            self.statics(),
            self.impacts(),
            scratch,
            &terms,
            None,
            k,
            mode,
        );
        serp
    }

    /// Executes a batch of queries and returns one SERP per query, in
    /// submission order — byte-identical to calling
    /// [`SearchEngine::search_with_mode`] per query (gated by
    /// `tests/differential_batch.rs`).
    ///
    /// The default [`crate::BatchExecutor`] pins one immutable index
    /// reference per worker and streams the batch through it —
    /// per-query setup (table resolution, dictionary probes) is
    /// amortized across the batch.
    pub fn search_batch<Q: AsRef<str>>(
        &self,
        queries: &[Q],
        k: usize,
        mode: EvalMode,
    ) -> Vec<Serp> {
        crate::batch::BatchExecutor::new().run(self, queries, k, mode)
    }
}

/// The original term-at-a-time scorer, kept as the differential-test
/// oracle for the kernel.
///
/// Semantics are frozen: HashMap accumulators per document, a full sort
/// over every matching document, then host crowding. The only changes
/// from the historical implementation are shared-work fixes that cannot
/// affect output: snippets are extracted after crowding + truncation
/// instead of for the whole overfetch pool, the per-document
/// score/match/position accumulators live in one map instead of three
/// (dropping the redundant re-hash per document in the blend pass), and
/// each posting's positions are read from the store's one positions
/// array instead of a copy inside the posting.
pub mod reference {
    use std::collections::HashMap;

    use shift_textkit::analyze;

    use crate::bm25::{proximity_bonus, term_score};
    use crate::postings::DocNum;
    use crate::serp::{Serp, SerpResult};

    use super::SearchEngine;

    /// Executes `query` with the reference scorer and returns the top-`k`
    /// SERP. Byte-identical to [`SearchEngine::search`] by construction
    /// (gated in `tests/differential_search.rs`).
    pub fn search(engine: &SearchEngine, query: &str, k: usize) -> Serp {
        let terms = analyze(query);
        let mut serp = Serp {
            query: query.to_string(),
            results: Vec::new(),
        };
        if terms.is_empty() || k == 0 || engine.index.is_empty() {
            return serp;
        }
        let params = &engine.params;

        let store = engine.index.postings();
        let doc_count = store.doc_count();
        let avg_len = store.avg_doc_len();

        // Accumulate BM25, match counts and per-term positions per
        // document — one map, so the blend pass hashes each doc once.
        struct Acc<'a> {
            score: f64,
            matched: u32,
            positions: Vec<&'a [u32]>,
        }
        let mut accs: HashMap<DocNum, Acc> = HashMap::new();
        for term in &terms {
            let Some(id) = store.term_id(term) else {
                continue;
            };
            let postings = store.postings_by_id(id);
            let df = postings.len() as u32;
            for (at, posting) in postings.iter().enumerate() {
                let meta = engine.index.doc(posting.doc);
                let s = term_score(
                    &params.bm25,
                    posting,
                    df,
                    doc_count,
                    f64::from(meta.token_len),
                    avg_len,
                );
                let acc = accs.entry(posting.doc).or_insert(Acc {
                    score: 0.0,
                    matched: 0,
                    positions: Vec::new(),
                });
                acc.score += s;
                acc.matched += 1;
                acc.positions.push(store.positions_by_id(id, at));
            }
        }

        // Blend with proximity, authority and freshness.
        let mut ranked: Vec<(DocNum, f64)> = accs
            .into_iter()
            .map(|(doc, acc)| {
                let mut score = acc.score;
                score += proximity_bonus(&acc.positions, params.proximity_bonus);
                let meta = engine.index.doc(doc);
                let fresh = (-meta.age_days / params.freshness_half_life).exp();
                score *= 1.0 + params.authority_weight * meta.authority;
                score *= 1.0 + params.freshness_weight * fresh;
                if params.coordination > 0.0 {
                    let coverage = f64::from(acc.matched) / terms.len() as f64;
                    score *= coverage.powf(params.coordination);
                }
                (doc, score)
            })
            .collect();
        // Deterministic ordering: score desc, then doc id asc.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // Over-fetch before crowding so the limit doesn't starve the SERP.
        let overfetch = (k * 4).max(k + 8);
        ranked.truncate(overfetch);

        // Host crowding (the same first-come counting as
        // `serp::apply_host_crowding`, run on doc metadata), then
        // truncation to k.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut kept: Vec<(DocNum, f64)> = Vec::with_capacity(k.min(ranked.len()));
        for &(doc, score) in &ranked {
            if params.max_per_host > 0 {
                let c = counts.entry(&*engine.index.doc(doc).host).or_insert(0);
                *c += 1;
                if *c > params.max_per_host {
                    continue;
                }
            }
            kept.push((doc, score));
            if kept.len() == k {
                break;
            }
        }

        // Materialize only the survivors — extracting snippets for the
        // full overfetch pool was pure waste.
        serp.results = kept
            .into_iter()
            .map(|(doc, score)| {
                let meta = engine.index.doc(doc);
                SerpResult {
                    page: meta.page,
                    url: meta.url.clone(),
                    host: meta.host.clone(),
                    score,
                    title: meta.title.clone(),
                    snippet: extract_snippet(&meta.body, &terms, params.snippet_width).into(),
                    source_type: meta.source_type,
                    age_days: meta.age_days,
                }
            })
            .collect();
        serp
    }

    /// A frozen copy of the snippet extraction, kept apart from
    /// [`crate::serp::extract_snippet`] so the differential suites check
    /// the kernel's in-place locator against these semantics instead of
    /// against itself: lowercase the body, take the first hit of any term
    /// in it, and map that offset back to the char of the body it starts
    /// in.
    pub fn extract_snippet(body: &str, query_terms: &[String], width: usize) -> String {
        let lower = body.to_lowercase();
        let hit = query_terms
            .iter()
            .filter_map(|t| lower.find(t.as_str()))
            .min();
        let center = match hit {
            Some(hit) => {
                let mut lower_end = 0;
                body.char_indices()
                    .find(|&(_, c)| {
                        lower_end += c.to_lowercase().map(char::len_utf8).sum::<usize>();
                        lower_end > hit
                    })
                    .map_or(body.len(), |(at, _)| at)
            }
            None => 0,
        };
        let half = width / 2;
        let mut start = center.saturating_sub(half);
        let mut end = (center + half).min(body.len());
        while start > 0 && !body.is_char_boundary(start) {
            start -= 1;
        }
        while end < body.len() && !body.is_char_boundary(end) {
            end += 1;
        }
        let mut snippet = String::new();
        if start > 0 {
            snippet.push('…');
        }
        snippet.push_str(body[start..end].trim());
        if end < body.len() {
            snippet.push('…');
        }
        snippet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::WorldConfig;
    use std::collections::HashMap;

    fn engine() -> (World, SearchEngine) {
        let world = World::generate(&WorldConfig::small(), 31);
        let engine = SearchEngine::build(&world, RankingParams::google());
        (world, engine)
    }

    #[test]
    fn returns_topically_relevant_results() {
        let (world, engine) = engine();
        let serp = engine.search("best laptops for students", 10);
        assert!(!serp.results.is_empty());
        // A majority of top results should come from the laptops topic.
        let (laptop_topic, _) = shift_corpus::topics::topic_by_key("laptops").unwrap();
        let on_topic = serp
            .results
            .iter()
            .filter(|r| world.page(r.page).topic == laptop_topic)
            .count();
        assert!(
            on_topic * 2 >= serp.results.len(),
            "{on_topic}/{} on-topic",
            serp.results.len()
        );
    }

    #[test]
    fn scores_are_descending_and_k_respected() {
        let (_, engine) = engine();
        let serp = engine.search("most reliable SUVs", 5);
        assert!(serp.results.len() <= 5);
        for pair in serp.results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn empty_and_stopword_queries_return_nothing() {
        let (_, engine) = engine();
        assert!(engine.search("", 10).results.is_empty());
        assert!(engine.search("the of and", 10).results.is_empty());
        assert!(engine.search("best laptops", 0).results.is_empty());
    }

    #[test]
    fn host_crowding_enforced() {
        let (_, engine) = engine();
        let serp = engine.search("best smartphones camera battery", 10);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for r in &serp.results {
            *counts.entry(&*r.host).or_insert(0) += 1;
        }
        for (host, n) in counts {
            assert!(n <= 2, "host {host} appears {n} times");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let (_, engine) = engine();
        let a = engine.search("best hotels rewards", 10);
        let b = engine.search("best hotels rewards", 10);
        assert_eq!(a.urls(), b.urls());
    }

    #[test]
    fn explicit_scratch_matches_thread_scratch() {
        let (_, engine) = engine();
        let mut scratch = QueryScratch::new();
        let a = engine.search_with(&mut scratch, "best hotels rewards", 10);
        let b = engine.search("best hotels rewards", 10);
        assert_eq!(a.urls(), b.urls());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.snippet, y.snippet);
        }
    }

    #[test]
    fn engines_sharing_index_and_params_share_statics() {
        let world = World::generate(&WorldConfig::small(), 31);
        let a = SearchEngine::build(&world, RankingParams::google());
        let b = SearchEngine::with_index(a.index_handle(), RankingParams::google());
        let _ = a.search("best laptops", 5);
        let _ = b.search("best laptops", 5);
        assert!(Arc::ptr_eq(a.statics(), b.statics()));
    }

    #[test]
    fn google_params_rank_older_authority_higher_than_ai_params() {
        let world = World::generate(&WorldConfig::small(), 31);
        let google = SearchEngine::build(&world, RankingParams::google());
        let ai = SearchEngine::build(&world, RankingParams::ai_retrieval());
        let q = "best smartwatches gps battery";
        let g_age: f64 = {
            let r = google.search(q, 10).results;
            r.iter().map(|x| x.age_days).sum::<f64>() / r.len().max(1) as f64
        };
        let a_age: f64 = {
            let r = ai.search(q, 10).results;
            r.iter().map(|x| x.age_days).sum::<f64>() / r.len().max(1) as f64
        };
        assert!(
            a_age <= g_age,
            "ai retrieval ({a_age:.0}d) should surface fresher pages than google ({g_age:.0}d)"
        );
    }

    #[test]
    fn entity_query_finds_entity_pages() {
        let (world, engine) = engine();
        let serp = engine.search("Toyota RAV4 review", 10);
        assert!(!serp.results.is_empty());
        let toyota = world.entity_by_name("Toyota RAV4").unwrap();
        let mentions = serp
            .results
            .iter()
            .filter(|r| world.page(r.page).mentions_entity(toyota))
            .count();
        assert!(mentions > 0, "no result mentions the queried entity");
    }

    #[test]
    fn snippets_are_nonempty() {
        let (_, engine) = engine();
        let serp = engine.search("best credit cards cashback", 8);
        for r in &serp.results {
            assert!(!r.snippet.is_empty(), "empty snippet for {}", r.url);
        }
    }
}
