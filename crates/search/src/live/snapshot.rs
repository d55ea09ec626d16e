//! Point-in-time snapshot readers.
//!
//! A [`LiveSnapshot`] freezes the live index's state — every flushed
//! segment plus the memtable frozen as one more (newest) segment — and
//! resolves shadowing once: newest-first, a page's visible version is
//! the one in the youngest run that mentions it (tombstones mention
//! pages too, making them invisible). The result is, per segment, an
//! *alive* bitmap and a map from segment-local document numbers to
//! **snapshot-global** ones, where global numbering is ascending page
//! id over all visible versions — exactly the document order
//! [`crate::SearchIndex::build`] would produce over the same live page
//! set. On top of that the snapshot computes the *global* collection
//! statistics (visible doc count, exact integer token total, per-term
//! union document frequencies), so a [`LiveSearcher`]'s per-segment
//! impact/static tables are built from the same inputs a batch
//! build would use — the keystone of the byte-identical-SERP guarantee
//! the differential suite (`tests/differential_live.rs`) enforces.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use shift_textkit::analyze;

use crate::bm25::{idf, term_score_tf};
use crate::docstore::DocFields;
use crate::index::{DocMeta, ScoreTable, StaticScores};
use crate::kernel::{self, EvalMode, QueryScratch, SegmentRun, View};
use crate::postings::{DocNum, PostingsStore, TermId};
use crate::query::RankingParams;
use crate::serp::{Serp, SerpResult};

use super::segment::{Segment, SegmentStats};

/// An immutable, fully resolved view of the live index at one instant.
/// Parameter-independent: any number of [`LiveSearcher`]s (one per
/// ranking parameterization) can share a snapshot.
#[derive(Debug)]
pub struct LiveSnapshot {
    /// All runs, oldest first; the frozen memtable is the last entry.
    segments: Vec<Arc<Segment>>,
    /// Per segment: is the local document the page's visible version?
    alive: Vec<Vec<bool>>,
    /// Per segment: local doc number → snapshot-global doc number
    /// (`DocNum::MAX` for shadowed/tombstoned versions, never read).
    global_of: Vec<Vec<DocNum>>,
    /// Global doc number → (segment index, local doc number).
    winners: Vec<(u32, u32)>,
    /// Global doc number → snapshot-interned host id.
    host_ids: Vec<u32>,
    /// Distinct hosts among visible documents.
    host_count: u32,
    /// Visible documents.
    doc_count: u32,
    /// Exact integer token total over visible documents — divided by
    /// `doc_count` this is bit-identical to the batch index's
    /// `avg_doc_len` over the same pages.
    total_tokens: u64,
    /// Per segment: term id → snapshot-global document frequency (the
    /// number of *visible* documents, across all segments, containing
    /// the term).
    seg_df: Vec<Vec<u32>>,
    /// Per segment: visible-version count (for stats reports).
    alive_counts: Vec<usize>,
}

impl LiveSnapshot {
    /// Resolves shadowing and global statistics over the given runs
    /// (oldest first; the caller appends the frozen memtable last).
    pub(crate) fn build(segments: Vec<Arc<Segment>>) -> LiveSnapshot {
        // Newest-first claim resolution: the youngest run that mentions
        // a page (version or tombstone) decides its visibility.
        let mut claimed: HashSet<u32> = HashSet::new();
        let mut alive: Vec<Vec<bool>> = segments.iter().map(|s| vec![false; s.len()]).collect();
        for (si, seg) in segments.iter().enumerate().rev() {
            for t in seg.tombstones() {
                claimed.insert(t.0);
            }
            for (local, meta) in seg.metas().iter().enumerate() {
                if claimed.insert(meta.page.0) {
                    alive[si][local] = true;
                }
            }
        }

        // Global numbering: ascending page id over visible versions.
        let mut by_page: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for (si, seg) in segments.iter().enumerate() {
            for (local, meta) in seg.metas().iter().enumerate() {
                if alive[si][local] {
                    by_page.insert(meta.page.0, (si as u32, local as u32));
                }
            }
        }
        let winners: Vec<(u32, u32)> = by_page.into_values().collect();
        let mut global_of: Vec<Vec<DocNum>> = segments
            .iter()
            .map(|s| vec![DocNum::MAX; s.len()])
            .collect();
        for (g, &(si, local)) in winners.iter().enumerate() {
            global_of[si as usize][local as usize] = g as DocNum;
        }

        // Host interning in global doc order — the same first-seen
        // order the batch build's host map would assign over the same
        // page sequence.
        let mut hosts: HashMap<String, u32> = HashMap::new();
        let mut host_ids = Vec::with_capacity(winners.len());
        let mut total_tokens: u64 = 0;
        for &(si, local) in &winners {
            let meta = &segments[si as usize].metas()[local as usize];
            let next = hosts.len() as u32;
            let id = *hosts.entry(meta.host.clone()).or_insert(next);
            host_ids.push(id);
            total_tokens += u64::from(meta.token_len);
        }

        // Union document frequencies: each visible document lives in
        // exactly one segment, so summing per-segment alive posting
        // counts per term *string* gives the global df.
        let mut global_df: HashMap<String, u32> = HashMap::new();
        let mut per_seg_counts: Vec<Vec<u32>> = Vec::with_capacity(segments.len());
        for (si, seg) in segments.iter().enumerate() {
            let store = seg.store();
            let mut counts = vec![0u32; store.vocabulary_size()];
            for (term, id) in store.terms() {
                let mut n = 0u32;
                store.for_each_doc(id, |_, d| {
                    if alive[si][d as usize] {
                        n += 1;
                    }
                });
                counts[id as usize] = n;
                if n > 0 {
                    *global_df.entry(term.to_string()).or_insert(0) += n;
                }
            }
            per_seg_counts.push(counts);
        }
        let seg_df: Vec<Vec<u32>> = segments
            .iter()
            .map(|seg| {
                let store = seg.store();
                let mut df = vec![0u32; store.vocabulary_size()];
                for (term, id) in store.terms() {
                    df[id as usize] = global_df.get(term).copied().unwrap_or(0);
                }
                df
            })
            .collect();
        drop(per_seg_counts);

        let alive_counts = alive
            .iter()
            .map(|a| a.iter().filter(|&&x| x).count())
            .collect();
        LiveSnapshot {
            doc_count: winners.len() as u32,
            host_count: hosts.len() as u32,
            segments,
            alive,
            global_of,
            winners,
            host_ids,
            total_tokens,
            seg_df,
            alive_counts,
        }
    }

    /// Visible documents.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// True when no document is visible.
    pub fn is_empty(&self) -> bool {
        self.doc_count == 0
    }

    /// Runs in the snapshot (flushed segments + frozen memtable).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total stored versions across runs (alive + shadowed); divided
    /// by [`LiveSnapshot::doc_count`] this is the snapshot's
    /// read-amplification factor.
    pub fn stored_docs(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Metadata of a visible document by snapshot-global number.
    pub fn meta(&self, doc: DocNum) -> &DocMeta {
        let (si, local) = self.winners[doc as usize];
        &self.segments[si as usize].metas()[local as usize]
    }

    /// [`LiveSnapshot::meta`] as the kernel reads it, with the
    /// snapshot-interned host id.
    fn fields(&self, doc: DocNum) -> DocFields<'_> {
        DocFields {
            host_id: self.host_ids[doc as usize],
            ..self.meta(doc).fields()
        }
    }
}

/// A ranking-parameterized reader over one snapshot: per-segment
/// impact and static tables built against the snapshot-global
/// statistics, plus the query entry points mirroring
/// [`crate::SearchEngine`].
pub struct LiveSearcher {
    snapshot: Arc<LiveSnapshot>,
    params: RankingParams,
    statics: Vec<StaticScores>,
    impacts: Vec<ScoreTable>,
}

impl LiveSearcher {
    /// Builds the per-segment tables for `params`.
    ///
    /// Each table entry calls exactly the function the batch build
    /// calls ([`term_score_idf`], the static
    /// factor formulas) with the *snapshot-global* doc count, average
    /// length and union df — so a visible document's cached impact is
    /// bit-identical to its impact in a batch index over the same live
    /// page set.
    pub fn new(snapshot: Arc<LiveSnapshot>, params: RankingParams) -> LiveSearcher {
        let doc_count = snapshot.doc_count;
        let avg_len = if doc_count == 0 {
            0.0
        } else {
            snapshot.total_tokens as f64 / doc_count as f64
        };
        let mut statics = Vec::with_capacity(snapshot.segments.len());
        let mut impacts = Vec::with_capacity(snapshot.segments.len());
        for (si, seg) in snapshot.segments.iter().enumerate() {
            let store = seg.store();
            let metas = seg.metas();
            let df = &snapshot.seg_df[si];

            statics.push(
                metas
                    .iter()
                    .map(|m| {
                        let fresh = (-m.age_days / params.freshness_half_life).exp();
                        (
                            1.0 + params.authority_weight * m.authority,
                            1.0 + params.freshness_weight * fresh,
                        )
                    })
                    .collect(),
            );

            let vocab = store.vocabulary_size();
            let mut scores = Vec::with_capacity(vocab);
            for term in 0..vocab as TermId {
                let term_idf = idf(doc_count, df[term as usize]);
                let mut list = Vec::with_capacity(store.doc_freq_by_id(term) as usize);
                store.for_each_posting(term, |_, doc, title_tf, body_tf| {
                    let doc_len = f64::from(metas[doc as usize].token_len);
                    list.push(term_score_tf(
                        &params.bm25,
                        title_tf,
                        body_tf,
                        term_idf,
                        doc_len,
                        avg_len,
                    ));
                });
                scores.push(list);
            }
            // Impacts stay raw even though segments store compressed
            // postings: this table is an ephemeral per-snapshot query
            // cache (rebuilt on every searcher, never part of segment
            // storage), and live segments are small enough that packing
            // would trade hot-loop bit extraction for negligible bytes.
            impacts.push(ScoreTable::from_term_lists(scores, false));
        }
        LiveSearcher {
            snapshot,
            params,
            statics,
            impacts,
        }
    }

    /// The snapshot this searcher reads.
    pub fn snapshot(&self) -> &Arc<LiveSnapshot> {
        &self.snapshot
    }

    /// The ranking parameters.
    pub fn params(&self) -> &RankingParams {
        &self.params
    }

    /// Searches with this thread's shared scratch.
    pub fn search(&self, query: &str, k: usize) -> Serp {
        kernel::with_thread_scratch(|scratch| self.search_with(scratch, query, k))
    }

    /// Searches with an explicit scratch (default pruned mode).
    pub fn search_with(&self, scratch: &mut QueryScratch, query: &str, k: usize) -> Serp {
        self.search_with_mode(scratch, query, k, EvalMode::Pruned)
    }

    /// Searches with an explicit scratch and evaluation mode.
    pub fn search_with_mode(
        &self,
        scratch: &mut QueryScratch,
        query: &str,
        k: usize,
        mode: EvalMode,
    ) -> Serp {
        let mut serp = Serp {
            query: query.to_string(),
            results: Vec::new(),
        };
        let terms = analyze(query);
        if terms.is_empty() || k == 0 || self.snapshot.is_empty() {
            return serp;
        }
        serp.results = self.run(scratch, &terms, None, k, mode);
        serp
    }

    /// Executes a batch of queries and returns one SERP per query, in
    /// submission order — byte-identical to per-query
    /// [`LiveSearcher::search_with_mode`] (gated by
    /// `tests/differential_batch.rs`). See [`crate::BatchExecutor`].
    pub fn search_batch<Q: AsRef<str>>(
        &self,
        queries: &[Q],
        k: usize,
        mode: EvalMode,
    ) -> Vec<Serp> {
        crate::batch::BatchExecutor::new().run_live(self, queries, k, mode)
    }

    /// Runs in this searcher's snapshot (batch-executor plumbing).
    pub(crate) fn segment_count(&self) -> usize {
        self.snapshot.segments.len()
    }

    /// One segment's postings store — each segment has an independent
    /// term-id space, so the batch executor interns per segment.
    pub(crate) fn segment_store(&self, si: usize) -> &PostingsStore {
        self.snapshot.segments[si].store()
    }

    /// Executes one query over every segment. `resolved`, when the
    /// batch executor has already analyzed and interned the terms,
    /// holds per segment the ids of exactly the occurrences present in
    /// that segment's dictionary, in query-term order — the same cursor
    /// sequence the per-occurrence dictionary probe builds.
    pub(crate) fn run(
        &self,
        scratch: &mut QueryScratch,
        terms: &[String],
        resolved: Option<&[Vec<TermId>]>,
        k: usize,
        mode: EvalMode,
    ) -> Vec<SerpResult> {
        let snapshot = &*self.snapshot;
        let runs: Vec<SegmentRun<'_>> = snapshot
            .segments
            .iter()
            .enumerate()
            .map(|(si, seg)| SegmentRun {
                view: View {
                    store: seg.store(),
                    statics: &self.statics[si],
                    impacts: &self.impacts[si],
                    alive: Some(&snapshot.alive[si]),
                    resolved: resolved.map(|r| r[si].as_slice()),
                },
                global_of: &snapshot.global_of[si],
            })
            .collect();
        kernel::execute_live(
            &self.params,
            &runs,
            snapshot.host_count,
            |doc| snapshot.fields(doc),
            scratch,
            terms,
            k,
            mode,
        )
    }

    /// Per-segment byte breakdowns with this searcher's impact-table
    /// footprint and the snapshot's alive counts filled in.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        self.snapshot
            .segments
            .iter()
            .enumerate()
            .map(|(si, seg)| {
                let mut s = seg.stats();
                s.alive = self.snapshot.alive_counts[si];
                s.impact_bytes = self.impacts[si].heap_bytes();
                s
            })
            .collect()
    }
}

/// Roll-up over per-segment stats: the live-index line next to the
/// batch [`crate::IndexStats`] in BENCH_search.json.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveIndexStats {
    /// Runs in the snapshot.
    pub segments: usize,
    /// Stored versions across runs (alive + shadowed).
    pub docs: usize,
    /// Visible documents.
    pub alive: usize,
    /// Tombstones across runs.
    pub tombstones: usize,
    /// Estimated heap bytes of posting structs, all runs.
    pub postings_bytes: u64,
    /// Estimated heap bytes of position arrays, all runs.
    pub positions_bytes: u64,
    /// Estimated heap bytes of block tables, all runs.
    pub block_bytes: u64,
    /// Estimated heap bytes of term dictionaries, all runs.
    pub dict_bytes: u64,
    /// Estimated heap bytes of impact tables, all runs.
    pub impact_bytes: u64,
    /// What the raw posting layout would cost across all runs (summed
    /// per-segment through the shared sizing helper).
    pub raw_bytes: u64,
    /// Posting + position bytes actually held across all runs.
    pub compressed_bytes: u64,
}

impl LiveIndexStats {
    /// Sums a per-segment report into one roll-up.
    pub fn rollup(stats: &[SegmentStats]) -> LiveIndexStats {
        let mut total = LiveIndexStats {
            segments: stats.len(),
            ..LiveIndexStats::default()
        };
        for s in stats {
            total.docs += s.docs;
            total.alive += s.alive;
            total.tombstones += s.tombstones;
            total.postings_bytes += s.postings_bytes;
            total.positions_bytes += s.positions_bytes;
            total.block_bytes += s.block_bytes;
            total.dict_bytes += s.dict_bytes;
            total.impact_bytes += s.impact_bytes;
            total.raw_bytes += s.raw_bytes;
            total.compressed_bytes += s.compressed_bytes;
        }
        total
    }

    /// Posting-storage compression ratio `compressed / raw` over all
    /// runs (same definition as [`crate::IndexStats::ratio`]).
    pub fn ratio(&self) -> f64 {
        crate::sizing::SizePair {
            raw_bytes: self.raw_bytes,
            compressed_bytes: self.compressed_bytes,
        }
        .ratio()
    }

    /// Stored versions per visible document — how many documents the
    /// kernel may touch per visible result (1.0 for a freshly compacted
    /// index, growing with un-merged churn).
    pub fn read_amplification(&self) -> f64 {
        if self.alive == 0 {
            0.0
        } else {
            self.docs as f64 / self.alive as f64
        }
    }
}
