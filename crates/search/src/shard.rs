//! Document-partitioned index sharding.
//!
//! A [`ShardedIndex`] splits an existing [`SearchIndex`] into `S`
//! contiguous document-number ranges. Each shard owns, per term, the
//! `(start, end)` subrange of the *global* posting list that falls into
//! its document range; the kernel walks that subrange and clips global
//! block skips to it. Collection statistics (document count, document
//! frequency, average length) remain *global*: a document's score must
//! not depend on which shard scored it, and that is precisely what
//! makes the merged SERP byte-identical to the single-shard kernel (see
//! DESIGN.md §3 "Sharded retrieval").

use std::fmt;
use std::sync::Arc;

use crate::index::SearchIndex;
use crate::postings::{DocNum, TermId};

/// One shard's view of the index: a contiguous document range and
/// per-term posting-list subranges.
#[derive(Debug)]
pub(crate) struct IndexShard {
    /// First document number owned by this shard (inclusive).
    pub(crate) doc_begin: DocNum,
    /// One-past-the-last document number owned by this shard.
    pub(crate) doc_end: DocNum,
    /// Per-term `(start, end)` posting-index subrange of the global
    /// list that falls inside `[doc_begin, doc_end)`.
    pub(crate) ranges: Vec<(u32, u32)>,
}

/// A [`SearchIndex`] partitioned into contiguous document-range shards
/// for parallel per-shard top-k retrieval with an exact merge.
#[derive(Debug)]
pub struct ShardedIndex {
    index: Arc<SearchIndex>,
    shards: Vec<IndexShard>,
}

impl ShardedIndex {
    /// Partitions `index` into `shard_count` near-equal contiguous
    /// document ranges (`shard_count` is clamped to at least 1).
    /// Shard counts above the document count produce empty shards,
    /// which evaluate to empty candidate heaps and merge away.
    pub fn build(index: Arc<SearchIndex>, shard_count: usize) -> ShardedIndex {
        let shard_count = shard_count.max(1);
        let store = index.postings();
        let doc_count = store.doc_count() as usize;
        let vocab = store.vocabulary_size();
        let mut shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let doc_begin = (s * doc_count / shard_count) as DocNum;
            let doc_end = ((s + 1) * doc_count / shard_count) as DocNum;
            let ranges = (0..vocab as TermId)
                .map(|term| {
                    // Mode-agnostic subrange resolution: `lower_bound`
                    // runs on the raw array or decodes at most one block
                    // per probe on the compressed layout.
                    (
                        store.lower_bound(term, doc_begin),
                        store.lower_bound(term, doc_end),
                    )
                })
                .collect();
            shards.push(IndexShard {
                doc_begin,
                doc_end,
                ranges,
            });
        }
        ShardedIndex { index, shards }
    }

    /// The underlying (global) index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Clones the shared index handle.
    pub fn index_handle(&self) -> Arc<SearchIndex> {
        Arc::clone(&self.index)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard descriptors, for the kernel.
    pub(crate) fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// The contiguous document range of each shard, `(begin, end)`
    /// with `end` exclusive (exposed for tests and reporting).
    pub fn doc_ranges(&self) -> Vec<(DocNum, DocNum)> {
        self.shards
            .iter()
            .map(|s| (s.doc_begin, s.doc_end))
            .collect()
    }

    /// Per-shard postings statistics (documents and postings per shard)
    /// — the partition-balance report the bench prints alongside the
    /// global [`crate::IndexStats`].
    pub fn stats(&self) -> ShardedIndexStats {
        ShardedIndexStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    doc_begin: s.doc_begin,
                    doc_end: s.doc_end,
                    postings: s.ranges.iter().map(|&(a, b)| u64::from(b - a)).sum(),
                })
                .collect(),
        }
    }
}

/// Postings statistics of one shard (see [`ShardedIndex::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// First document number owned by the shard (inclusive).
    pub doc_begin: DocNum,
    /// One-past-the-last document number owned by the shard.
    pub doc_end: DocNum,
    /// Postings falling inside the shard's document range.
    pub postings: u64,
}

impl ShardStats {
    /// Documents owned by the shard.
    pub fn docs(&self) -> u32 {
        self.doc_end - self.doc_begin
    }
}

/// Per-shard statistics report (see [`ShardedIndex::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedIndexStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl fmt::Display for ShardedIndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "shards: {}", self.shards.len())?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "  shard {i}: docs [{}, {}) ({} docs)  {} postings",
                s.doc_begin,
                s.doc_end,
                s.docs(),
                s.postings
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{World, WorldConfig};

    fn sharded(shards: usize) -> ShardedIndex {
        let world = World::generate(&WorldConfig::small(), 7);
        ShardedIndex::build(Arc::new(SearchIndex::build(&world)), shards)
    }

    #[test]
    fn doc_ranges_partition_the_collection() {
        for count in [1usize, 2, 3, 7, 16] {
            let s = sharded(count);
            let ranges = s.doc_ranges();
            assert_eq!(ranges.len(), count);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(
                ranges[count - 1].1,
                s.index().postings().doc_count(),
                "last shard must end at doc_count"
            );
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "ranges must be contiguous");
            }
        }
    }

    #[test]
    fn term_ranges_cover_every_posting_exactly_once() {
        let s = sharded(3);
        let store = s.index().postings();
        for term in 0..store.vocabulary_size() as TermId {
            let list = store.postings_by_id(term);
            let mut covered = 0usize;
            for shard in s.shards() {
                let (a, b) = shard.ranges[term as usize];
                assert_eq!(a as usize, covered, "subranges must be contiguous");
                covered = b as usize;
                for p in &list[a as usize..b as usize] {
                    assert!(p.doc >= shard.doc_begin && p.doc < shard.doc_end);
                }
            }
            assert_eq!(covered, list.len(), "term {term} postings not covered");
        }
    }

    #[test]
    fn more_shards_than_documents_yields_empty_shards() {
        let world = World::generate(&WorldConfig::small(), 7);
        let index = Arc::new(SearchIndex::build(&world));
        let docs = index.postings().doc_count() as usize;
        let s = ShardedIndex::build(index, docs + 5);
        assert_eq!(s.shard_count(), docs + 5);
        let stats = s.stats();
        assert!(stats.shards.iter().any(|sh| sh.docs() == 0));
        let total: u64 = stats.shards.iter().map(|sh| sh.postings).sum();
        assert_eq!(total, s.index().postings().stats().postings);
    }

    #[test]
    fn stats_render_and_balance() {
        let s = sharded(4);
        let stats = s.stats();
        let rendered = format!("{stats}");
        assert!(rendered.contains("shards: 4"));
        let docs: Vec<u32> = stats.shards.iter().map(|sh| sh.docs()).collect();
        let (min, max) = (*docs.iter().min().unwrap(), *docs.iter().max().unwrap());
        assert!(max - min <= 1, "near-equal partition: {docs:?}");
    }
}
