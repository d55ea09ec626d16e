//! Immutable sorted segments: the on-"disk" runs of the live index.
//!
//! A segment is a mini batch index over one flush (or merge) worth of
//! document versions, stored in ascending page-id order, plus the
//! tombstones that were buffered alongside them. Postings, block
//! tables and document metadata are built by exactly the same code
//! paths as [`crate::SearchIndex::build`] — a segment keeps the raw
//! [`LiveDoc`]s too, so merges can rebuild without re-analyzing text.

use std::sync::Arc;

use shift_corpus::PageId;

use crate::index::DocMeta;
use crate::postings::{DocNum, PostingsStore};
use crate::sizing::{postings_size, SizePair};

use super::memtable::LiveDoc;

/// One immutable sorted run of the live index.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    /// The raw versions, ascending by page id (merge input).
    docs: Vec<LiveDoc>,
    /// Per-document metadata in the same order. `host_id` is left 0 —
    /// hosts are interned per *snapshot*, across segments, because
    /// crowding counters need one id space per query.
    metas: Vec<DocMeta>,
    /// Postings over the segment's documents (local doc numbers).
    store: PostingsStore,
    /// Pages deleted by this run, ascending; they shadow any version
    /// in an *older* segment.
    tombstones: Vec<PageId>,
}

impl Segment {
    /// Builds a segment from id-sorted versions and tombstones.
    pub(crate) fn build(id: u64, docs: Vec<LiveDoc>, tombstones: Vec<PageId>) -> Segment {
        debug_assert!(docs.windows(2).all(|w| w[0].page < w[1].page));
        debug_assert!(tombstones.windows(2).all(|w| w[0] < w[1]));
        // Segments hold the same block-compressed posting layout as a
        // compressed batch index: flushes and compactions emit encoded
        // blocks directly instead of raw lists that would need a
        // second conversion pass.
        let mut store = PostingsStore::new_compressed();
        let mut metas = Vec::with_capacity(docs.len());
        for (local, doc) in docs.iter().enumerate() {
            store.add_document(local as DocNum, &doc.title_terms, &doc.body_terms);
            metas.push(DocMeta {
                page: doc.page,
                url: doc.url.as_str().into(),
                host: doc.host.as_str().into(),
                host_id: 0,
                authority: doc.authority,
                age_days: doc.age_days,
                source_type: doc.source_type,
                token_len: doc.token_len(),
                title_len: doc.title_terms.len() as u32,
                body: Arc::clone(&doc.body),
                title: doc.title.as_str().into(),
            });
        }
        store.finish();
        Segment {
            id,
            docs,
            metas,
            store,
            tombstones,
        }
    }

    /// Monotonically increasing segment id (older segments have lower
    /// ids; a merged segment takes a fresh id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The segment's postings (local doc numbers).
    pub fn store(&self) -> &PostingsStore {
        &self.store
    }

    /// Per-document metadata, local doc order (= ascending page id).
    pub fn metas(&self) -> &[DocMeta] {
        &self.metas
    }

    /// The raw versions, local doc order.
    pub(crate) fn docs(&self) -> &[LiveDoc] {
        &self.docs
    }

    /// Pages this run deletes, ascending.
    pub fn tombstones(&self) -> &[PageId] {
        &self.tombstones
    }

    /// Stored document versions.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the segment stores no versions (it may still carry
    /// tombstones).
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Byte breakdown of this segment (impact bytes are a per-snapshot
    /// quantity filled in by [`crate::live::LiveSearcher`]).
    pub fn stats(&self) -> SegmentStats {
        let p = self.store.stats();
        // Raw-vs-held accounting goes through the same sizing helper as
        // the batch index so both paths define the ratio identically.
        let size = postings_size(&p);
        SegmentStats {
            segment: self.id,
            docs: self.docs.len(),
            alive: 0,
            tombstones: self.tombstones.len(),
            postings_bytes: p.postings_bytes,
            positions_bytes: p.positions_bytes,
            block_bytes: p.block_bytes,
            dict_bytes: p.dict_bytes,
            impact_bytes: 0,
            raw_bytes: size.raw_bytes,
            compressed_bytes: size.compressed_bytes,
        }
    }
}

/// Per-segment size breakdown, the live-index analogue of
/// [`crate::IndexStats`] (see [`Segment::stats`] and
/// [`crate::live::LiveSearcher::segment_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment id.
    pub segment: u64,
    /// Stored document versions (alive + shadowed).
    pub docs: usize,
    /// Versions visible in the snapshot this report came from (0 when
    /// reported outside a snapshot).
    pub alive: usize,
    /// Tombstones carried by the run.
    pub tombstones: usize,
    /// Estimated heap bytes of posting structs.
    pub postings_bytes: u64,
    /// Estimated heap bytes of position arrays.
    pub positions_bytes: u64,
    /// Estimated heap bytes of the block tables.
    pub block_bytes: u64,
    /// Estimated heap bytes of the term dictionary.
    pub dict_bytes: u64,
    /// Estimated heap bytes of the snapshot's impact tables for this
    /// segment (0 outside a snapshot).
    pub impact_bytes: u64,
    /// What the raw posting layout would cost for this segment's
    /// posting + position counts (the extrapolation behind
    /// [`SegmentStats::ratio`]).
    pub raw_bytes: u64,
    /// Posting + position bytes actually held (encoded blocks).
    pub compressed_bytes: u64,
}

impl SegmentStats {
    /// Posting-storage compression ratio `compressed / raw`.
    pub fn ratio(&self) -> f64 {
        SizePair {
            raw_bytes: self.raw_bytes,
            compressed_bytes: self.compressed_bytes,
        }
        .ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::SourceType;

    fn doc(id: u32, title: &str, body: &str) -> LiveDoc {
        LiveDoc::new(
            PageId(id),
            format!("https://example.test/{id}"),
            "example.test".to_string(),
            0.4,
            5.0,
            SourceType::Brand,
            title.to_string(),
            body.to_string(),
        )
    }

    #[test]
    fn build_preserves_order_and_metadata() {
        let seg = Segment::build(
            7,
            vec![
                doc(2, "Laptop review", "battery life is good"),
                doc(9, "Phone review", "camera and battery"),
            ],
            vec![PageId(5)],
        );
        assert_eq!(seg.id(), 7);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.metas()[0].page, PageId(2));
        assert_eq!(seg.metas()[1].page, PageId(9));
        assert_eq!(seg.tombstones(), &[PageId(5)]);
        assert_eq!(seg.store().doc_count(), 2);
        // Both docs mention "battery" (stemmed forms agree).
        let df = seg
            .store()
            .terms()
            .find(|(t, _)| t.starts_with("batter"))
            .map(|(_, id)| seg.store().doc_freq_by_id(id));
        assert_eq!(df, Some(2));
    }

    #[test]
    fn stats_report_nonzero_sections() {
        let seg = Segment::build(
            1,
            vec![doc(0, "A title here", "some body text with words")],
            Vec::new(),
        );
        let s = seg.stats();
        assert_eq!(s.segment, 1);
        assert_eq!(s.docs, 1);
        assert!(s.postings_bytes > 0);
        assert!(s.dict_bytes > 0);
    }
}
