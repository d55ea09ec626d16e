//! Live index: LSM-style incremental indexing with point-in-time
//! snapshot readers.
//!
//! The batch [`crate::SearchIndex`] rebuilds from scratch; this module
//! models the serving-time alternative — a [`LiveIndex`] that absorbs a
//! stream of publish/update/delete events (see
//! `shift_corpus::Timeline`) through a write-ahead log and an in-memory
//! [`MemTable`], flushes the memtable into immutable sorted
//! [`Segment`]s at a byte threshold, and merges the oldest runs with a
//! seeded deterministic [`CompactionPolicy`]. Every piece is a pure
//! function of the applied event sequence, so replaying the WAL (even
//! crash-cut mid-frame) reconstructs the exact segment stack, and two
//! runs with the same seed produce bit-identical state.
//!
//! Reads go through [`LiveSnapshot`] / [`LiveSearcher`]: a snapshot
//! resolves newest-first shadowing across runs, computes
//! snapshot-global collection statistics, and serves queries through
//! the same kernel executor as the batch index, merging the per-run
//! candidate pools exactly — so a snapshot's SERPs are byte-identical
//! to a batch index built over the same live page set (enforced by
//! `tests/differential_live.rs`).

pub mod compaction;
pub mod memtable;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use compaction::CompactionPolicy;
pub use memtable::{LiveDoc, MemTable};
pub use segment::{Segment, SegmentStats};
pub use snapshot::{LiveIndexStats, LiveSearcher, LiveSnapshot};
pub use wal::{WalRecord, WriteAheadLog};

use std::sync::Arc;

use shift_corpus::PageId;

/// Tuning knobs for a [`LiveIndex`]. All thresholds participate in the
/// determinism guarantee: two indexes with equal configs applying equal
/// event sequences are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct LiveIndexConfig {
    /// Flush the memtable into a segment once its buffered versions
    /// reach this many (approximate) heap bytes.
    pub flush_bytes: usize,
    /// Run the compaction loop whenever at least this many segments
    /// exist (clamped to ≥ 2).
    pub compact_trigger: usize,
    /// Minimum merge fan-in (clamped to ≥ 2).
    pub fanin_min: usize,
    /// Maximum merge fan-in.
    pub fanin_max: usize,
    /// Seed for the compaction policy's width draws.
    pub seed: u64,
}

impl LiveIndexConfig {
    /// Production-shaped defaults: 256 KiB memtable, compact at 6 runs
    /// with fan-in 2–4.
    pub fn standard(seed: u64) -> LiveIndexConfig {
        LiveIndexConfig {
            flush_bytes: 256 * 1024,
            compact_trigger: 6,
            fanin_min: 2,
            fanin_max: 4,
            seed,
        }
    }

    /// Test-shaped defaults: 16 KiB memtable, compact at 3 runs with
    /// fan-in 2–3 — small enough that unit-scale event streams exercise
    /// flushing and merging.
    pub fn tiny(seed: u64) -> LiveIndexConfig {
        LiveIndexConfig {
            flush_bytes: 16 * 1024,
            compact_trigger: 3,
            fanin_min: 2,
            fanin_max: 3,
            seed,
        }
    }
}

/// Deterministic operation counters: part of the surface the churn
/// benchmark asserts is identical across same-seed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCounters {
    /// Mutations applied (upserts + deletes).
    pub applied: u64,
    /// Upserts applied.
    pub upserts: u64,
    /// Deletes applied.
    pub deletes: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compaction merges performed.
    pub compactions: u64,
    /// Input runs consumed across all merges.
    pub segments_merged: u64,
}

/// The live index: WAL + memtable + immutable segment stack +
/// deterministic compaction.
#[derive(Debug)]
pub struct LiveIndex {
    config: LiveIndexConfig,
    wal: WriteAheadLog,
    memtable: MemTable,
    /// Flushed runs, oldest first.
    segments: Vec<Arc<Segment>>,
    policy: CompactionPolicy,
    next_segment_id: u64,
    counters: LiveCounters,
}

impl LiveIndex {
    /// An empty index with the given config.
    pub fn new(config: LiveIndexConfig) -> LiveIndex {
        LiveIndex {
            policy: CompactionPolicy::new(config.fanin_min, config.fanin_max, config.seed),
            config,
            wal: WriteAheadLog::new(),
            memtable: MemTable::new(),
            segments: Vec::new(),
            next_segment_id: 0,
            counters: LiveCounters::default(),
        }
    }

    /// Rebuilds an index by replaying a (possibly crash-cut) WAL byte
    /// stream through the normal apply path. Because flushing and
    /// compaction are deterministic, the recovered index — segment
    /// stack, memtable, counters, and the rebuilt WAL itself — is
    /// bit-identical to the pre-crash index after the same prefix of
    /// mutations.
    pub fn recover(config: LiveIndexConfig, wal_bytes: &[u8]) -> LiveIndex {
        let mut index = LiveIndex::new(config);
        for record in WriteAheadLog::replay(wal_bytes) {
            index.wal.append(&record);
            index.apply(record);
        }
        index
    }

    /// Logs and applies an insert-or-replace of one document version.
    pub fn upsert(&mut self, doc: LiveDoc) {
        let record = WalRecord::Upsert(doc);
        self.wal.append(&record);
        self.apply(record);
    }

    /// Logs and applies a delete.
    pub fn delete(&mut self, page: PageId) {
        let record = WalRecord::Delete(page);
        self.wal.append(&record);
        self.apply(record);
    }

    /// Applies an already-logged mutation: memtable first, then the
    /// flush/compaction cascade if thresholds tripped.
    fn apply(&mut self, record: WalRecord) {
        self.counters.applied += 1;
        match record {
            WalRecord::Upsert(doc) => {
                self.counters.upserts += 1;
                self.memtable.upsert(doc);
            }
            WalRecord::Delete(page) => {
                self.counters.deletes += 1;
                self.memtable.delete(page);
            }
        }
        if self.memtable.approx_bytes() >= self.config.flush_bytes {
            self.flush_now();
        }
    }

    /// Forces the memtable out into a segment (no-op when empty).
    pub fn flush(&mut self) {
        if !self.memtable.is_empty() {
            self.flush_now();
        }
    }

    fn flush_now(&mut self) {
        let (docs, tombstones) = self.memtable.drain();
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        self.segments
            .push(Arc::new(Segment::build(id, docs, tombstones)));
        self.counters.flushes += 1;
        self.maybe_compact();
    }

    /// The background-merge loop, run inline after each flush: while
    /// the stack is at or past the trigger, merge the oldest
    /// policy-drawn-width runs into one. Always merges a *prefix* of
    /// the stack, which is why merged segments can drop tombstones.
    fn maybe_compact(&mut self) {
        while self.segments.len() >= self.config.compact_trigger.max(2) {
            let Some(width) = self.policy.next_width(self.segments.len()) else {
                break;
            };
            let id = self.next_segment_id;
            self.next_segment_id += 1;
            let merged = compaction::merge_segments(id, &self.segments[..width]);
            self.segments
                .splice(..width, std::iter::once(Arc::new(merged)));
            self.counters.compactions += 1;
            self.counters.segments_merged += width as u64;
        }
    }

    /// Freezes the current state — flushed segments plus the memtable
    /// as one extra (newest) in-memory run — into an immutable
    /// point-in-time snapshot. The index itself is not mutated; writes
    /// can continue while snapshot readers serve.
    pub fn snapshot(&self) -> LiveSnapshot {
        let mut segments = self.segments.clone();
        if !self.memtable.is_empty() {
            let (docs, tombstones) = self.memtable.freeze();
            segments.push(Arc::new(Segment::build(
                self.next_segment_id,
                docs,
                tombstones,
            )));
        }
        LiveSnapshot::build(segments)
    }

    /// Operation counters so far.
    pub fn counters(&self) -> LiveCounters {
        self.counters
    }

    /// The write-ahead log (its bytes are what recovery replays).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Flushed runs, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The write buffer.
    pub fn memtable(&self) -> &MemTable {
        &self.memtable
    }

    /// The config this index runs with.
    pub fn config(&self) -> &LiveIndexConfig {
        &self.config
    }

    /// Compaction decisions drawn so far (deterministic surface).
    pub fn policy_decisions(&self) -> u64 {
        self.policy.decisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{SourceType, Timeline, TimelineConfig, World, WorldConfig};

    fn world() -> World {
        World::generate(&WorldConfig::small(), 11)
    }

    fn churn(index: &mut LiveIndex, world: &World, timeline: &Timeline, through: usize) {
        for event in &timeline.events()[..through] {
            match event.kind {
                shift_corpus::EventKind::Delete => index.delete(event.page.id),
                _ => index.upsert(LiveDoc::from_page(world, &event.page)),
            }
        }
    }

    #[test]
    fn flushes_and_compactions_trigger_at_scale() {
        let world = world();
        let timeline = Timeline::generate(&world, &TimelineConfig::dense(), 5);
        let mut index = LiveIndex::new(LiveIndexConfig::tiny(42));
        churn(&mut index, &world, &timeline, timeline.len());
        let c = index.counters();
        assert_eq!(c.applied as usize, timeline.len());
        assert!(c.flushes > 2, "tiny threshold must flush: {c:?}");
        assert!(c.compactions > 0, "stack must compact: {c:?}");
        assert!(index.segments().len() < c.flushes as usize);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let world = world();
        let timeline = Timeline::generate(&world, &TimelineConfig::dense(), 5);
        let build = || {
            let mut index = LiveIndex::new(LiveIndexConfig::tiny(42));
            churn(&mut index, &world, &timeline, timeline.len());
            index
        };
        let a = build();
        let b = build();
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.policy_decisions(), b.policy_decisions());
        assert_eq!(a.wal().bytes(), b.wal().bytes());
        let ids_a: Vec<u64> = a.segments().iter().map(|s| s.id()).collect();
        let ids_b: Vec<u64> = b.segments().iter().map(|s| s.id()).collect();
        assert_eq!(ids_a, ids_b);
        for (sa, sb) in a.segments().iter().zip(b.segments()) {
            assert_eq!(sa.len(), sb.len());
            assert_eq!(sa.tombstones(), sb.tombstones());
        }
    }

    #[test]
    fn recovery_replays_to_identical_state() {
        let world = world();
        let timeline = Timeline::generate(&world, &TimelineConfig::dense(), 7);
        let mut index = LiveIndex::new(LiveIndexConfig::tiny(9));
        churn(&mut index, &world, &timeline, timeline.len() * 2 / 3);
        let recovered = LiveIndex::recover(LiveIndexConfig::tiny(9), index.wal().bytes());
        assert_eq!(recovered.counters(), index.counters());
        assert_eq!(recovered.wal().bytes(), index.wal().bytes());
        assert_eq!(recovered.segments().len(), index.segments().len());
        assert_eq!(recovered.memtable().len(), index.memtable().len());
        assert_eq!(
            recovered.memtable().tombstone_count(),
            index.memtable().tombstone_count()
        );
    }

    #[test]
    fn snapshot_sees_newest_versions_and_deletes() {
        let mut index = LiveIndex::new(LiveIndexConfig::tiny(1));
        let doc = |id: u32, body: &str| {
            LiveDoc::new(
                PageId(id),
                format!("https://example.test/{id}"),
                "example.test".to_string(),
                0.5,
                4.0,
                SourceType::Earned,
                format!("Page {id}"),
                body.to_string(),
            )
        };
        index.upsert(doc(1, "first version"));
        index.upsert(doc(2, "will be deleted"));
        index.flush();
        index.upsert(doc(1, "second version"));
        index.delete(PageId(2));
        index.upsert(doc(3, "brand new"));
        let snap = index.snapshot();
        assert_eq!(snap.doc_count(), 2);
        assert_eq!(snap.stored_docs(), 4, "both versions of page 1 stored");
        assert_eq!(snap.meta(0).page, PageId(1));
        assert_eq!(&*snap.meta(0).body, "second version", "newest wins");
        assert_eq!(snap.meta(1).page, PageId(3));
        // Snapshot did not disturb the index.
        assert_eq!(index.segments().len(), 1);
        assert_eq!(index.memtable().len(), 2);
    }
}
