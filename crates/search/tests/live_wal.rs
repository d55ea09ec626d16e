//! Crash-recovery gate for the write-ahead log: cut the WAL byte stream
//! at *arbitrary* positions (frame boundaries and mid-frame), replay it
//! through [`LiveIndex::recover`], and the recovered index must be
//! bit-identical — counters, rebuilt WAL bytes, segment stack, and the
//! SERPs its snapshots serve — to a fresh index that applied exactly
//! the mutations surviving the cut. Recovery must also be a sound base
//! for continued ingestion: applying the remaining events to the
//! recovered index converges with the uncut run. A single flipped bit
//! in the middle of the log, in a frame's payload or its length word,
//! must recover exactly as a cut at the start of that frame.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use shift_corpus::{EventKind, Timeline, TimelineConfig, World, WorldConfig};
use shift_search::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveSearcher, WriteAheadLog};
use shift_search::{QueryScratch, RankingParams, Serp};

const QUERIES: [&str; 3] = [
    "best laptops for students",
    "best smartphones camera battery",
    "review espresso machines",
];

fn config() -> LiveIndexConfig {
    LiveIndexConfig::tiny(13)
}

fn base_world() -> World {
    World::generate(&WorldConfig::small(), 4040)
}

fn timeline() -> &'static Timeline {
    static TIMELINE: OnceLock<Timeline> = OnceLock::new();
    TIMELINE.get_or_init(|| Timeline::generate(&base_world(), &TimelineConfig::dense(), 21))
}

/// Applies timeline events `from..to` to an index.
fn apply_events(index: &mut LiveIndex, from: usize, to: usize) {
    let world = base_world();
    for event in &timeline().events()[from..to] {
        match event.kind {
            EventKind::Delete => index.delete(event.page.id),
            EventKind::Publish | EventKind::Update => {
                index.upsert(LiveDoc::from_page(&world, &event.page));
            }
        }
    }
}

fn index_over(to: usize) -> LiveIndex {
    let mut index = LiveIndex::new(config());
    apply_events(&mut index, 0, to);
    index
}

/// The pre-crash index whose WAL the cut tests carve up: deep enough
/// into the dense stream that flushes, compactions, updates and deletes
/// have all happened (churn lives in the stream's final window, so the
/// fixture stops just short of the end and leaves a tail to resume).
fn uncut_to() -> usize {
    timeline().len() - 50
}

fn uncut() -> &'static LiveIndex {
    static UNCUT: OnceLock<LiveIndex> = OnceLock::new();
    UNCUT.get_or_init(|| {
        let index = index_over(uncut_to());
        let c = index.counters();
        assert!(c.flushes > 0 && c.deletes > 0, "fixture too shallow: {c:?}");
        index
    })
}

fn assert_serp_identical(a: &Serp, b: &Serp) {
    assert_eq!(a.query, b.query);
    assert_eq!(a.results.len(), b.results.len(), "result counts differ");
    for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(x.url, y.url, "url diverges at rank {i}");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "score at rank {i}");
        assert_eq!(x.page, y.page);
        assert_eq!(x.host, y.host);
        assert_eq!(x.title, y.title);
        assert_eq!(x.snippet, y.snippet);
        assert_eq!(x.source_type, y.source_type);
        assert_eq!(x.age_days.to_bits(), y.age_days.to_bits());
    }
}

/// Snapshot both indexes and compare the query panel bit-for-bit.
fn assert_serves_identically(a: &LiveIndex, b: &LiveIndex) {
    let sa = LiveSearcher::new(Arc::new(a.snapshot()), RankingParams::google());
    let sb = LiveSearcher::new(Arc::new(b.snapshot()), RankingParams::google());
    let mut scratch = QueryScratch::new();
    for q in QUERIES {
        let ra = sa.search_with(&mut scratch, q, 10);
        let rb = sb.search_with(&mut scratch, q, 10);
        assert_serp_identical(&ra, &rb);
    }
}

/// Recovery from a byte prefix must equal a fresh index over the
/// surviving mutations — state and service.
fn assert_recovery_at(cut: usize) {
    let wal = uncut().wal().bytes();
    let cut = cut.min(wal.len());
    let survived = WriteAheadLog::replay(&wal[..cut]).len();
    let recovered = LiveIndex::recover(config(), &wal[..cut]);
    let fresh = index_over(survived);
    assert_eq!(
        recovered.counters(),
        fresh.counters(),
        "counters diverge at cut {cut} ({survived} records)"
    );
    assert_eq!(
        recovered.wal().bytes(),
        fresh.wal().bytes(),
        "rebuilt WAL diverges at cut {cut}"
    );
    assert_eq!(recovered.segments().len(), fresh.segments().len());
    for (ra, rb) in recovered.segments().iter().zip(fresh.segments()) {
        assert_eq!(ra.id(), rb.id());
        assert_eq!(ra.len(), rb.len());
        assert_eq!(ra.tombstones(), rb.tombstones());
    }
    assert_eq!(recovered.memtable().len(), fresh.memtable().len());
    assert_serves_identically(&recovered, &fresh);
}

/// The end offset of every frame of an intact log.
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at + 12 <= wal.len() {
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        at += 12 + len;
        ends.push(at);
    }
    ends
}

/// Structured cut points: empty, sub-header, around several frame
/// boundaries, mid-stream, one byte short, and the intact log.
#[test]
fn recovery_at_structured_cut_points() {
    let wal = uncut().wal().bytes();
    let n = wal.len();
    // Walk real frame boundaries to place surgical cuts.
    let boundaries = frame_ends(wal);
    assert!(boundaries.len() > 10, "fixture WAL too small");
    let mid = boundaries[boundaries.len() / 2];
    for cut in [
        0,
        1,
        3,   // inside the first frame header
        11,  // one byte short of the first payload
        mid, // exactly on a boundary
        mid + 5,
        mid.saturating_sub(1),
        n / 3,
        n - 1,
        n,
    ] {
        assert_recovery_at(cut);
    }
}

/// The intact log recovers the full pre-crash index exactly.
#[test]
fn full_replay_is_lossless() {
    let index = uncut();
    let recovered = LiveIndex::recover(config(), index.wal().bytes());
    assert_eq!(recovered.counters(), index.counters());
    assert_eq!(recovered.wal().bytes(), index.wal().bytes());
    assert_serves_identically(&recovered, index);
}

/// Recovery is a sound base for continued ingestion: resume the event
/// stream on a crash-recovered index and it converges bit-for-bit with
/// an index that never crashed.
#[test]
fn recovered_index_continues_ingesting_identically() {
    let wal = uncut().wal().bytes();
    let cut = wal.len() * 3 / 5; // mid-frame in practice
    let survived = WriteAheadLog::replay(&wal[..cut]).len();
    let mut recovered = LiveIndex::recover(config(), &wal[..cut]);
    let resume_to = uncut_to();
    assert!(survived < resume_to);
    apply_events(&mut recovered, survived, resume_to);
    let never_crashed = uncut();
    assert_eq!(recovered.counters(), never_crashed.counters());
    assert_eq!(recovered.wal().bytes(), never_crashed.wal().bytes());
    assert_serves_identically(&recovered, never_crashed);
}

/// One bit flipped inside the middle frame, in its payload or in its
/// length word (a small length that stays inside the log, and a huge one
/// past its end): replay stops at that frame, recovery equals a clean cut
/// at the frame's start, and the recovered index resumes ingestion in
/// lockstep with one that never crashed.
#[test]
fn a_flipped_bit_mid_log_recovers_as_a_cut_at_its_frame() {
    let wal = uncut().wal().bytes();
    let ends = frame_ends(wal);
    let start = ends[ends.len() / 2 - 1];
    let len = ends[ends.len() / 2] - start - 12;
    assert!(len > 8, "middle frame has a payload");
    let clean = LiveIndex::recover(config(), &wal[..start]);
    let survived = WriteAheadLog::replay(&wal[..start]).len();
    for (byte, bit, what) in [
        (start + 12 + len / 2, 4, "payload"),
        (start, 2, "length word, low byte"),
        (start + 3, 7, "length word, high byte"),
    ] {
        let mut corrupt = wal.to_vec();
        corrupt[byte] ^= 1 << bit;
        assert_eq!(
            WriteAheadLog::replay(&corrupt).len(),
            survived,
            "{what}: replay must stop at the flipped frame"
        );
        let mut recovered = LiveIndex::recover(config(), &corrupt);
        assert_eq!(recovered.counters(), clean.counters(), "{what}");
        assert_eq!(recovered.wal().bytes(), clean.wal().bytes(), "{what}");
        assert_serves_identically(&recovered, &clean);
        apply_events(&mut recovered, survived, uncut_to());
        assert_eq!(recovered.counters(), uncut().counters(), "{what}");
        assert_eq!(recovered.wal().bytes(), uncut().wal().bytes(), "{what}");
        assert_serves_identically(&recovered, uncut());
    }
    assert_recovery_at(start);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary byte cuts — wherever the crash lands, recovery equals
    /// the fresh build over the surviving record prefix.
    #[test]
    fn recovery_at_arbitrary_byte_cuts(cut in 0usize..1_000_000) {
        assert_recovery_at(cut % (uncut().wal().len() + 1));
    }
}
