//! Deterministic background merges.
//!
//! The policy is seeded: every "how many runs to merge" decision draws
//! from a SplitMix64 stream keyed by `(seed, decision counter)`, so a
//! replayed event sequence reproduces the exact same merge schedule —
//! segment ids, widths, and contents — bit for bit. The merge itself is
//! a pure function of its input segments; on multi-core hosts the
//! per-input claim scans fan out over scoped threads and are
//! joined in input order, so the parallel and serial paths build
//! byte-identical segments.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::batch::hardware_threads;

use super::memtable::LiveDoc;
use super::segment::Segment;

/// Seeded merge-width policy: when the segment stack reaches the
/// trigger, the oldest `width ∈ [fanin_min, fanin_max]` runs merge,
/// with `width` drawn deterministically per decision.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    fanin_min: usize,
    fanin_max: usize,
    seed: u64,
    decisions: u64,
}

impl CompactionPolicy {
    /// A policy drawing widths from `[fanin_min, fanin_max]` (both
    /// clamped to at least 2 — a 1-way "merge" would never shrink the
    /// stack) seeded by `seed`.
    pub fn new(fanin_min: usize, fanin_max: usize, seed: u64) -> CompactionPolicy {
        let fanin_min = fanin_min.max(2);
        CompactionPolicy {
            fanin_min,
            fanin_max: fanin_max.max(fanin_min),
            seed,
            decisions: 0,
        }
    }

    /// Draws the next merge width, capped at `available` runs. Returns
    /// `None` when fewer than 2 runs are available. Each call consumes
    /// one decision from the seeded stream whether or not it merges,
    /// keeping the schedule a pure function of the call sequence.
    pub fn next_width(&mut self, available: usize) -> Option<usize> {
        let draw = splitmix64(self.seed ^ self.decisions.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.decisions += 1;
        if available < 2 {
            return None;
        }
        let span = (self.fanin_max - self.fanin_min + 1) as u64;
        let width = self.fanin_min + (draw % span) as usize;
        Some(width.min(available))
    }

    /// Decisions drawn so far (part of the deterministic-counters
    /// surface the churn benchmark asserts on).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

/// SplitMix64: a single mixing step, enough to decorrelate the
/// decision counter from the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Merges the given runs (oldest first, exactly as they sit at the
/// *bottom* of the segment stack) into one fresh segment.
///
/// Shadowing resolves newest-first: a page's surviving version is the
/// one in the newest input that contains it, unless a newer input
/// tombstones it. The merged segment carries **no** tombstones — the
/// caller guarantees the inputs are the oldest runs in the index, so
/// there is nothing below them left to shadow. (Merging a non-prefix
/// run would have to keep its tombstones; the policy never does that.)
pub(crate) fn merge_segments(id: u64, inputs: &[Arc<Segment>]) -> Segment {
    if hardware_threads() > 1 && inputs.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|seg| scope.spawn(move || claim_set(seg)))
                .collect();
            // Joined in input order: the claim sets land in the same
            // slots the serial path fills, so resolution is identical.
            let claims: Vec<HashSet<u32>> = handles
                .into_iter()
                .map(|h| h.join().expect("claim scan panicked"))
                .collect();
            resolve_and_build(id, inputs, &claims)
        })
    } else {
        let claims: Vec<HashSet<u32>> = inputs.iter().map(|s| claim_set(s)).collect();
        resolve_and_build(id, inputs, &claims)
    }
}

/// Every page id a run makes a claim about: versions it stores and
/// pages it tombstones. A claim in a newer run shadows anything older.
fn claim_set(seg: &Segment) -> HashSet<u32> {
    seg.docs()
        .iter()
        .map(|d| d.page.0)
        .chain(seg.tombstones().iter().map(|t| t.0))
        .collect()
}

fn resolve_and_build(id: u64, inputs: &[Arc<Segment>], claims: &[HashSet<u32>]) -> Segment {
    let mut winners: BTreeMap<u32, LiveDoc> = BTreeMap::new();
    for (i, seg) in inputs.iter().enumerate() {
        'doc: for d in seg.docs() {
            for newer in &claims[i + 1..] {
                if newer.contains(&d.page.0) {
                    continue 'doc;
                }
            }
            winners.insert(d.page.0, d.clone());
        }
    }
    Segment::build(id, winners.into_values().collect(), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{PageId, SourceType};

    fn doc(id: u32, body: &str) -> LiveDoc {
        LiveDoc::new(
            PageId(id),
            format!("https://example.test/{id}"),
            "example.test".to_string(),
            0.4,
            5.0,
            SourceType::Earned,
            format!("Title {id}"),
            body.to_string(),
        )
    }

    #[test]
    fn policy_is_deterministic_and_bounded() {
        let mut a = CompactionPolicy::new(2, 4, 99);
        let mut b = CompactionPolicy::new(2, 4, 99);
        for avail in [5usize, 2, 8, 3, 7, 2, 6] {
            let wa = a.next_width(avail);
            assert_eq!(wa, b.next_width(avail));
            let w = wa.expect("2+ runs available");
            assert!((2..=4).contains(&w) && w <= avail, "width {w}");
        }
        assert_eq!(a.decisions(), 7);
        assert_eq!(a.next_width(1), None);
        assert_eq!(a.decisions(), 8, "a skipped decision still draws");
        let mut c = CompactionPolicy::new(2, 4, 100);
        let seq_a: Vec<_> = (0..16).map(|_| a.next_width(10)).collect();
        let seq_c: Vec<_> = (0..16).map(|_| c.next_width(10)).collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn merge_keeps_newest_version_and_applies_tombstones() {
        let old = Arc::new(Segment::build(
            0,
            vec![
                doc(1, "v1 of one"),
                doc(2, "v1 of two"),
                doc(3, "v1 of three"),
            ],
            Vec::new(),
        ));
        let mid = Arc::new(Segment::build(
            1,
            vec![doc(2, "v2 of two")],
            vec![PageId(3)],
        ));
        let new = Arc::new(Segment::build(
            2,
            vec![doc(4, "v1 of four")],
            vec![PageId(2)],
        ));
        let merged = merge_segments(9, &[old, mid, new]);
        assert_eq!(merged.id(), 9);
        let pages: Vec<u32> = merged.docs().iter().map(|d| d.page.0).collect();
        assert_eq!(pages, [1, 4], "2 deleted by newest, 3 by mid");
        assert!(
            merged.tombstones().is_empty(),
            "prefix merge drops tombstones"
        );
        assert_eq!(&*merged.docs()[0].body, "v1 of one");
    }

    #[test]
    fn merge_is_pure_across_runs() {
        let a = Arc::new(Segment::build(
            0,
            (0..40).map(|i| doc(i, "body text here")).collect(),
            (40..45).map(PageId).collect(),
        ));
        let b = Arc::new(Segment::build(
            1,
            (20..50).map(|i| doc(i, "newer body text")).collect(),
            (0..5).map(PageId).collect(),
        ));
        let x = merge_segments(2, &[Arc::clone(&a), Arc::clone(&b)]);
        let y = merge_segments(2, &[a, b]);
        assert_eq!(x.len(), y.len());
        for (dx, dy) in x.docs().iter().zip(y.docs()) {
            assert_eq!(dx.page, dy.page);
            assert_eq!(dx.body, dy.body);
        }
        assert_eq!(x.store().vocabulary_size(), y.store().vocabulary_size());
    }
}
