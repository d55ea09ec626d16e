//! A bounded, mergeable, lock-free latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two, as a bit count: 32 sub-buckets.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets covering all of `u64`: the values below 32 one each, then 32
/// per power of two from 2^5 up to 2^64.
const BUCKETS: usize = ((64 - SUB_BITS + 1) << SUB_BITS) as usize;

/// A histogram of `u64` values (nanoseconds, say) in log-spaced buckets:
/// 32 buckets per power of two, and one bucket per value below 64.
///
/// Memory is fixed at construction (1,920 counters, 15 KiB), whatever
/// the number or size of the values recorded. Every value lands in a
/// bucket `[lo, lo + w)` whose width `w` is 1 below 64 and at most
/// `lo / 32` above, and a quantile reports its bucket's midpoint, so
/// **a quantile is within 1/64 (1.6%) of the exact nearest-rank value**:
/// `|quantile(q) - v| <= v / 64` for `v` the sample of rank
/// `max(1, ceil(q * count))` in sorted order. The count and the sum are
/// exact, so the mean is too.
///
/// [`record`](Self::record) and [`merge`](Self::merge) take `&self`:
/// counters are relaxed atomics, so threads record concurrently without
/// a lock, and a reader sees each counter at some point between the
/// records around it.
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// The bucket a value lands in.
fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    // `value` has its top bit at `SUB_BITS + shift`; the next SUB_BITS
    // bits pick the sub-bucket.
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((value >> shift) & (SUB - 1)) as usize
}

/// A bucket's lowest value and its width.
fn bounds(bucket: usize) -> (u64, u64) {
    let (group, sub) = (bucket >> SUB_BITS, (bucket as u64) & (SUB - 1));
    if group == 0 {
        return (sub, 1);
    }
    let shift = group as u32 - 1;
    ((SUB + sub) << shift, 1 << shift)
}

/// The midpoint of a bucket: its lowest value plus half its width.
fn midpoint(bucket: usize) -> u64 {
    let (lo, width) = bounds(bucket);
    lo + width / 2
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Adds every count of `other` into this histogram: afterwards it is
    /// what recording both histograms' values would have made it.
    pub fn merge(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of the values recorded (wrapping past `u64::MAX`:
    /// 584 years of nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact mean of the values recorded (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum() as f64 / n as f64,
        }
    }

    /// The value of nearest rank `max(1, ceil(q * count))`, `q` clamped
    /// to `[0, 1]`, within the bound in the type's doc (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, n) in self.buckets.iter().enumerate() {
            seen += n.load(Ordering::Relaxed);
            if seen >= rank {
                return midpoint(bucket);
            }
        }
        // Records landing between `count` and this walk.
        midpoint(BUCKETS - 1)
    }

    /// `(midpoint, count)` of each non-empty bucket, in increasing order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(bucket, n)| (midpoint(bucket), n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n != 0)
    }

    /// Bytes the histogram holds, inline and on the heap.
    pub fn held_bytes(&self) -> usize {
        std::mem::size_of::<LogHistogram>() + std::mem::size_of_val(&*self.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_u64_in_order() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(65), 64);
        assert_eq!(bucket_of(66), 65);
        assert_eq!(bucket_of(127), 95);
        assert_eq!(bucket_of(128), 96);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Each bucket starts where the previous one ends, and is at most
        // 1/32 of its lowest value wide.
        let mut next = 0u64;
        for bucket in 0..BUCKETS {
            let (lo, width) = bounds(bucket);
            assert_eq!(lo, next, "bucket {bucket}");
            assert!(lo < 64 || width * 32 <= lo, "bucket {bucket}");
            assert_eq!(bucket_of(lo), bucket);
            assert_eq!(bucket_of(lo + (width - 1)), bucket);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at 2^64");
    }

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in [0, 1, 5, 31, 32, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 132);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.buckets().count(), 6);
    }

    #[test]
    fn empty_reads_zero() {
        let h = LogHistogram::new();
        assert_eq!((h.count(), h.sum(), h.quantile(0.5)), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }
}
