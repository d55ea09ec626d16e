//! Shared byte-accounting helpers for size reports.
//!
//! Every stats struct in the crate ([`crate::IndexStats`], the live
//! index's segment and rollup reports) sizes the same structures:
//! postings, positions, block tables, dictionaries, metadata. This
//! module centralizes the raw-vs-held bookkeeping so the batch and live
//! paths report compression with one definition: `raw_bytes` is what
//! the uncompressed layout would cost for the same logical content,
//! `compressed_bytes` is what is actually held (equal in raw mode), and
//! `ratio()` is their quotient.

use crate::postings::PostingsStats;

/// A raw-layout-vs-held byte pair for one structure or a whole index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizePair {
    /// What the uncompressed layout would cost for the same content.
    pub raw_bytes: u64,
    /// Bytes actually held in memory (equals `raw_bytes` in raw mode).
    pub compressed_bytes: u64,
}

impl SizePair {
    /// A pair where both layouts cost the same (uncompressed content).
    pub fn raw(bytes: u64) -> SizePair {
        SizePair {
            raw_bytes: bytes,
            compressed_bytes: bytes,
        }
    }

    /// Compression ratio `compressed / raw` (1.0 for empty content, so
    /// an empty index never reads as infinitely compressed).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.compressed_bytes as f64 / self.raw_bytes as f64
        }
    }
}

impl std::ops::Add for SizePair {
    type Output = SizePair;
    fn add(self, rhs: SizePair) -> SizePair {
        SizePair {
            raw_bytes: self.raw_bytes + rhs.raw_bytes,
            compressed_bytes: self.compressed_bytes + rhs.compressed_bytes,
        }
    }
}

impl std::ops::AddAssign for SizePair {
    fn add_assign(&mut self, rhs: SizePair) {
        *self = *self + rhs;
    }
}

/// The posting-list + position-stream sizing of one store, raw vs held,
/// from its [`PostingsStats`]. Both the batch index and every live
/// segment report through this so the two paths can never disagree on
/// what "raw" means.
pub fn postings_size(stats: &PostingsStats) -> SizePair {
    SizePair {
        raw_bytes: stats.raw_postings_bytes + stats.raw_positions_bytes,
        compressed_bytes: stats.postings_bytes + stats.positions_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_one_for_empty_and_raw_content() {
        assert_eq!(SizePair::default().ratio(), 1.0);
        assert_eq!(SizePair::raw(1024).ratio(), 1.0);
    }

    #[test]
    fn pairs_add_componentwise() {
        let mut a = SizePair {
            raw_bytes: 100,
            compressed_bytes: 25,
        };
        a += SizePair::raw(100);
        assert_eq!(a.raw_bytes, 200);
        assert_eq!(a.compressed_bytes, 125);
        assert!((a.ratio() - 0.625).abs() < 1e-12);
    }
}
