//! Fixed-bin histograms for the age-distribution plots of Figure 4.

/// A histogram over `[min, max)` with uniform bins plus an overflow bin.
///
/// Values below `min` clamp into the first bin; values at or above `max`
/// land in the dedicated overflow bin so long-tail article ages don't
/// distort the visible range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[min, max)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `max <= min`.
    pub fn new(min: f64, max: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(max > min, "histogram range must be non-empty");
        Histogram {
            min,
            max,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation. NaN values are ignored.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`. NaN values are ignored.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if value.is_nan() {
            return;
        }
        self.total += n;
        if value >= self.max {
            self.overflow += n;
            return;
        }
        let clamped = value.max(self.min);
        let width = (self.max - self.min) / self.counts.len() as f64;
        let idx = (((clamped - self.min) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += n;
    }

    /// Records every value of a slice.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Total observations recorded (including overflow, excluding NaN).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the overflow bin (`value >= max`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts (excluding overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(lower, upper, count)` for each bin, in order.
    pub fn bins(&self) -> Vec<(f64, f64, u64)> {
        let width = (self.max - self.min) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    self.min + i as f64 * width,
                    self.min + (i + 1) as f64 * width,
                    c,
                )
            })
            .collect()
    }

    /// Per-bin fraction of total (empty histogram yields zeros).
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Renders a fixed-width ASCII sparkline of the bin counts — the textual
    /// stand-in for the paper's distribution plots.
    pub fn ascii_sparkline(&self) -> String {
        const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return " ".repeat(self.counts.len());
        }
        self.counts
            .iter()
            .map(|&c| {
                let level = (c as f64 / max as f64 * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[level]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0); // bin 0
        h.record(95.0); // bin 9
        h.record(50.0); // bin 5
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn overflow_and_clamp() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(10.0); // exactly max → overflow
        h.record(1e9);
        h.record(-5.0); // clamps to first bin
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn record_n_counts_n_observations() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record_n(1.0, 3);
        h.record_n(20.0, 2);
        assert_eq!((h.counts()[0], h.overflow(), h.total()), (3, 2, 5));
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        h.record(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn bin_edges_are_uniform() {
        let h = Histogram::new(0.0, 30.0, 3);
        let bins = h.bins();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].0, 0.0);
        assert_eq!(bins[0].1, 10.0);
        assert_eq!(bins[2].1, 30.0);
    }

    #[test]
    fn normalized_sums_to_one_without_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all(&[1.0, 2.0, 3.0, 4.0]);
        let sum: f64 = h.normalized().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_normalized_is_zeros() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.normalized(), vec![0.0; 4]);
    }

    #[test]
    fn sparkline_has_one_char_per_bin() {
        let mut h = Histogram::new(0.0, 10.0, 8);
        h.record_all(&[1.0, 1.5, 2.0, 9.0]);
        assert_eq!(h.ascii_sparkline().chars().count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 3);
    }
}
