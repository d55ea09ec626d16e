//! Properties of the log-bucket latency histogram: quantiles within the
//! stated error of the exact nearest-rank percentile, merging equal to
//! recording, and memory that does not grow with the records.

use proptest::prelude::*;
use shift_metrics::LogHistogram;

/// Values spread over every magnitude of `u64`: a uniform draw shifted
/// right by a uniform amount.
fn values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        (0u64..u64::MAX, 0u32..64).prop_map(|(raw, shift)| raw >> shift),
        1..200,
    )
}

fn recorded(values: &[u64]) -> LogHistogram {
    let h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The sample of nearest rank `max(1, ceil(q * n))`.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Every quantile lies within 1/64 of the exact sorted percentile.
    #[test]
    fn quantiles_are_within_the_stated_error(values in values(), q in 0.0..1.0f64) {
        let h = recorded(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [q, 0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = nearest_rank(&sorted, q);
            let got = h.quantile(q);
            prop_assert!(
                u128::from(got.abs_diff(exact)) * 64 <= u128::from(exact),
                "q {} exact {} got {}", q, exact, got
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let sum = values.iter().fold(0u64, |s, &v| s.wrapping_add(v));
        prop_assert_eq!(h.sum(), sum);
    }

    /// `merge(a, b)` equals recording `a`'s values then `b`'s, bucket for
    /// bucket.
    #[test]
    fn merge_equals_recording_both(a in values(), b in values()) {
        let merged = recorded(&a);
        merged.merge(&recorded(&b));
        let both = recorded(&a);
        for &v in &b {
            both.record(v);
        }
        prop_assert!(merged.buckets().eq(both.buckets()));
        prop_assert_eq!(merged.sum(), both.sum());
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
    }
}

#[test]
fn held_bytes_do_not_grow_with_records() {
    let h = LogHistogram::new();
    let empty = h.held_bytes();
    for v in 0..10u64 {
        h.record(v * 1_000);
    }
    let after_ten = h.held_bytes();
    for v in 0..1_000_000u64 {
        h.record(v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (v % 64));
    }
    assert_eq!(h.count(), 1_000_010);
    assert_eq!(after_ten, empty);
    assert_eq!(h.held_bytes(), after_ten);
}

#[test]
fn mean_is_exact() {
    let h = recorded(&[1_000, 2_000, 3_500]);
    assert_eq!(h.mean(), 6_500.0 / 3.0);
}
