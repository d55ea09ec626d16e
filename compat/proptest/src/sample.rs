//! Sampling strategies (`prop::sample::subsequence`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy yielding a random order-preserving subsequence of `values`
/// with exactly `count` elements.
///
/// Upstream accepts size ranges; this workspace only draws exact counts.
pub fn subsequence<T: Clone>(values: Vec<T>, count: usize) -> Subsequence<T> {
    assert!(
        count <= values.len(),
        "subsequence count {count} exceeds {} available values",
        values.len()
    );
    Subsequence { values, count }
}

/// See [`subsequence`].
pub struct Subsequence<T> {
    values: Vec<T>,
    count: usize,
}

impl<T: Clone> Strategy for Subsequence<T> {
    type Value = Vec<T>;

    fn generate(&self, rng: &mut TestRng) -> Vec<T> {
        // Floyd-style: draw `count` distinct indices, then emit them in
        // positional order to preserve the subsequence property.
        let n = self.values.len();
        let mut picked = vec![false; n];
        let mut remaining = self.count;
        let mut free = n;
        for slot in picked.iter_mut() {
            // Probability remaining/free keeps the choice uniform.
            if remaining > 0 && rng.index(free) < remaining {
                *slot = true;
                remaining -= 1;
            }
            free -= 1;
        }
        self.values
            .iter()
            .zip(&picked)
            .filter(|(_, &p)| p)
            .map(|(v, _)| v.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_length_subsequence_is_identity() {
        let strat = subsequence(vec![1, 2, 3, 4], 4);
        let mut rng = TestRng::for_test("subseq-full");
        assert_eq!(strat.generate(&mut rng), vec![1, 2, 3, 4]);
    }

    #[test]
    fn partial_subsequence_preserves_order() {
        let base: Vec<u32> = (0..10).collect();
        let strat = subsequence(base, 4);
        let mut rng = TestRng::for_test("subseq-order");
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert_eq!(v.len(), 4);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "not ordered: {v:?}");
        }
    }
}
