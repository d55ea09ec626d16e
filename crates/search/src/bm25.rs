//! Okapi BM25 with field weighting and a positional proximity bonus.

use crate::postings::Posting;

/// BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation (typical 1.2–2.0).
    pub k1: f64,
    /// Length normalization (0 = none, 1 = full).
    pub b: f64,
    /// Weight applied to title occurrences relative to body occurrences.
    pub title_weight: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params {
            k1: 1.2,
            b: 0.75,
            title_weight: 2.5,
        }
    }
}

/// Robertson-Sparck-Jones IDF with the standard +1 inside the log so scores
/// stay positive for common terms.
pub fn idf(doc_count: u32, doc_freq: u32) -> f64 {
    let n = doc_count as f64;
    let df = doc_freq as f64;
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// BM25 contribution of one term in one document.
///
/// `weighted_tf` folds the title boost in: `title_tf * title_weight +
/// body_tf`.
pub fn term_score(
    params: &Bm25Params,
    posting: &Posting,
    doc_freq: u32,
    doc_count: u32,
    doc_len: f64,
    avg_len: f64,
) -> f64 {
    term_score_idf(params, posting, idf(doc_count, doc_freq), doc_len, avg_len)
}

/// BM25 contribution of one term with a precomputed IDF.
///
/// Impact tables compute each term's IDF once per list instead of once
/// per posting; the math is identical to [`term_score`] (IDF is a
/// pure function of the collection statistics), so both paths produce
/// bit-equal scores.
#[inline]
pub fn term_score_idf(
    params: &Bm25Params,
    posting: &Posting,
    idf: f64,
    doc_len: f64,
    avg_len: f64,
) -> f64 {
    term_score_tf(
        params,
        posting.title_tf,
        posting.body_tf,
        idf,
        doc_len,
        avg_len,
    )
}

/// BM25 contribution from bare term frequencies — the same expression
/// as [`term_score_idf`] without requiring a materialized [`Posting`],
/// so the compressed read path (which decodes `(title_tf, body_tf)`
/// pairs from packed blocks) computes bit-equal scores.
#[inline]
pub fn term_score_tf(
    params: &Bm25Params,
    title_tf: u32,
    body_tf: u32,
    idf: f64,
    doc_len: f64,
    avg_len: f64,
) -> f64 {
    let tf = title_tf as f64 * params.title_weight + body_tf as f64;
    let norm = if avg_len > 0.0 {
        1.0 - params.b + params.b * doc_len / avg_len
    } else {
        1.0
    };
    idf * tf * (params.k1 + 1.0) / (tf + params.k1 * norm)
}

/// Proximity bonus in `[0, max_bonus]`: rewards documents where the query
/// terms appear close together. Uses the minimal window covering one
/// occurrence of each matched term (a classic span heuristic).
///
/// `term_positions` holds one sorted position list per matched query term.
pub fn proximity_bonus(term_positions: &[&[u32]], max_bonus: f64) -> f64 {
    let k = term_positions.len();
    if k < 2 || term_positions.iter().any(|p| p.is_empty()) {
        return 0.0;
    }
    // Sweep: merge all positions tagged by term, find minimal window
    // containing all k terms.
    let mut tagged: Vec<(u32, usize)> = Vec::new();
    for (t, positions) in term_positions.iter().enumerate() {
        for &p in *positions {
            tagged.push((p, t));
        }
    }
    tagged.sort_unstable();
    let mut counts = vec![0usize; k];
    let mut covered = 0usize;
    let mut left = 0usize;
    let mut best_span = u32::MAX;
    for right in 0..tagged.len() {
        let (_, t) = tagged[right];
        if counts[t] == 0 {
            covered += 1;
        }
        counts[t] += 1;
        while covered == k {
            let span = tagged[right].0 - tagged[left].0;
            best_span = best_span.min(span);
            let (_, lt) = tagged[left];
            counts[lt] -= 1;
            if counts[lt] == 0 {
                covered -= 1;
            }
            left += 1;
        }
    }
    if best_span == u32::MAX {
        return 0.0;
    }
    window_bonus(best_span, k, max_bonus)
}

/// Converts a minimal cover span into the proximity bonus. A window of
/// exactly `k-1` (adjacent terms) earns the full bonus, decaying
/// hyperbolically with slack. Shared by [`proximity_bonus`] and the
/// kernel so both paths evaluate the identical expression.
#[inline]
pub(crate) fn window_bonus(best_span: u32, k: usize, max_bonus: f64) -> f64 {
    let slack = best_span as f64 - (k as f64 - 1.0);
    max_bonus / (1.0 + slack.max(0.0) / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(title_tf: u32, body_tf: u32) -> Posting {
        Posting {
            doc: 0,
            title_tf,
            body_tf,
        }
    }

    #[test]
    fn precomputed_idf_path_is_bit_equal() {
        let p = Bm25Params::default();
        let post = posting(2, 7);
        let direct = term_score(&p, &post, 10, 1000, 140.0, 100.0);
        let split = term_score_idf(&p, &post, idf(1000, 10), 140.0, 100.0);
        assert_eq!(direct.to_bits(), split.to_bits());
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        assert!(idf(1000, 1) > idf(1000, 10));
        assert!(idf(1000, 10) > idf(1000, 500));
        assert!(idf(1000, 1000) > 0.0, "idf stays positive");
    }

    #[test]
    fn tf_saturates() {
        let p = Bm25Params::default();
        let s1 = term_score(&p, &posting(0, 1), 10, 1000, 100.0, 100.0);
        let s5 = term_score(&p, &posting(0, 5), 10, 1000, 100.0, 100.0);
        let s50 = term_score(&p, &posting(0, 50), 10, 1000, 100.0, 100.0);
        assert!(s5 > s1);
        assert!(s50 > s5);
        assert!(s50 - s5 < s5 - s1, "gains must diminish");
    }

    #[test]
    fn title_occurrences_outweigh_body() {
        let p = Bm25Params::default();
        let title = term_score(&p, &posting(1, 0), 10, 1000, 100.0, 100.0);
        let body = term_score(&p, &posting(0, 1), 10, 1000, 100.0, 100.0);
        assert!(title > body);
    }

    #[test]
    fn longer_documents_are_normalized_down() {
        let p = Bm25Params::default();
        let short = term_score(&p, &posting(0, 2), 10, 1000, 50.0, 100.0);
        let long = term_score(&p, &posting(0, 2), 10, 1000, 400.0, 100.0);
        assert!(short > long);
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        let p = Bm25Params {
            b: 0.0,
            ..Default::default()
        };
        let short = term_score(&p, &posting(0, 2), 10, 1000, 50.0, 100.0);
        let long = term_score(&p, &posting(0, 2), 10, 1000, 400.0, 100.0);
        assert!((short - long).abs() < 1e-12);
    }

    #[test]
    fn proximity_full_bonus_for_adjacent_terms() {
        let a = [5u32];
        let b = [6u32];
        let bonus = proximity_bonus(&[&a, &b], 2.0);
        assert!((bonus - 2.0).abs() < 1e-9);
    }

    #[test]
    fn proximity_decays_with_distance() {
        let a = [0u32];
        let near = [2u32];
        let far = [60u32];
        let b_near = proximity_bonus(&[&a, &near], 2.0);
        let b_far = proximity_bonus(&[&a, &far], 2.0);
        assert!(b_near > b_far);
        assert!(b_far > 0.0);
    }

    #[test]
    fn proximity_zero_for_single_term_or_missing() {
        let a = [1u32, 2];
        assert_eq!(proximity_bonus(&[&a], 2.0), 0.0);
        let empty: [u32; 0] = [];
        assert_eq!(proximity_bonus(&[&a, &empty], 2.0), 0.0);
        assert_eq!(proximity_bonus(&[], 2.0), 0.0);
    }

    #[test]
    fn proximity_finds_best_window_among_many() {
        // term A at 0 and 100, term B at 101 → window (100,101) is adjacent.
        let a = [0u32, 100];
        let b = [101u32];
        let bonus = proximity_bonus(&[&a, &b], 1.0);
        assert!((bonus - 1.0).abs() < 1e-9);
    }

    #[test]
    fn three_term_window() {
        let a = [10u32];
        let b = [12u32];
        let c = [11u32];
        // window 10..12 covers all three, span 2 == k-1 → full bonus.
        let bonus = proximity_bonus(&[&a, &b, &c], 1.5);
        assert!((bonus - 1.5).abs() < 1e-9);
    }
}
