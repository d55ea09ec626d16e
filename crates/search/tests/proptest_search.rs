//! Property-based tests for the search engine: SERP invariants that must
//! hold for any query string and any k.

use std::sync::OnceLock;

use proptest::prelude::*;
use shift_corpus::{World, WorldConfig};
use shift_search::serp::{contains_lowercase, find_lowercase};
use shift_search::{RankingParams, SearchEngine};

fn engines() -> &'static (SearchEngine, SearchEngine) {
    static ENGINES: OnceLock<(SearchEngine, SearchEngine)> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(), 4040);
        let google = SearchEngine::build(&world, RankingParams::google());
        let ai = SearchEngine::with_index(google.index_handle(), RankingParams::ai_retrieval());
        (google, ai)
    })
}

/// Query strings built from realistic tokens plus arbitrary junk.
fn query() -> impl Strategy<Value = String> {
    prop_oneof![
        // Realistic: template words + topic nouns.
        (
            prop_oneof![
                Just("best"),
                Just("top 10"),
                Just("most reliable"),
                Just("buy")
            ],
            prop_oneof![
                Just("smartphones"),
                Just("laptops"),
                Just("SUVs"),
                Just("hotels"),
                Just("credit cards"),
                Just("espresso machines"),
            ],
            prop_oneof![Just(""), Just(" 2025"), Just(" for students")],
        )
            .prop_map(|(a, b, c)| format!("{a} {b}{c}")),
        // Arbitrary junk (must not panic, may return empty).
        "\\PC{0,48}",
    ]
}

/// Pieces of adversarial text for the snippet locator: mixed-case ASCII,
/// the corpus's em dash, and chars whose lowercase differs from them in
/// length (`İ`, `ẞ`), in bytes only (`É`), by context (`Σ`, wherever the
/// sequence puts it) or into ASCII (the Kelvin sign).
const TEXT_PIECES: &[&str] = &[
    "a", "B", "bat", "BaT", "tery", "TERY", " ", ".", "x", "i", "ey", "K", "ss", "—", "İ", "ẞ",
    "Σ", "σ", "ς", "\u{212A}", "é", "É", "ß", "\u{307}",
];

/// Needles: empty, absent, multi-byte, ones the pieces above only match
/// once lowercased, and one longer than any generated text.
const NEEDLE_PIECES: &[&str] = &[
    "",
    "a",
    "b",
    "bat",
    "battery",
    "tery",
    "key",
    "k",
    "i",
    "i\u{307}",
    "σ",
    "ς",
    "ss",
    "ß",
    "é",
    "—",
    "x",
    "a—b",
    "σa",
    "tery tery tery tery tery tery tery tery tery tery tery tery tery",
];

/// A text, and needles over it: pieces from the list above, plus windows
/// of its lowercase and of the text itself, which make needles that
/// reach into or across the chars the in-place pass cannot fold. A
/// window may end on the last byte, so some hits do.
fn locator_case() -> impl Strategy<Value = (String, Vec<String>)> {
    (
        prop::collection::vec(0..TEXT_PIECES.len(), 0..24),
        prop::collection::vec(0..NEEDLE_PIECES.len(), 0..4),
        prop::collection::vec((0usize..64, 1usize..6, 0usize..3), 0..4),
    )
        .prop_map(|(text, pieces, windows)| {
            let text: String = text.iter().map(|&i| TEXT_PIECES[i]).collect();
            let lower = text.to_lowercase();
            let mut needles: Vec<String> = pieces
                .iter()
                .map(|&i| NEEDLE_PIECES[i].to_string())
                .collect();
            for (start, len, source) in windows {
                // Two in three windows come from the lowercase.
                let from = if source == 0 { &text } else { &lower };
                let chars: Vec<char> = from.chars().collect();
                if !chars.is_empty() {
                    let start = start % chars.len();
                    let end = (start + len).min(chars.len());
                    needles.push(chars[start..end].iter().collect());
                }
            }
            (text, needles)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Search never panics, respects k, and returns strictly ordered
    /// scores with no duplicate URLs.
    #[test]
    fn serp_invariants(q in query(), k in 0usize..25) {
        let (google, _) = engines();
        let serp = google.search(&q, k);
        prop_assert!(serp.results.len() <= k);
        for pair in serp.results.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score, "scores out of order");
        }
        let mut urls: Vec<&str> = serp.results.iter().map(|r| &*r.url).collect();
        let n = urls.len();
        urls.sort_unstable();
        urls.dedup();
        prop_assert_eq!(urls.len(), n, "duplicate URLs in SERP");
    }

    /// Growing k only extends the SERP; the prefix is stable.
    #[test]
    fn k_monotonicity(q in query()) {
        let (google, _) = engines();
        let small = google.search(&q, 5);
        let large = google.search(&q, 10);
        prop_assert!(large.results.len() >= small.results.len());
        for (a, b) in small.results.iter().zip(&large.results) {
            prop_assert_eq!(&a.url, &b.url, "prefix must be stable as k grows");
        }
    }

    /// Host crowding holds for every query.
    #[test]
    fn host_crowding_invariant(q in query()) {
        let (google, _) = engines();
        let serp = google.search(&q, 20);
        let mut counts = std::collections::HashMap::new();
        for r in &serp.results {
            *counts.entry(&*r.host).or_insert(0usize) += 1;
        }
        for (host, n) in counts {
            prop_assert!(n <= 2, "host {host} appears {n} times");
        }
    }

    /// Determinism: identical query, identical SERP.
    #[test]
    fn search_is_deterministic(q in query()) {
        let (google, ai) = engines();
        let (g1, g2) = (google.search(&q, 10), google.search(&q, 10));
        prop_assert_eq!(g1.urls(), g2.urls());
        let (a1, a2) = (ai.search(&q, 10), ai.search(&q, 10));
        prop_assert_eq!(a1.urls(), a2.urls());
    }

    /// For realistic queries, AI retrieval never returns *older* result
    /// sets than Google on average (its freshness weight is higher).
    #[test]
    fn ai_retrieval_is_no_staler(
        noun in prop_oneof![
            Just("smartphones"), Just("laptops"), Just("smartwatches"), Just("hotels")
        ]
    ) {
        let (google, ai) = engines();
        let q = format!("top 10 best {noun} 2025");
        let mean_age = |serp: &shift_search::Serp| {
            if serp.results.is_empty() {
                return 0.0;
            }
            serp.results.iter().map(|r| r.age_days).sum::<f64>() / serp.results.len() as f64
        };
        let g = google.search(&q, 10);
        let a = ai.search(&q, 10);
        prop_assume!(!g.results.is_empty() && !a.results.is_empty());
        prop_assert!(
            mean_age(&a) <= mean_age(&g) + 30.0,
            "AI retrieval staler: {:.0} vs {:.0}",
            mean_age(&a),
            mean_age(&g)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The in-place locator finds exactly the first hit of any needle in
    /// `text.to_lowercase()`, reported as the text char it starts in.
    #[test]
    fn locator_matches_lowercase_find((text, needles) in locator_case()) {
        let lower = text.to_lowercase();
        let expected = needles.iter().filter_map(|n| lower.find(n.as_str())).min().map(|at| {
            // The last char whose lowercased prefix does not pass `at`.
            text.char_indices()
                .map(|(i, _)| i)
                .rfind(|&i| text[..i].to_lowercase().len() <= at)
                .unwrap_or(text.len())
        });
        prop_assert_eq!(find_lowercase(&text, &needles), expected, "{:?} in {:?}", needles, text);
    }

    /// The folded `contains` agrees with `to_lowercase().contains` for
    /// every needle.
    #[test]
    fn folded_contains_matches_lowercase_contains((text, needles) in locator_case()) {
        let lower = text.to_lowercase();
        let mut found = vec![true; needles.len()];
        contains_lowercase(&text, &needles, &mut found);
        for (n, f) in needles.iter().zip(&found) {
            prop_assert_eq!(*f, lower.contains(n.as_str()), "{:?} in {:?}", n, text);
        }
    }
}
