//! A result's snippet is an `Excerpt`, a window of the doc store's
//! shared text; this suite pins it to the snippet `String` the frozen
//! oracle composes (`query::reference::extract_snippet`): the excerpt
//! writes the same text, prints the same `Debug`, compares equal to it,
//! and entity attribution on its window finds exactly what
//! `contains_lowercase` finds in the composed text, needles holding a
//! `…` included. Attribution by lookup, in a table of the needles'
//! occurrences in the body, finds the same wherever a table is built, and
//! a table is declined exactly for a body that is not case-simple and
//! for needles that are empty or hold a `…`.

use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use shift_search::query::reference;
use shift_search::serp::{
    contains_lowercase, excerpt_contains_lowercase, extract_snippet, lowercase_occurrences,
    occurrences_within, Occurrence,
};
use shift_textkit::excerpt::ELLIPSIS;
use shift_textkit::Excerpt;

/// Body pieces: ASCII words and whitespace (which the window trims at
/// both edges), chars whose lowercase grows (`İ`) or depends on the
/// word (`Σ`), two-, three- and four-byte chars the window's cut can
/// land inside, the corpus's em dash and the ellipsis itself.
const BODY_PIECES: &[&str] = &[
    "a", "B", "bat", "TERY", "x", " ", "  ", "\t", "\n", ".", "İ", "Σ", "σ", "é", "日本", "𝔸", "—",
    "…",
];

/// Query terms: hits, misses, multi-byte terms and the empty term.
const TERM_PIECES: &[&str] = &[
    "battery", "bat", "tery", "x", "zzz", "é", "σ", "日", "", "i\u{307}",
];

/// A body set inside a larger shared text (the compact layout's arena
/// holds titles and other bodies around it), the query terms and a
/// width, from tiny to wider than any body.
fn snippet_case() -> impl Strategy<Value = (String, String, Vec<String>, usize)> {
    (
        prop::collection::vec(0..BODY_PIECES.len(), 0..40),
        prop::collection::vec(0..BODY_PIECES.len(), 0..4),
        prop::collection::vec(0..TERM_PIECES.len(), 0..3),
        0usize..160,
    )
        .prop_map(|(body, title, terms, width)| {
            let body: String = body.iter().map(|&i| BODY_PIECES[i]).collect();
            let title: String = title.iter().map(|&i| BODY_PIECES[i]).collect();
            let terms = terms.iter().map(|&i| TERM_PIECES[i].to_string()).collect();
            (title, body, terms, width)
        })
}

/// The body text a mention table is built over, and an excerpt's
/// window in the body's coordinates.
struct Table<'a> {
    body: &'a str,
    window: Range<usize>,
}

impl<'a> Table<'a> {
    /// The table for `body` set in an arena after `title`, where
    /// `excerpt` is cut: the arena's window, moved back by the title.
    fn of(title: &str, body: &'a str, excerpt: &Excerpt) -> Table<'a> {
        let window = excerpt.range();
        let window = window.start - title.len()..window.end - title.len();
        assert_eq!(&body[window.clone()], excerpt.window());
        Table { body, window }
    }

    /// Whether a table may be built for `needles` over this body: every
    /// char of the body lowercases to itself alone (the ASCII ones to
    /// their ASCII lowercase), and no needle is empty or holds a `…`.
    fn builds_for(&self, needles: &[String]) -> bool {
        let case_simple = self
            .body
            .chars()
            .all(|c| c.is_ascii() || c.to_lowercase().eq([c]));
        case_simple
            && needles
                .iter()
                .all(|n| !n.is_empty() && !n.contains(ELLIPSIS))
    }

    /// The window's flags by lookup, or `None` where the table declines,
    /// checking that a declined build leaves its output as it was and
    /// that a built one lists real matches in start order.
    fn flags(&self, needles: &[String]) -> Option<Vec<bool>> {
        let sentinel = Occurrence {
            start: 7,
            end: 3,
            needle: 9,
        };
        let mut occurrences = vec![sentinel];
        let built = lowercase_occurrences(self.body, needles, &mut occurrences);
        assert_eq!(occurrences[0], sentinel, "earlier entries are kept");
        assert_eq!(
            built,
            self.builds_for(needles),
            "{needles:?} in {:?}",
            self.body
        );
        if !built {
            assert_eq!(occurrences.len(), 1, "a declined build appends nothing");
            return None;
        }
        let occurrences = &occurrences[1..];
        assert!(occurrences.windows(2).all(|w| w[0].start <= w[1].start));
        let lower = self.body.to_lowercase();
        for o in occurrences {
            let at = o.start as usize..o.end as usize;
            assert_eq!(&lower[at], needles[o.needle as usize], "in {:?}", self.body);
        }
        let mut found = vec![true; needles.len()];
        occurrences_within(occurrences, self.window.clone(), &mut found);
        Some(found)
    }
}

/// The excerpt the kernel cuts for `body` when it lies in an arena
/// after `title`, next to the oracle's composed snippet.
fn both(title: &str, body: &str, terms: &[String], width: usize) -> (Excerpt, String) {
    let text: Arc<str> = format!("{title}{body}{title}").into();
    let range = title.len()..title.len() + body.len();
    let excerpt = extract_snippet(&text, range, terms, width);
    assert!(
        Arc::ptr_eq(excerpt.source(), &text),
        "the excerpt shares the text"
    );
    (excerpt, reference::extract_snippet(body, terms, width))
}

/// Attribution on the excerpt, on the composed text and by lookup in
/// `table`, for needles cut from the composed text's lowercase (so some
/// straddle an ellipsis) and from the pieces above.
fn check_attribution(excerpt: &Excerpt, composed: &str, extra: &[&str], table: &Table) {
    let lower = composed.to_lowercase();
    let chars: Vec<char> = lower.chars().collect();
    let mut needles: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
    for start in (0..chars.len()).step_by(3) {
        for len in [1, 2, 4] {
            let end = (start + len).min(chars.len());
            needles.push(chars[start..end].iter().collect());
        }
    }
    // One batch of needles per call: the whole set (which holds `…`
    // needles whenever the text does) and each needle alone.
    let mut on_excerpt = vec![false; needles.len()];
    let mut on_text = vec![false; needles.len()];
    excerpt_contains_lowercase(excerpt, &needles, &mut on_excerpt);
    contains_lowercase(composed, &needles, &mut on_text);
    assert_eq!(on_excerpt, on_text, "{needles:?} in {composed:?}");
    if let Some(by_lookup) = table.flags(&needles) {
        assert_eq!(by_lookup, on_text, "{needles:?} by lookup in {composed:?}");
    }
    for (n, &want) in needles.iter().zip(&on_text) {
        assert_eq!(want, lower.contains(n.as_str()), "{n:?} in {composed:?}");
        let mut one = [false];
        excerpt_contains_lowercase(excerpt, std::slice::from_ref(n), &mut one);
        assert_eq!(one[0], want, "{n:?} alone in {composed:?}");
        if let Some(by_lookup) = table.flags(std::slice::from_ref(n)) {
            assert_eq!(by_lookup, [want], "{n:?} alone by lookup in {composed:?}");
        }
    }
}

fn check(title: &str, body: &str, terms: &[String], width: usize) {
    let (excerpt, oracle) = both(title, body, terms, width);
    assert_eq!(
        excerpt.to_string(),
        oracle,
        "body {body:?} terms {terms:?} width {width}"
    );
    assert_eq!(format!("{excerpt:?}"), format!("{oracle:?}"));
    assert_eq!(excerpt.len(), oracle.len());
    assert_eq!(excerpt, Excerpt::from(oracle.as_str()));
    let extra = ["…", "a…", "…b", "tery…", "ς", "σ"];
    check_attribution(&excerpt, &oracle, &extra, &Table::of(title, body, &excerpt));
}

/// Attribution on the window `body[window]` of an arena that holds
/// `body` after `title`, with `…` on both sides; returns whether a table
/// was built for `needles`.
fn check_window(title: &str, body: &str, window: Range<usize>, needles: &[&str]) -> bool {
    let text: Arc<str> = format!("{title}{body}{title}").into();
    let arena = title.len() + window.start..title.len() + window.end;
    let excerpt = Excerpt::new(text, arena, true, true);
    let table = Table::of(title, body, &excerpt);
    check_attribution(&excerpt, &excerpt.to_string(), needles, &table);
    let needles: Vec<String> = needles.iter().map(|n| n.to_string()).collect();
    table.flags(&needles).is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn excerpt_writes_the_oracle_snippet((title, body, terms, width) in snippet_case()) {
        check(&title, &body, &terms, width);
    }
}

#[test]
fn named_cases_match_the_oracle() {
    let terms = |ts: &[&str]| ts.iter().map(|t| t.to_string()).collect::<Vec<_>>();
    let long = format!("{} battery {}", "filler ".repeat(20), "tail ".repeat(20));
    let cases: Vec<(String, Vec<String>, usize)> = vec![
        // Whitespace at both edges of the window is trimmed off it.
        (
            format!("{}battery{}", " ".repeat(30), " ".repeat(30)),
            terms(&["battery"]),
            40,
        ),
        (long.clone(), terms(&["battery"]), 14),
        // `İ` grows when lowercased, so the hit sits later in the
        // lowercase than in the body.
        (
            format!("{} battery {}", "İ".repeat(40), "x".repeat(200)),
            terms(&["battery"]),
            20,
        ),
        // A word-final `Σ` at the window's end and one inside it.
        (
            "ΟΔΟΣ ΣΑΣ battery ΟΔΟΣ end".to_string(),
            terms(&["battery"]),
            12,
        ),
        ("xx ΟΔΟΣ".to_string(), terms(&["zzz"]), 9),
        // Multi-byte chars where the window cuts.
        (
            "日本日本日本 battery 𝔸𝔸𝔸𝔸 éééé".to_string(),
            terms(&["battery"]),
            9,
        ),
        // A body shorter than the width, and one with no hit.
        ("short body".to_string(), terms(&["body"]), 400),
        (long, terms(&["nothing"]), 30),
        ("".to_string(), terms(&["x"]), 10),
    ];
    for (body, terms, width) in cases {
        check("Title ", &body, &terms, width);
        check("", &body, &terms, width);
    }
}

#[test]
fn a_final_sigma_before_an_ellipsis_lowercases_as_at_the_end() {
    // `…` is neither cased nor case-ignorable, so the `Σ` before it is
    // word-final exactly as at the end of the window.
    assert_eq!("AΣ…B".to_lowercase(), "aς…b");
    let body = format!("ΟΔΟΣ {}", "x".repeat(50));
    let (excerpt, oracle) = both("", &body, &[], 16);
    assert!(oracle.ends_with("Σ…"), "{oracle:?}");
    let table = Table::of("", &body, &excerpt);
    check_attribution(&excerpt, &oracle, &["ς…", "οδος", "οδοσ", "ς"], &table);
}

#[test]
fn lookup_counts_only_occurrences_wholly_inside_the_window() {
    for title in ["", "Title "] {
        // Overlapping occurrences: the window cuts the first `aa` of
        // `aaa` but holds the second.
        assert!(check_window(title, "aaa", 1..3, &["aa", "aaa", "a"]));
        assert!(check_window(title, "aaa", 1..2, &["aa", "a"]));
        // An occurrence straddling the window's start, then its end.
        assert!(check_window(
            title,
            "xx battery xx",
            4..13,
            &["battery", "ttery", "xx"]
        ));
        assert!(check_window(
            title,
            "xx battery xx",
            0..6,
            &["battery", "xx b", "bat"]
        ));
        // Exactly the occurrence, and an empty window.
        assert!(check_window(
            title,
            "xx battery xx",
            3..10,
            &["battery", " battery"]
        ));
        assert!(check_window(
            title,
            "xx battery xx",
            5..5,
            &["battery", "t"]
        ));
    }
}

#[test]
fn bodies_that_are_not_case_simple_take_the_scan() {
    for title in ["", "Title "] {
        // `Σ` lowercases by context and `İ` grows: neither body gets a
        // table, whatever the window.
        assert!(!check_window(
            title,
            "ΟΔΟΣ battery",
            0..8,
            &["οδος", "battery"]
        ));
        assert!(!check_window(title, "battery ΟΔΟΣ", 0..7, &["battery"]));
        assert!(!check_window(
            title,
            "İstanbul battery",
            2..16,
            &["battery", "stanbul"]
        ));
        assert!(!check_window(
            title,
            "battery İ",
            0..7,
            &["battery", "i\u{307}"]
        ));
        // Empty needles and `…` needles decline on any body.
        assert!(!check_window(title, "battery", 0..7, &["battery", ""]));
        assert!(!check_window(title, "battery", 0..7, &["y…"]));
        // Case-simple non-ASCII text keeps its table.
        let body = "日本 — éclair σς";
        assert!(check_window(
            title,
            body,
            3..body.len(),
            &["éclair", "σς", "—"]
        ));
    }
}
