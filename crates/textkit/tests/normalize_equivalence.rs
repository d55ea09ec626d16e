//! `normalize_query` builds the answer-cache key text in one pass; this
//! suite pins that its bytes are exactly those of the per-token join it
//! replaced, `tokenize(q)` lowercased tokens joined with single spaces,
//! on text built from characters whose lowercase changes length, case
//! class or word boundaries, and on all-ASCII text (its byte loop).

use proptest::prelude::*;
use shift_textkit::{normalize_query, tokenize};

/// The key text as it was built before `normalize_query`: one `String`
/// per token, a `Vec<&str>`, then the join.
fn joined_tokens(q: &str) -> String {
    tokenize(q)
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Pieces of the generated text: ASCII words, separators and joiners,
/// mixed with characters whose lowercasing is not a one-byte-for-one
/// map (`İ` grows and adds a combining dot, Kelvin `K` shrinks to `k`,
/// `Σ` depends on its position in the word, `ǅ` is titlecase, `ẞ` and
/// `Ａ` change case across scripts) or that split words on their own
/// (combining U+0301, no-break space).
const PIECES: &[&str] = &[
    "İ", "Σ", "ΟΔΟΣ", "ẞ", "ǅ", "\u{212A}", "ı", "\u{301}", "Ａ", "Ⱥ", "é", "σ", "\u{a0}", "Best",
    "LAPTOPS", "hotels", "Wi-Fi", "don't", "2025", "a", "Z", " ", "  ", "-", "'", ",", "?", "\t",
];

fn mixed_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..32)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn normalize_query_matches_the_joined_tokens(text in mixed_text()) {
        prop_assert_eq!(normalize_query(&text), joined_tokens(&text), "text {:?}", text);
    }

    #[test]
    fn normalize_query_matches_on_printable_text(text in "\\PC{0,64}") {
        prop_assert_eq!(normalize_query(&text), joined_tokens(&text), "text {:?}", text);
    }

    /// All-ASCII text takes `normalize_query`'s byte loop, which the two
    /// generators above seldom reach: they rarely draw a string with no
    /// non-ASCII character in it.
    #[test]
    fn normalize_query_matches_on_ascii_text(text in "[-' a-zA-Z0-9?!:&,./]{0,64}") {
        prop_assert_eq!(normalize_query(&text), joined_tokens(&text), "text {:?}", text);
    }
}

#[test]
fn each_special_character_keys_as_the_joined_tokens() {
    let cases = [
        ("İstanbul hotels", "i\u{307}stanbul hotels"),
        ("ΟΔΟΣ ΣΑΣ", "οδο\u{3c2} σα\u{3c2}"),
        ("Σ", "σ"),
        ("GROẞE Straße", "große straße"),
        ("ǅemal", "ǆemal"),
        ("5 \u{212A}", "5 k"),
        ("Işık", "işık"),
        ("Cafe\u{301} bar", "cafe bar"),
        ("ＡＢＣ tv", "ａｂｃ tv"),
        ("Ⱥ", "ⱥ"),
        ("", ""),
        ("?!", ""),
    ];
    for (query, want) in cases {
        assert_eq!(joined_tokens(query), want, "joined tokens of {query:?}");
        assert_eq!(normalize_query(query), want, "normalize_query of {query:?}");
    }
}
