//! `SerpCacheKey::new` appends each analyzed term to one string; this
//! suite pins that the key text is exactly `analyze(q).join(" ")`, the
//! term list the retrieval kernel scores, on text mixing ASCII words and
//! stopwords with characters whose lowercase changes length, case class
//! or word boundaries.

use proptest::prelude::*;
use shift_engines::SerpCacheKey;
use shift_textkit::analyze;

/// Pieces of the generated text: stopwords, stemmable and short words,
/// separators and joiners, and characters whose lowercasing is not a
/// one-byte-for-one map (`İ`, word-final `Σ`, `ẞ`, `ǅ`, Kelvin `K`, `ı`,
/// fullwidth `Ａ`) or that split words (combining U+0301).
const PIECES: &[&str] = &[
    "İ",
    "Σ",
    "ΟΔΟΣ",
    "ẞ",
    "ǅ",
    "\u{212A}",
    "ı",
    "\u{301}",
    "Ａ",
    "é",
    "The",
    "of",
    "Best",
    "LAPTOPS",
    "batteries",
    "running",
    "s",
    "ies",
    "Wi-Fi",
    "don't",
    "2025",
    " ",
    "-",
    "'",
    ",",
    "?",
];

fn mixed_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..32)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn key_text(q: &str) -> String {
    SerpCacheKey::new(q, 0x5eed, 10).normalized().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn serp_key_text_is_the_joined_analysis(text in mixed_text()) {
        prop_assert_eq!(key_text(&text), analyze(&text).join(" "), "text {:?}", text);
    }

    #[test]
    fn serp_key_text_matches_on_printable_text(text in "\\PC{0,64}") {
        prop_assert_eq!(key_text(&text), analyze(&text).join(" "), "text {:?}", text);
    }
}

#[test]
fn serp_key_text_on_named_queries() {
    for query in [
        "The best laptops for students",
        "İstanbul hotels",
        "ΟΔΟΣ ΣΑΣ",
        "GROẞE Straße",
        "ǅemal \u{212A} Işık",
        "Cafe\u{301} ＡＢＣ",
        "the of and",
        "",
    ] {
        assert_eq!(key_text(query), analyze(query).join(" "), "{query:?}");
    }
}
