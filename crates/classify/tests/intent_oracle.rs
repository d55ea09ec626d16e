//! `classify_intent` matches its markers over the span walker's tokens,
//! comparing ASCII tokens in place. This suite pins it to a frozen copy
//! of the classifier that lowercased every token into its own `String`
//! (`tokenize`), on text mixing the markers, in any case, with
//! characters whose lowercase changes length or case class, or folds to
//! ASCII (the Kelvin sign `K` lowercases to `k`).

use proptest::prelude::*;
use shift_classify::classify_intent;
use shift_classify::intent::QueryIntentLabel;
use shift_textkit::tokenize;

const TRANSACTIONAL_MARKERS: &[&str] = &[
    "buy", "price", "prices", "deal", "deals", "discount", "coupon", "order", "purchase", "stock",
    "shipping", "cheapest", "sale",
];

const INFORMATIONAL_STARTERS: &[&str] = &[
    "how", "what", "why", "when", "where", "who", "is", "are", "does", "do", "can",
];

const CONSIDERATION_MARKERS: &[&str] = &[
    "best",
    "top",
    "vs",
    "versus",
    "compare",
    "comparison",
    "recommended",
    "alternatives",
    "better",
    "reliable",
    "rated",
    "review",
    "reviews",
];

/// The classifier as it was: one lowercased `String` per token.
fn frozen_classify_intent(query: &str) -> QueryIntentLabel {
    let tokens: Vec<String> = tokenize(query).into_iter().map(|t| t.text).collect();
    if tokens.is_empty() {
        return QueryIntentLabel::Consideration;
    }
    if tokens
        .iter()
        .any(|t| TRANSACTIONAL_MARKERS.contains(&t.as_str()))
    {
        return QueryIntentLabel::Transactional;
    }
    if tokens
        .iter()
        .any(|t| CONSIDERATION_MARKERS.contains(&t.as_str()))
    {
        return QueryIntentLabel::Consideration;
    }
    if INFORMATIONAL_STARTERS.contains(&tokens[0].as_str()) || query.trim_end().ends_with('?') {
        return QueryIntentLabel::Informational;
    }
    QueryIntentLabel::Consideration
}

/// Pieces of the generated text: markers of each class in several
/// cases, markers spelled with a Kelvin sign, ordinary words,
/// separators, joiners and a trailing `?`, and characters whose
/// lowercasing is not a one-byte-for-one map (`İ`, `Σ`, `ẞ`, `ǅ`, `ı`,
/// `Ａ`) or that split words (combining U+0301, no-break space).
const PIECES: &[&str] = &[
    "buy",
    "BUY",
    "Stock",
    "stoc\u{212A}",
    "\u{212A}",
    "Price",
    "best",
    "TOP",
    "Reviews",
    "vs",
    "How",
    "what",
    "IS",
    "do",
    "laptops",
    "Wi-Fi",
    "don't",
    "2025",
    "İ",
    "Σ",
    "ΟΔΟΣ",
    "ẞ",
    "ǅ",
    "ı",
    "\u{301}",
    "Ａ",
    "é",
    "\u{a0}",
    " ",
    " ",
    "-",
    "'",
    ",",
    "?",
];

fn mixed_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn intent_matches_the_frozen_classifier(text in mixed_text()) {
        prop_assert_eq!(classify_intent(&text), frozen_classify_intent(&text), "text {:?}", text);
    }

    #[test]
    fn intent_matches_on_printable_text(text in "\\PC{0,48}") {
        prop_assert_eq!(classify_intent(&text), frozen_classify_intent(&text), "text {:?}", text);
    }

    #[test]
    fn intent_matches_on_ascii_text(text in "[-' a-zA-Z?!,]{0,48}") {
        prop_assert_eq!(classify_intent(&text), frozen_classify_intent(&text), "text {:?}", text);
    }
}

#[test]
fn a_marker_spelled_with_the_kelvin_sign_still_matches() {
    assert_eq!(
        classify_intent("MacBook in stoc\u{212A}"),
        QueryIntentLabel::Transactional
    );
    assert_eq!(
        frozen_classify_intent("MacBook in stoc\u{212A}"),
        QueryIntentLabel::Transactional
    );
    for query in [
        "",
        "???",
        "How does Wi-Fi 7 work?",
        "which laptop has the best thermals?",
        "BUY iPhone",
        "İstanbul hotels?",
        "ΟΔΟΣ review",
        "laptops",
    ] {
        assert_eq!(
            classify_intent(query),
            frozen_classify_intent(query),
            "{query:?}"
        );
    }
}
