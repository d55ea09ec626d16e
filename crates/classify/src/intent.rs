//! Query-intent classification (informational / consideration /
//! transactional).

use shift_textkit::token_spans;

/// The three-way intent taxonomy of §2.2.
pub use shift_queries_intent::QueryIntentLabel;

/// Internal module so the label type can live here without a dependency on
/// `shift-queries` (which depends on corpus choices, not classification).
mod shift_queries_intent {
    /// Predicted query intent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum QueryIntentLabel {
        /// Knowledge-seeking ("how does X work").
        Informational,
        /// Shopping research ("best X for Y").
        Consideration,
        /// Purchase-ready ("buy X", "X price").
        Transactional,
    }

    impl QueryIntentLabel {
        /// Stable lowercase label.
        pub fn label(self) -> &'static str {
            match self {
                QueryIntentLabel::Informational => "informational",
                QueryIntentLabel::Consideration => "consideration",
                QueryIntentLabel::Transactional => "transactional",
            }
        }
    }
}

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

/// Classifies a query string into an intent label.
///
/// Priority: transactional markers beat everything (a user typing "buy"
/// wants to transact even in question form), then shopping-research
/// vocabulary ("which laptop has the best thermals?" is consideration,
/// despite the question form), then interrogative starters; the default is
/// consideration, the paper's dominant commercial class.
///
/// ```
/// use shift_classify::classify_intent;
/// use shift_classify::intent::QueryIntentLabel;
/// assert_eq!(classify_intent("Buy iPhone 15"), QueryIntentLabel::Transactional);
/// assert_eq!(classify_intent("How does Wi-Fi 7 work?"), QueryIntentLabel::Informational);
/// assert_eq!(classify_intent("Best laptops for students"), QueryIntentLabel::Consideration);
/// ```
pub fn classify_intent(query: &str) -> QueryIntentLabel {
    // Whether the first token is an interrogative starter; `None` until
    // a token is seen.
    let mut starts_as_question: Option<bool> = None;
    let mut consideration = false;
    for (start, end) in token_spans(query) {
        let token = &query[start..end];
        // An ASCII token matches a lowercase marker iff it does ignoring
        // ASCII case, so it is compared in place. Any other token is
        // lowercased as `tokenize` lowercases it: the Kelvin sign folds
        // to ASCII `k`, so "stoc\u{212A}" is the marker "stock".
        let lower;
        let token = if token.is_ascii() {
            token
        } else {
            lower = token.to_lowercase();
            lower.as_str()
        };
        let is_one_of = |markers: &[&str]| markers.iter().any(|m| m.eq_ignore_ascii_case(token));
        // Transactional markers beat everything, wherever they stand.
        if is_one_of(TRANSACTIONAL_MARKERS) {
            return QueryIntentLabel::Transactional;
        }
        // Shopping-research vocabulary beats interrogative form: "which
        // laptop has the best thermals?" is consideration, not
        // informational.
        consideration = consideration || is_one_of(CONSIDERATION_MARKERS);
        starts_as_question.get_or_insert_with(|| is_one_of(INFORMATIONAL_STARTERS));
    }
    match starts_as_question {
        Some(starter) if !consideration && (starter || query.trim_end().ends_with('?')) => {
            QueryIntentLabel::Informational
        }
        _ => QueryIntentLabel::Consideration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactional_examples() {
        for q in [
            "Buy iPhone 15",
            "Tesla Model Y price and deals",
            "cheapest flights to tokyo",
            "MacBook Air in stock near me",
        ] {
            assert_eq!(classify_intent(q), QueryIntentLabel::Transactional, "{q}");
        }
    }

    #[test]
    fn informational_examples() {
        for q in [
            "How does Wi-Fi 7 work?",
            "What is OLED burn-in",
            "why do SUVs depreciate",
            "Is leasing worth it?",
        ] {
            assert_eq!(classify_intent(q), QueryIntentLabel::Informational, "{q}");
        }
    }

    #[test]
    fn consideration_examples() {
        for q in [
            "Best laptops for students",
            "top rated airlines 2025",
            "Garmin vs Coros",
            "most reliable SUVs",
        ] {
            assert_eq!(classify_intent(q), QueryIntentLabel::Consideration, "{q}");
        }
    }

    #[test]
    fn transactional_beats_question_form() {
        assert_eq!(
            classify_intent("where to buy a Pixel 9?"),
            QueryIntentLabel::Transactional
        );
    }

    #[test]
    fn empty_defaults_to_consideration() {
        assert_eq!(classify_intent(""), QueryIntentLabel::Consideration);
        assert_eq!(classify_intent("???"), QueryIntentLabel::Consideration);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QueryIntentLabel::Informational.label(), "informational");
        assert_eq!(QueryIntentLabel::Consideration.label(), "consideration");
        assert_eq!(QueryIntentLabel::Transactional.label(), "transactional");
    }
}
