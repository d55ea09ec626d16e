//! The parsers that read outside input never panic on it: the JSON
//! parser, the date parser and free-text date scanner, the HTML scanner
//! and its visible-text pass, and the URL parser.
//!
//! The `\PC` string strategy reaches only a handful of non-ASCII
//! characters, so these properties draw from an explicit alphabet
//! instead: markup and escape bytes (`<`, `&`, `;`, `"`, `\`), digits,
//! characters whose lowercase changes byte length (`İ`, `ẞ`), a lone
//! combining mark (U+0301), a multi-byte separator (`—`), NUL and the
//! replacement character, plus syntax fragments that steer each parser
//! into its deeper states. They also draw lossy decodes of random bytes
//! and long digit runs. JSON nested past the parser's depth limit must
//! come back as an `Err`, not a stack overflow, and so must a number
//! literal past the range of `f64`.

use navigating_shift::freshness::{dates, extract_page_date, html, json};
use navigating_shift::urlkit::{normalize, registrable_domain, NormalizeOptions, Url};
use proptest::prelude::*;

/// The alphabet, then fragments of HTML, JSON, dates and URLs.
const PIECES: &[&str] = &[
    "<",
    "&",
    ";",
    "\"",
    "\\",
    "0",
    "1",
    "7",
    "9",
    "İ",
    "ẞ",
    "\u{301}",
    "—",
    "\0",
    "\u{FFFD}",
    " ",
    "<meta property=\"article:published_time\" content=\"",
    "<time datetime=\"",
    "<script type=\"application/ld+json\">",
    "</script>",
    "<!--",
    "-->",
    ">",
    "</",
    "&amp",
    "&#x",
    "&#",
    "{\"datePublished\":",
    "[",
    "]",
    "{",
    "}",
    ":",
    ",",
    "\\u",
    "\\uD800",
    "e",
    "-",
    ".",
    "/",
    "Published ",
    "Updated: ",
    "January ",
    "2024",
    "-13-",
    "T",
    "https://",
    "http://",
    "user@",
    "[::1]",
    ":65536",
    ":8080",
    "?",
    "#",
    "%",
    "%zz",
    "xn--",
    ".co.uk",
];

/// Text concatenated from the alphabet and fragments.
fn alphabet_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..64)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

/// Random bytes decoded lossily: every invalid sequence becomes U+FFFD.
fn lossy_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(0u16..256, 0..256).prop_map(|bytes| {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// A run of hundreds of digits between two alphabet texts.
fn long_digits() -> impl Strategy<Value = String> {
    (alphabet_text(), 1usize..600, 0u64..10, alphabet_text()).prop_map(
        |(before, run, digit, after)| {
            let digit = char::from_digit(digit as u32, 10).expect("a decimal digit");
            format!("{before}{}{after}", String::from(digit).repeat(run))
        },
    )
}

/// Any of the three generators.
fn adversarial() -> impl Strategy<Value = String> {
    prop_oneof![alphabet_text(), lossy_bytes(), long_digits()]
}

/// Feeds one input to every parser. Each call must return, whatever it
/// returns.
fn parse_everything(text: &str) {
    let _ = json::parse(text);
    let _ = dates::parse_date(text);
    let _ = dates::scan_text_for_date(text);
    let _ = html::scan(text);
    let _ = html::visible_text(text);
    let _ = extract_page_date(text);
    if let Ok(url) = Url::parse(text) {
        let _ = url.to_string_full();
        let _ = registrable_domain(url.host());
        let _ = normalize(url, NormalizeOptions::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn no_parser_panics_on_adversarial_text(text in adversarial()) {
        parse_everything(&text);
    }

    /// JSON nested past the depth limit is refused, however deep.
    #[test]
    fn json_nested_past_the_depth_limit_is_an_error(
        depth in 65usize..20_000,
        object in 0u8..2,
        closed in 0u8..2,
    ) {
        let (open, close) = if object == 1 { ("{\"a\":", "}") } else { ("[", "]") };
        let mut doc = open.repeat(depth);
        doc.push('0');
        if closed == 1 {
            doc.push_str(&close.repeat(depth));
        }
        prop_assert!(json::parse(&doc).is_err(), "depth {} accepted", depth);
    }
}

/// A number literal past `f64`'s range is an `Err`, not an infinity that
/// the writer could not spell back.
#[test]
fn json_numbers_past_the_f64_range_are_errors() {
    let long_run = "9".repeat(400);
    for literal in ["1e999", "-1e999", "1E+400", "-0.5e99999", long_run.as_str()] {
        for doc in [literal.to_string(), format!("{{\"ratio\":[1,{literal}]}}")] {
            assert!(json::parse(&doc).is_err(), "{doc:?} accepted");
        }
    }
    assert!(json::parse(&"9".repeat(308)).is_ok());
}

#[test]
fn json_nested_at_the_depth_limit_parses() {
    let doc = format!("{}0{}", "[".repeat(64), "]".repeat(64));
    assert!(json::parse(&doc).is_ok());
}
