//! Property-based tests: generated dates rendered into each markup style
//! must round-trip through the extractor.

use proptest::prelude::*;
use shift_freshness::civil::CivilDate;
use shift_freshness::html::visible_text;
use shift_freshness::json;
use shift_freshness::{extract_page_date, parse_date, DateSource};

fn civil_date() -> impl Strategy<Value = CivilDate> {
    (1995i32..2035, 1u8..=12, 1u8..=28).prop_map(|(y, m, d)| CivilDate::new(y, m, d).unwrap())
}

proptest! {
    /// Day-number conversion round-trips for all generated dates.
    #[test]
    fn civil_day_number_round_trip(d in civil_date()) {
        prop_assert_eq!(CivilDate::from_day_number(d.to_day_number()), d);
    }

    /// Every textual rendering parses back to the same date.
    #[test]
    fn all_formats_round_trip(d in civil_date()) {
        prop_assert_eq!(parse_date(&d.iso()), Some(d));
        prop_assert_eq!(parse_date(&d.long()), Some(d));
        prop_assert_eq!(parse_date(&d.slash_us()), Some(d));
        prop_assert_eq!(parse_date(&format!("{}T08:30:00Z", d.iso())), Some(d));
    }

    /// Meta-tag markup extracts with MetaTag provenance.
    #[test]
    fn meta_markup_extracts(d in civil_date()) {
        let html = format!(
            r#"<head><meta property="article:published_time" content="{}"></head><body>x</body>"#,
            d.iso()
        );
        let e = extract_page_date(&html).unwrap();
        prop_assert_eq!(e.published, d);
        prop_assert_eq!(e.source, DateSource::MetaTag);
    }

    /// JSON-LD markup extracts with JsonLd provenance.
    #[test]
    fn json_ld_markup_extracts(d in civil_date()) {
        let html = format!(
            r#"<script type="application/ld+json">{{"@type":"Article","datePublished":"{}"}}</script>"#,
            d.iso()
        );
        let e = extract_page_date(&html).unwrap();
        prop_assert_eq!(e.published, d);
        prop_assert_eq!(e.source, DateSource::JsonLd);
    }

    /// `<time>` markup extracts with TimeTag provenance.
    #[test]
    fn time_markup_extracts(d in civil_date()) {
        let html = format!(r#"<body><time datetime="{}">{}</time></body>"#, d.iso(), d.long());
        let e = extract_page_date(&html).unwrap();
        prop_assert_eq!(e.published, d);
        prop_assert_eq!(e.source, DateSource::TimeTag);
    }

    /// Body-text markup extracts with BodyText provenance.
    #[test]
    fn body_text_markup_extracts(d in civil_date()) {
        let html = format!("<body><p>Published {} by the test desk.</p></body>", d.long());
        let e = extract_page_date(&html).unwrap();
        prop_assert_eq!(e.published, d);
        prop_assert_eq!(e.source, DateSource::BodyText);
    }

    /// Age is always the exact day difference for past dates.
    #[test]
    fn age_matches_day_difference(d in civil_date(), delta in 0i64..3000) {
        let now = d.plus_days(delta);
        let html = format!(
            r#"<meta name="date" content="{}">"#, d.iso()
        );
        let e = extract_page_date(&html).unwrap();
        prop_assert_eq!(e.age_days(now) as i64, delta);
    }

    /// The HTML scanner never panics on arbitrary input.
    #[test]
    fn scanner_never_panics(s in "\\PC{0,256}") {
        let _ = visible_text(&s);
        let _ = extract_page_date(&s);
    }

    /// Numbers of any bit pattern round-trip through the writer and the
    /// parser: a finite one reads back as itself, and a non-finite one
    /// (which JSON cannot spell) as `null`.
    #[test]
    fn json_numbers_round_trip_and_non_finite_become_null(
        bits in prop::collection::vec(0u64..u64::MAX, 0..16),
        special in prop::collection::vec(0usize..3, 0..4),
    ) {
        let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let numbers: Vec<f64> = bits
            .into_iter()
            .map(f64::from_bits)
            .chain(special.into_iter().map(|i| non_finite[i]))
            .collect();
        let doc = |n: &dyn Fn(f64) -> json::Value| {
            let items: Vec<json::Value> = numbers.iter().map(|&x| n(x)).collect();
            let mut map = std::collections::BTreeMap::new();
            map.insert("first".to_string(), items.first().cloned().unwrap_or(json::Value::Null));
            map.insert("all".to_string(), json::Value::Array(items));
            json::Value::Object(map)
        };
        let written = doc(&json::Value::Number);
        let expected = doc(&|x| if x.is_finite() { json::Value::Number(x) } else { json::Value::Null });
        prop_assert_eq!(json::parse(&json::to_string(&written)).unwrap(), expected);
    }

    /// The JSON parser never panics, and accepted documents re-serialize to
    /// an equal value.
    #[test]
    fn json_round_trip_on_valid_docs(s in "\\PC{0,64}") {
        let doc = format!(r#"{{"k":"{}"}}"#,
            s.replace(['\\', '"'], ""));
        if let Ok(v) = json::parse(&doc) {
            prop_assert_eq!(json::parse(&json::to_string(&v)).unwrap(), v);
        }
    }
}
