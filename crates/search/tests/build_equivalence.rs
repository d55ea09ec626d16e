//! The index build analyzes each distinct raw token once and feeds the
//! postings store term ids; this suite pins that it builds exactly the
//! index the plain path builds — every page through
//! `add_document(analyze(title), analyze(body))` — on both layouts, at
//! small and paper scale, and that term ids are a function of the world
//! alone (first occurrence), not of hash order.
//!
//! Postings are compared keyed by term string, so the equivalence
//! check does not depend on how ids are assigned; the ids are pinned by
//! a test of their own.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use shift_corpus::{World, WorldConfig};
use shift_search::postings::{PostingsStore, TermId};
use shift_search::SearchIndex;
use shift_textkit::{analyze, analyze_token, is_stopword, stem, token_spans, tokenize};

fn worlds() -> &'static [(&'static str, World)] {
    static WORLDS: OnceLock<Vec<(&'static str, World)>> = OnceLock::new();
    WORLDS.get_or_init(|| {
        vec![
            ("small", World::generate(&WorldConfig::small(), 4040)),
            (
                "paper",
                World::generate(&WorldConfig::default_scale(), 20251101),
            ),
        ]
    })
}

/// One posting as read back through the layout-agnostic accessors:
/// `(doc, title_tf, body_tf, positions)`.
type Row = (u32, u32, u32, Vec<u32>);

/// Every term's posting list, keyed by term string.
fn lists_by_term(store: &PostingsStore) -> BTreeMap<String, Vec<Row>> {
    store
        .terms()
        .map(|(term, id)| {
            let mut rows = Vec::new();
            store.for_each_posting(id, |at, doc, title_tf, body_tf| {
                let mut positions = Vec::new();
                store.for_each_position(id, at, |p| positions.push(p));
                rows.push((doc, title_tf, body_tf, positions));
            });
            (term.to_string(), rows)
        })
        .collect()
}

/// The plain path: each page analyzed in full and added by term string.
fn plain_store(world: &World, compressed: bool) -> PostingsStore {
    let mut store = if compressed {
        PostingsStore::new_compressed()
    } else {
        PostingsStore::new()
    };
    for (doc, page) in world.pages().iter().enumerate() {
        store.add_document(doc as u32, &analyze(&page.title), &analyze(&page.body));
    }
    store.finish();
    store
}

fn ids_by_term(store: &PostingsStore) -> BTreeMap<String, TermId> {
    store.terms().map(|(t, id)| (t.to_string(), id)).collect()
}

fn build(world: &World, compressed: bool) -> SearchIndex {
    if compressed {
        SearchIndex::build_compressed(world)
    } else {
        SearchIndex::build(world)
    }
}

#[test]
fn build_matches_the_plain_path_on_both_layouts() {
    for (scale, world) in worlds() {
        for compressed in [false, true] {
            let index = build(world, compressed);
            let built = index.postings();
            let plain = plain_store(world, compressed);
            let what = format!("{scale} world, compressed = {compressed}");
            assert_eq!(built.doc_count(), plain.doc_count(), "{what}");
            assert_eq!(built.total_tokens(), plain.total_tokens(), "{what}");
            assert_eq!(built.vocabulary_size(), plain.vocabulary_size(), "{what}");
            assert_eq!(built.stats(), plain.stats(), "{what}");
            assert!(
                lists_by_term(built) == lists_by_term(&plain),
                "posting lists differ: {what}"
            );
            for (doc, page) in world.pages().iter().enumerate() {
                let title_len = analyze(&page.title).len() as u32;
                let body_len = analyze(&page.body).len() as u32;
                let fields = index.doc_fields(doc as u32);
                assert_eq!(fields.title_len, title_len, "{what}, doc {doc}");
                assert_eq!(fields.token_len, title_len + body_len, "{what}, doc {doc}");
                assert_eq!(index.token_len(doc as u32), title_len + body_len);
            }
        }
    }
}

#[test]
fn term_ids_are_a_function_of_the_world() {
    let (_, world) = &worlds()[0];
    let first = ids_by_term(SearchIndex::build(world).postings());
    let again = ids_by_term(SearchIndex::build(world).postings());
    let compressed = ids_by_term(SearchIndex::build_compressed(world).postings());
    assert_eq!(first, again, "two builds of one world assign the same ids");
    assert_eq!(first, compressed, "raw and compressed builds agree");
    // Ids follow first occurrence: the plain path interns terms in
    // document order too, so it assigns the very same ids.
    assert_eq!(first, ids_by_term(&plain_store(world, false)));
    let mut ids: Vec<TermId> = first.values().copied().collect();
    ids.sort_unstable();
    assert!(
        ids.iter().enumerate().all(|(i, &id)| id as usize == i),
        "ids are dense"
    );
}

/// The tokenizer as it stood before the span walker, frozen as the
/// oracle for `tokenize` and `analyze`.
fn reference_tokenize(text: &str) -> Vec<(String, usize, usize)> {
    let mut tokens = Vec::new();
    let mut start: Option<usize> = None;
    let mut prev_end = 0usize;
    let flush = |tokens: &mut Vec<(String, usize, usize)>, s: usize, e: usize| {
        let raw = &text[s..e];
        let trimmed = raw.trim_matches(|c| c == '-' || c == '\'');
        if trimmed.is_empty() {
            return;
        }
        let offset = raw.find(trimmed).unwrap_or(0);
        tokens.push((
            trimmed.to_lowercase(),
            s + offset,
            s + offset + trimmed.len(),
        ));
    };
    for (i, c) in text.char_indices() {
        let is_word = c.is_alphanumeric() || c == '-' || c == '\'';
        match (start, is_word) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                flush(&mut tokens, s, i);
                start = None;
            }
            _ => {}
        }
        prev_end = i + c.len_utf8();
    }
    if let Some(s) = start {
        flush(&mut tokens, s, prev_end);
    }
    tokens
}

/// Pieces whose concatenations stress the tokenizer: edge joiners,
/// case mappings that change length (`İ`) or map outside ASCII (the
/// Kelvin sign), digits, mixed case, stopwords, non-alphanumeric marks
/// and empty pieces.
const PIECES: &[&str] = &[
    "",
    "",
    " ",
    "-",
    "'",
    "--",
    "-x-",
    "'q'",
    "x-",
    "-'-",
    "İ",
    "\u{212A}",
    "K",
    "7",
    "2025",
    "½",
    "٣",
    "Best",
    "LAPTOPS",
    "laptops",
    "The",
    "the",
    "MOST",
    "wi-fi",
    "don't",
    "café",
    "ΣΑΣ",
    "ß",
    "ﬁ",
    "e\u{301}",
    "Running",
    "batteries",
    ",",
    "!",
    "\t",
    "\n",
    "é",
];

fn adversarial_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn span_walker_and_per_token_analysis_match_the_reference(text in adversarial_text()) {
        let reference = reference_tokenize(&text);
        let tokens: Vec<(String, usize, usize)> = tokenize(&text)
            .into_iter()
            .map(|t| (t.text, t.start, t.end))
            .collect();
        prop_assert_eq!(&tokens, &reference, "tokenize of {:?}", text);

        let want: Vec<String> = reference
            .iter()
            .filter(|(t, _, _)| !is_stopword(t))
            .map(|(t, _, _)| stem(t))
            .collect();
        // The build's path: walk spans, analyze each raw slice alone.
        let walked: Vec<String> = token_spans(&text)
            .filter_map(|(s, e)| analyze_token(&text[s..e]))
            .collect();
        prop_assert_eq!(&walked, &want, "walker + analyze_token of {:?}", text);
        prop_assert_eq!(&analyze(&text), &want, "analyze of {:?}", text);
    }
}
