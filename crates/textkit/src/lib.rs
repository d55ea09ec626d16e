//! # shift-textkit
//!
//! Text-processing primitives shared by the search engine, the LLM simulator
//! and the classifiers:
//!
//! * [`mod@tokenize`] — Unicode-tolerant word tokenizer: one allocation-free
//!   span walker ([`token_spans`]) under lowercased tokens ([`tokenize`]),
//!   the one-string normalized query ([`normalize_query`], the answer
//!   cache's key text), per-token analysis ([`analyze_token`]) and
//!   whole-text analysis ([`analyze`]).
//! * [`excerpt`] — [`Excerpt`], a snippet held as a window over shared
//!   text plus its two ellipsis flags, composed only when written out.
//! * [`mod@stem`] — a light suffix-stripping stemmer (a pragmatic Porter subset)
//!   so that "laptops" and "laptop" index to the same term.
//! * [`stopwords`] — the English stopword list applied at indexing time.
//! * [`distance`] — Levenshtein and Jaro-Winkler string distances used for
//!   entity matching in citation analysis.
//! * [`ngram`] — word n-gram extraction for co-occurrence statistics.
//!
//! Everything here is pure. Token spans borrow from the input and
//! allocate nothing. [`tokenize`] and [`analyze_token`] allocate one
//! lowercased string per token, and the stemmer copies the word and
//! allocates again for most suffix steps it applies.
//! [`normalize_query`] writes every token into one string, lowercasing
//! ASCII tokens in place, so it allocates once plus once per non-ASCII
//! token. Callers that see the same token many times (the search index
//! build) analyze each distinct token once.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distance;
pub mod excerpt;
pub mod ngram;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use distance::{jaro_winkler, levenshtein, normalized_levenshtein};
pub use excerpt::Excerpt;
pub use ngram::ngrams;
pub use stem::stem;
pub use stopwords::is_stopword;
pub use tokenize::{analyze, analyze_token, normalize_query, token_spans, tokenize, Token};
