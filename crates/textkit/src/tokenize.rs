//! Word tokenization.
//!
//! The tokenizer splits on anything that is not alphanumeric, keeps internal
//! apostrophes and hyphens ("wi-fi", "don't") as single tokens, lowercases,
//! and records byte offsets so callers can map tokens back into the source
//! (needed by snippet extraction in the search engine).

use crate::stem::stem;
use crate::stopwords::is_stopword;

/// A token with its byte span in the original text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lowercased token text.
    pub text: String,
    /// Byte offset of the token start in the source.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

/// Whether `c` continues a word: alphanumerics plus the joiners `-`
/// and `'`.
#[inline]
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '-' || c == '\''
}

/// Walks the word tokens of `text` as byte spans `(start, end)`,
/// without allocating: the one tokenizer under [`tokenize`],
/// [`analyze`] and the search index build.
///
/// A token is a maximal run of alphanumerics, `-` and `'`, with the
/// joiners trimmed from both edges; runs of joiners alone yield
/// nothing. Spans index the original (not lowercased) text.
///
/// ```
/// use shift_textkit::token_spans;
/// let text = "Wi-Fi 7, -dash-";
/// let raw: Vec<&str> = token_spans(text).map(|(s, e)| &text[s..e]).collect();
/// assert_eq!(raw, vec!["Wi-Fi", "7", "dash"]);
/// ```
pub fn token_spans(text: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    text.split(|c: char| !is_word_char(c))
        .filter_map(move |run| {
            // Trim joiners that ended up at the edges ("-fi-" → "fi").
            let word = run.trim_matches(['-', '\'']);
            let start = word.as_ptr() as usize - text.as_ptr() as usize;
            (!word.is_empty()).then_some((start, start + word.len()))
        })
}

/// Tokenizes `text` into lowercase word tokens with byte spans.
///
/// ```
/// use shift_textkit::tokenize;
/// let toks = tokenize("Best Wi-Fi 7 routers!");
/// let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
/// assert_eq!(words, vec!["best", "wi-fi", "7", "routers"]);
/// ```
pub fn tokenize(text: &str) -> Vec<Token> {
    token_spans(text)
        .map(|(start, end)| Token {
            text: text[start..end].to_lowercase(),
            start,
            end,
        })
        .collect()
}

/// The lowercased tokens of `query` joined with single spaces, built
/// in one pass into one string: the bytes of
/// `tokenize(query).map(|t| t.text).join(" ")`.
///
/// An all-ASCII query is one loop over its bytes: word bytes are copied
/// lowercased, and each token is cut back to its last alphanumeric when
/// it ends, which trims its trailing joiners (leading ones are never
/// copied). On ASCII `char::is_alphanumeric` is
/// `u8::is_ascii_alphanumeric`, so these are the span walker's tokens.
/// At the first non-ASCII byte the query starts over on the span
/// walker: an ASCII token is copied and lowercased in place, any other
/// goes through [`str::to_lowercase`] on its own, exactly as
/// [`tokenize`] lowercases it (so a word-final `Σ` still becomes `ς`).
/// An all-ASCII query therefore allocates once.
///
/// ```
/// use shift_textkit::normalize_query;
/// assert_eq!(normalize_query("Best  Wi-Fi 7 routers?"), "best wi-fi 7 routers");
/// assert_eq!(normalize_query("'-Don't- stop-"), "don't stop");
/// assert_eq!(normalize_query("ΟΔΟΣ Café"), "οδο\u{3c2} café");
/// ```
pub fn normalize_query(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    // `out`'s length through the current token's last alphanumeric, or
    // `None` between tokens.
    let mut token_end: Option<usize> = None;
    for &b in query.as_bytes() {
        if b.is_ascii_alphanumeric() {
            if token_end.is_none() && !out.is_empty() {
                out.push(' ');
            }
            out.push(char::from(b.to_ascii_lowercase()));
            token_end = Some(out.len());
        } else if b == b'-' || b == b'\'' {
            if token_end.is_some() {
                out.push(char::from(b));
            }
        } else if b.is_ascii() {
            if let Some(end) = token_end.take() {
                out.truncate(end);
            }
        } else {
            out.clear();
            normalize_spans(query, &mut out);
            return out;
        }
    }
    if let Some(end) = token_end {
        out.truncate(end);
    }
    out
}

/// [`normalize_query`] through the span walker, for a query with a
/// non-ASCII byte.
fn normalize_spans(query: &str, out: &mut String) {
    for (start, end) in token_spans(query) {
        if !out.is_empty() {
            out.push(' ');
        }
        let raw = &query[start..end];
        if raw.is_ascii() {
            let from = out.len();
            out.push_str(raw);
            out[from..].make_ascii_lowercase();
        } else {
            out.push_str(&raw.to_lowercase());
        }
    }
}

/// Analyzes one raw token (a [`token_spans`] slice): lowercase, drop
/// it if it is a stopword, else stem it. `None` for a stopword.
///
/// ```
/// use shift_textkit::analyze_token;
/// assert_eq!(analyze_token("Laptops"), Some("laptop".to_string()));
/// assert_eq!(analyze_token("The"), None);
/// ```
pub fn analyze_token(raw: &str) -> Option<String> {
    let lower = raw.to_lowercase();
    if is_stopword(&lower) {
        None
    } else {
        Some(stem(&lower))
    }
}

/// Full analysis pipeline: tokenize → drop stopwords → stem.
///
/// Returns the stemmed terms in order; this is exactly what the search index
/// and the LLM simulator's co-occurrence model consume.
///
/// ```
/// use shift_textkit::analyze;
/// assert_eq!(
///     analyze("The best laptops for students"),
///     vec!["best", "laptop", "student"]
/// );
/// ```
pub fn analyze(text: &str) -> Vec<String> {
    token_spans(text)
        .filter_map(|(start, end)| analyze_token(&text[start..end]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        tokenize(text).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(words("hello, world!"), vec!["hello", "world"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(words("Apple VS Samsung"), vec!["apple", "vs", "samsung"]);
    }

    #[test]
    fn keeps_internal_hyphens_and_apostrophes() {
        assert_eq!(words("wi-fi don't"), vec!["wi-fi", "don't"]);
    }

    #[test]
    fn trims_edge_joiners() {
        assert_eq!(words("-dash- 'quote'"), vec!["dash", "quote"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(words("iPhone 15 Pro"), vec!["iphone", "15", "pro"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(words("").is_empty());
        assert!(words("!!! ... ###").is_empty());
        assert!(words("---").is_empty());
    }

    #[test]
    fn spans_point_into_source() {
        let text = "Best SUVs 2025";
        for t in tokenize(text) {
            assert_eq!(text[t.start..t.end].to_lowercase(), t.text);
        }
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(words("café naïve"), vec!["café", "naïve"]);
    }

    #[test]
    fn analyze_removes_stopwords_and_stems() {
        assert_eq!(
            analyze("the most reliable electric cars in 2025"),
            vec!["reliabl", "electr", "car", "2025"]
        );
    }

    #[test]
    fn analyze_of_stopwords_only_is_empty() {
        assert!(analyze("the of and in a").is_empty());
    }
}
