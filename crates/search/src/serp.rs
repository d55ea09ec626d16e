//! SERP assembly: blending, host crowding, snippets.

use std::ops::Range;
use std::sync::Arc;

use shift_corpus::{PageId, SourceType};
use shift_textkit::excerpt::{Excerpt, ELLIPSIS};

/// One search result.
///
/// Its text fields are immutable shared strings: url, host and title are
/// the index's own (on the raw layout), the snippet is a window of the
/// index's own body text, and the evidence snippets and citations built
/// from a result share its url and snippet, so cloning a result or a
/// SERP allocates no text. `Debug` prints them exactly as `String`s.
#[derive(Debug, Clone)]
pub struct SerpResult {
    /// The result page.
    pub page: PageId,
    /// Result URL.
    pub url: Arc<str>,
    /// Host of the result.
    pub host: Arc<str>,
    /// Final blended score (descending over the SERP).
    pub score: f64,
    /// Page title.
    pub title: Arc<str>,
    /// Query-biased snippet.
    pub snippet: Excerpt,
    /// Source typology of the hosting domain.
    pub source_type: SourceType,
    /// Page age in days at the reference date.
    pub age_days: f64,
}

/// A search engine result page.
#[derive(Debug, Clone)]
pub struct Serp {
    /// The raw query string.
    pub query: String,
    /// Ranked results, best first.
    pub results: Vec<SerpResult>,
}

impl Serp {
    /// The result URLs in rank order.
    pub fn urls(&self) -> Vec<&str> {
        self.results.iter().map(|r| &*r.url).collect()
    }

    /// The result hosts in rank order (with duplicates).
    pub fn hosts(&self) -> Vec<&str> {
        self.results.iter().map(|r| &*r.host).collect()
    }
}

/// Applies a host-crowding limit: at most `max_per_host` results from any
/// single host, preserving order. `0` disables the limit.
pub fn apply_host_crowding(results: Vec<SerpResult>, max_per_host: usize) -> Vec<SerpResult> {
    if max_per_host == 0 {
        return results;
    }
    let mut counts: std::collections::HashMap<Arc<str>, usize> = std::collections::HashMap::new();
    results
        .into_iter()
        .filter(|r| {
            let c = counts.entry(Arc::clone(&r.host)).or_insert(0);
            *c += 1;
            *c <= max_per_host
        })
        .collect()
}

/// The query-biased snippet of the body `text[body]`: a window of
/// `width` bytes around the first occurrence of any query term in the
/// body (case-insensitive), falling back to the body prefix, trimmed,
/// with a `…` on each side where the body goes on. The excerpt shares
/// `text`, so cutting it allocates nothing.
pub fn extract_snippet<T: AsRef<str>>(
    text: &Arc<str>,
    body: Range<usize>,
    query_terms: &[T],
    width: usize,
) -> Excerpt {
    let offset = body.start;
    let body = &text[body];
    let center = find_lowercase(body, query_terms).unwrap_or(0);
    let half = width / 2;
    let mut start = center.saturating_sub(half);
    let mut end = (center + half).min(body.len());
    while start > 0 && !body.is_char_boundary(start) {
        start -= 1;
    }
    while end < body.len() && !body.is_char_boundary(end) {
        end += 1;
    }
    let cut = &body[start..end];
    let window = offset + start + (cut.len() - cut.trim_start().len());
    let window = window..window + cut.trim().len();
    Excerpt::new(Arc::clone(text), window, start > 0, end < body.len())
}

/// The first match of any needle in `text.to_lowercase()`, as a char
/// boundary of `text`: the offset of the char whose lowercase the match
/// starts in. That is exactly `min over needles of
/// text.to_lowercase().find(needle)` whenever lowercasing keeps every
/// char's byte length, as it does for all generated text.
///
/// Case-simple text, where every non-ASCII char is its own single-char
/// lowercase, is searched in place in one forward pass that stops at the
/// first hit; any other text is lowercased into a copy and searched with
/// `str::find`.
pub fn find_lowercase<N: AsRef<str>>(text: &str, needles: &[N]) -> Option<usize> {
    let mut hit = None;
    if scan_lowercase(text, needles, |at, _| {
        hit = Some(at);
        true
    }) {
        return hit;
    }
    let lower = text.to_lowercase();
    let at = needles
        .iter()
        .filter_map(|n| lower.find(n.as_ref()))
        .min()?;
    Some(char_start_for_lowercase_offset(text, at))
}

/// Sets `found[j]` to `text.to_lowercase().contains(needles[j])` for
/// every needle (`found` holds at least one flag per needle), in one
/// in-place pass over case-simple text that stops once every needle is
/// found, and from a lowercased copy otherwise.
pub fn contains_lowercase<N: AsRef<str>>(text: &str, needles: &[N], found: &mut [bool]) {
    let found = &mut found[..needles.len()];
    found.fill(false);
    let mut missing = needles.len();
    let scanned = scan_lowercase(text, needles, |_, j| {
        if !found[j] {
            found[j] = true;
            missing -= 1;
        }
        missing == 0
    });
    if !scanned {
        let lower = text.to_lowercase();
        for (f, n) in found.iter_mut().zip(needles) {
            *f = lower.contains(n.as_ref());
        }
    }
}

/// [`contains_lowercase`] over an excerpt's composed text, searching
/// only its window unless a needle holds a `…`. That is exact: a needle
/// without `…` cannot match across an ellipsis, and an ellipsis, neither
/// cased nor case-ignorable, settles a `Σ`'s final form as the end of
/// the text would.
pub fn excerpt_contains_lowercase<N: AsRef<str>>(
    excerpt: &Excerpt,
    needles: &[N],
    found: &mut [bool],
) {
    if needles.iter().any(|n| n.as_ref().contains(ELLIPSIS)) {
        contains_lowercase(&excerpt.to_string(), needles, found);
    } else {
        contains_lowercase(excerpt.window(), needles, found);
    }
}

/// One occurrence of a needle in a text's lowercase: needle `needle` at
/// bytes `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Byte offset of the match.
    pub start: u32,
    /// Byte offset just past the match.
    pub end: u32,
    /// Index of the needle that matched.
    pub needle: u32,
}

/// Appends every occurrence of every needle in `text.to_lowercase()` to
/// `out`, overlapping ones included, in offset order, and returns true.
/// [`occurrences_within`] then answers [`excerpt_contains_lowercase`]
/// for any window of `text` with a range check instead of a scan.
///
/// Returns false and leaves `out` as it was where that answer would not
/// be exact: when `text` is not case-simple (see `scan_lowercase`), when
/// a needle is empty or holds a `…` (its match depends on the window's
/// ellipses), and when `text` or `needles` is too long to index with a
/// `u32`.
pub fn lowercase_occurrences<N: AsRef<str>>(
    text: &str,
    needles: &[N],
    out: &mut Vec<Occurrence>,
) -> bool {
    let declined = needles.iter().any(|n| {
        let n = n.as_ref();
        n.is_empty() || n.contains(ELLIPSIS)
    });
    if declined || u32::try_from(text.len()).is_err() || u32::try_from(needles.len()).is_err() {
        return false;
    }
    let len = out.len();
    let scanned = scan_lowercase(text, needles, |at, j| {
        out.push(Occurrence {
            start: at as u32,
            end: (at + needles[j].as_ref().len()) as u32,
            needle: j as u32,
        });
        false
    });
    if !scanned {
        out.truncate(len);
    }
    scanned
}

/// Sets `found[j]` to whether an occurrence of needle `j` lies wholly
/// inside `window`, and every other flag to false. For the occurrences
/// [`lowercase_occurrences`] lists in a text, that is
/// [`excerpt_contains_lowercase`] on any excerpt whose window is
/// `text[window]`: the window of a case-simple text lowercases to the
/// same slice of the text's lowercase.
pub fn occurrences_within(occurrences: &[Occurrence], window: Range<usize>, found: &mut [bool]) {
    found.fill(false);
    let first = occurrences.partition_point(|o| (o.start as usize) < window.start);
    for o in occurrences[first..]
        .iter()
        .take_while(|o| (o.start as usize) < window.end)
    {
        if o.end as usize <= window.end {
            found[o.needle as usize] = true;
        }
    }
}

/// One forward pass over `text` that matches `needles` against its
/// ASCII-lowercased bytes, folding case in place. Calls `on_match(offset,
/// needle index)` for each match in offset order until it returns true.
///
/// The pass is exact only while `text` is *case-simple*: every non-ASCII
/// char is its own single-char lowercase (which rules out `Σ`, whose
/// lowercase depends on context, and length-changing chars like `İ`).
/// Over such a prefix `text.to_lowercase()` equals
/// `text.to_ascii_lowercase()` byte for byte. The pass checks every
/// non-ASCII char it steps over or compares a needle against, and
/// returns false at the first one that is not case-simple; the caller
/// then falls back to a lowercased copy. Chars past the stopping point
/// are never looked at.
fn scan_lowercase<N: AsRef<str>>(
    text: &str,
    needles: &[N],
    mut on_match: impl FnMut(usize, usize) -> bool,
) -> bool {
    // An empty needle matches at offset 0 of any text.
    for (j, n) in needles.iter().enumerate() {
        if n.as_ref().is_empty() && on_match(0, j) {
            return true;
        }
    }
    // The pass skips ahead over positions whose byte pair (b[i], b[i+1])
    // no needle can start with. The filter indexes each byte by its low
    // five bits, which are the same for both cases of an ASCII letter;
    // a non-ASCII byte in the pair always stops the pass, to check its
    // char or try a non-ASCII needle.
    let mut pairs = [0u64; 16];
    let mut allow = |first: u8, second: u8| {
        let at = usize::from(first & 31) << 5 | usize::from(second & 31);
        pairs[at >> 6] |= 1 << (at & 63);
    };
    // At a stop, only needles whose first byte has the same low five bits
    // are tried: bit `j % 32` of `heads[first & 31]` marks needle `j`.
    let mut heads = [0u32; 32];
    for (j, n) in needles.iter().enumerate() {
        match *n.as_ref().as_bytes() {
            [] => continue,
            [first] => (0..32).for_each(|second| allow(first, second)),
            [first, second, ..] => allow(first, second),
        }
        heads[usize::from(n.as_ref().as_bytes()[0] & 31)] |= 1 << (j % 32);
    }
    let bytes = text.as_bytes();
    // Every char that starts before `checked` is known to be case-simple.
    let mut checked = 0;
    let mut i = 0;
    while i < bytes.len() {
        // Skip to the next stop; the last byte is always one.
        i += bytes[i..]
            .windows(2)
            .position(|pair| {
                let at = usize::from(pair[0] & 31) << 5 | usize::from(pair[1] & 31);
                !(pair[0] | pair[1]).is_ascii() || pairs[at >> 6] & (1 << (at & 63)) != 0
            })
            .unwrap_or(bytes.len() - 1 - i);
        let b = bytes[i];
        if !b.is_ascii() {
            if is_continuation(b) {
                i += 1;
                continue;
            }
            if i >= checked {
                match check_char(text, i) {
                    Some(end) => checked = end,
                    None => return false,
                }
            }
        }
        let folded = b.to_ascii_lowercase();
        let mut classes = heads[usize::from(b & 31)];
        while classes != 0 {
            let class = classes.trailing_zeros() as usize;
            classes &= classes - 1;
            for j in (class..needles.len()).step_by(32) {
                let n = needles[j].as_ref().as_bytes();
                if n.first() != Some(&folded) {
                    continue;
                }
                match match_folded(text, i, n, &mut checked) {
                    Some(true) if on_match(i, j) => return true,
                    Some(_) => {}
                    None => return false,
                }
            }
        }
        i += 1;
    }
    true
}

/// Whether `needle` matches the ASCII-lowercased `text` at char boundary
/// `at`, checking each unchecked char the comparison reaches; `None`
/// when one is not case-simple. A mismatch is conclusive only over
/// checked chars: past them a char like the Kelvin sign lowercases to
/// ASCII, and one like `İ` grows a text that looks too short to match.
fn match_folded(text: &str, at: usize, needle: &[u8], checked: &mut usize) -> Option<bool> {
    let bytes = text.as_bytes();
    for (k, &c) in needle.iter().enumerate() {
        let Some(&b) = bytes.get(at + k) else {
            return Some(false);
        };
        if !b.is_ascii() && at + k >= *checked {
            *checked = check_char(text, at + k)?;
        }
        if b.to_ascii_lowercase() != c {
            return Some(false);
        }
    }
    Some(true)
}

/// The end of the non-ASCII char at boundary `at` if it is its own
/// lowercase.
fn check_char(text: &str, at: usize) -> Option<usize> {
    let c = text[at..].chars().next()?;
    lowercase_is_itself(c).then(|| at + c.len_utf8())
}

fn is_continuation(b: u8) -> bool {
    b & 0xc0 == 0x80
}

/// True when `c` lowercases to exactly itself.
fn lowercase_is_itself(c: char) -> bool {
    let mut lower = c.to_lowercase();
    lower.next() == Some(c) && lower.next().is_none()
}

/// Maps a byte offset into `text.to_lowercase()` to the start of the
/// `text` char whose lowercase contains it (`text.len()` past the end).
/// `str::to_lowercase` maps each char like `char::to_lowercase` except
/// `Σ`, whose two context-dependent forms have the same byte length.
fn char_start_for_lowercase_offset(text: &str, offset: usize) -> usize {
    let mut lower_end = 0;
    for (i, c) in text.char_indices() {
        lower_end += c.to_lowercase().map(char::len_utf8).sum::<usize>();
        if lower_end > offset {
            return i;
        }
    }
    text.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::PageId;

    fn result(host: &str, score: f64) -> SerpResult {
        SerpResult {
            page: PageId(0),
            url: format!("https://{host}/x").into(),
            host: host.into(),
            score,
            title: "".into(),
            snippet: "".into(),
            source_type: SourceType::Earned,
            age_days: 0.0,
        }
    }

    #[test]
    fn host_crowding_limits_per_host() {
        let results = vec![
            result("a.com", 5.0),
            result("a.com", 4.0),
            result("a.com", 3.0),
            result("b.com", 2.0),
        ];
        let limited = apply_host_crowding(results, 2);
        let hosts: Vec<&str> = limited.iter().map(|r| &*r.host).collect();
        assert_eq!(hosts, vec!["a.com", "a.com", "b.com"]);
    }

    #[test]
    fn host_crowding_zero_disables() {
        let results = vec![result("a.com", 5.0); 4];
        assert_eq!(apply_host_crowding(results, 0).len(), 4);
    }

    fn extract(body: &str, terms: &[String], width: usize) -> String {
        let text: Arc<str> = format!("title{body}").into();
        extract_snippet(&text, 5..text.len(), terms, width).to_string()
    }

    #[test]
    fn snippet_centers_on_first_hit() {
        let body = format!(
            "{} battery life is great {}",
            "x ".repeat(100),
            "y ".repeat(100)
        );
        let s = extract(&body, &["battery".to_string()], 40);
        assert!(s.contains("battery"));
        assert!(s.starts_with('…'));
        assert!(s.ends_with('…'));
    }

    #[test]
    fn snippet_falls_back_to_prefix() {
        let s = extract("plain text with nothing special", &["zzz".to_string()], 20);
        assert!(s.starts_with("plain"));
    }

    #[test]
    fn snippet_handles_short_bodies_and_unicode() {
        let s = extract("très court", &["court".to_string()], 400);
        assert_eq!(s, "très court");
        // Term adjacent to multibyte characters must not panic, and the
        // window must land on the hit.
        let s2 = extract("ééééé battery ééééé", &["battery".to_string()], 8);
        assert!(s2.contains("batt"), "got {s2:?}");
    }

    #[test]
    fn snippet_window_lands_on_the_hit_when_lowercase_grows() {
        // Each `İ` lowercases to three bytes from two, so the hit sits 40
        // bytes later in the lowercased body than in the body itself.
        let body = format!("{} battery {}", "İ".repeat(40), "x".repeat(200));
        let s = extract(&body, &["battery".to_string()], 20);
        assert!(s.contains("battery"), "got {s:?}");
        assert_eq!(find_lowercase(&body, &["battery"]), Some(81));
    }

    #[test]
    fn locator_checks_every_char_a_match_could_use() {
        // The Kelvin sign lowercases to ASCII `k`, so `key` and `abk`
        // match the lowercased text though no ASCII fold of it does, and
        // a needle holding the sign itself does not.
        assert_eq!(find_lowercase("x\u{212A}ey", &["key"]), Some(1));
        assert_eq!(find_lowercase("ab\u{212A}", &["b", "abk"]), Some(0));
        assert_eq!(find_lowercase("a\u{212A}", &["a\u{212A}"]), None);
        // `İ` grows into `i̇`, which a two-byte text only holds once lowercased.
        assert_eq!(find_lowercase("İ", &["i\u{307}"]), Some(0));
        let mut found = [false; 3];
        contains_lowercase("Ab—Σ", &["", "b—σ", "ab"], &mut found);
        assert_eq!(found, [true, true, true]);
        contains_lowercase("AB—c", &["b—c", "ac", "abc"], &mut found);
        assert_eq!(found, [true, false, false]);
    }

    #[test]
    fn serp_accessors() {
        let serp = Serp {
            query: "q".into(),
            results: vec![result("a.com", 2.0), result("b.com", 1.0)],
        };
        assert_eq!(serp.hosts(), vec!["a.com", "b.com"]);
        assert_eq!(serp.urls().len(), 2);
    }
}
