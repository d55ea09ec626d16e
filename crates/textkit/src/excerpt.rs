//! Snippets as windows over shared text.
//!
//! A search result's snippet is a trimmed window of its page's body,
//! with a `…` wherever the body continues past the window. An
//! [`Excerpt`] holds that window as a byte range of the shared text the
//! body already lives in, plus the two ellipsis flags, so making one is
//! a refcount bump and holding one costs 24 bytes, whatever the width.
//! The composed text exists only when it is written out: [`Display`]
//! writes it, and [`Debug`] and `==` behave exactly as on the composed
//! `String`.
//!
//! [`Display`]: std::fmt::Display
//! [`Debug`]: std::fmt::Debug

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The ellipsis a snippet shows where its window cuts the text.
pub const ELLIPSIS: &str = "…";

/// Bit of [`Excerpt::packed`] set when a `…` leads the window.
const LEADS: u32 = 0b10;
/// Bit of [`Excerpt::packed`] set when a `…` trails the window.
const TRAILS: u32 = 0b01;

/// An immutable snippet: a window of a shared text, composed as
/// `[…]window[…]` (see the module docs).
#[derive(Clone)]
pub struct Excerpt {
    text: Arc<str>,
    /// Byte offset of the window in `text`.
    start: u32,
    /// The window's byte length shifted left by two, over the
    /// [`LEADS`] and [`TRAILS`] bits.
    packed: u32,
}

impl Excerpt {
    /// The window `text[window]`, with a `…` before it when `leads` and
    /// after it when `trails`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// When `window` is not a range of char boundaries of `text`, starts
    /// at or past 4 GiB, or spans 1 GiB or more.
    pub fn new(text: Arc<str>, window: Range<usize>, leads: bool, trails: bool) -> Excerpt {
        assert!(
            text.get(window.clone()).is_some(),
            "window {window:?} off the text's char boundaries"
        );
        let start = u32::try_from(window.start).expect("window starts below 4 GiB");
        let len = u32::try_from(window.len())
            .ok()
            .filter(|&len| len < 1 << 30)
            .expect("window spans less than 1 GiB");
        let packed = len << 2 | if leads { LEADS } else { 0 } | if trails { TRAILS } else { 0 };
        Excerpt {
            text,
            start,
            packed,
        }
    }

    /// The window, without its ellipses.
    #[inline]
    pub fn window(&self) -> &str {
        &self.text[self.range()]
    }

    /// The window's byte range in [`Excerpt::source`].
    #[inline]
    pub fn range(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + (self.packed >> 2) as usize
    }

    /// Whether a `…` leads the window.
    #[inline]
    pub fn leads(&self) -> bool {
        self.packed & LEADS != 0
    }

    /// Whether a `…` trails the window.
    #[inline]
    pub fn trails(&self) -> bool {
        self.packed & TRAILS != 0
    }

    /// The shared text the window lies in.
    #[inline]
    pub fn source(&self) -> &Arc<str> {
        &self.text
    }

    /// The composed text's three pieces: leading ellipsis (or `""`),
    /// window, trailing ellipsis (or `""`).
    #[inline]
    pub fn pieces(&self) -> [&str; 3] {
        let ellipsis = |on: bool| if on { ELLIPSIS } else { "" };
        [
            ellipsis(self.leads()),
            self.window(),
            ellipsis(self.trails()),
        ]
    }

    /// Byte length of the composed text.
    pub fn len(&self) -> usize {
        self.pieces().iter().map(|p| p.len()).sum()
    }

    /// Whether the composed text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn whole(text: Arc<str>) -> Excerpt {
        let len = text.len();
        Excerpt::new(text, 0..len, false, false)
    }
}

impl From<String> for Excerpt {
    /// The whole string as its own window, with no ellipses.
    fn from(text: String) -> Excerpt {
        Excerpt::whole(text.into())
    }
}

impl From<&str> for Excerpt {
    /// The whole string, copied, as its own window, with no ellipses.
    fn from(text: &str) -> Excerpt {
        Excerpt::whole(text.into())
    }
}

impl fmt::Display for Excerpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pieces().iter().try_for_each(|p| f.write_str(p))
    }
}

impl fmt::Debug for Excerpt {
    /// Exactly what `Debug` of the composed `String` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq for Excerpt {
    /// Compares the composed texts, not how they are held.
    fn eq(&self, other: &Excerpt) -> bool {
        if self.packed & (LEADS | TRAILS) == other.packed & (LEADS | TRAILS) {
            return self.window() == other.window();
        }
        self.len() == other.len()
            && self
                .pieces()
                .iter()
                .flat_map(|p| p.bytes())
                .eq(other.pieces().iter().flat_map(|p| p.bytes()))
    }
}

impl Eq for Excerpt {}

#[cfg(test)]
mod tests {
    use super::*;

    fn composed(e: &Excerpt) -> String {
        e.pieces().concat()
    }

    #[test]
    fn stays_within_24_bytes_and_is_shareable() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Excerpt>();
        assert!(std::mem::size_of::<Excerpt>() <= 24);
    }

    #[test]
    fn composes_window_and_ellipses() {
        let text: Arc<str> = "alpha beta gamma".into();
        let e = Excerpt::new(Arc::clone(&text), 6..10, true, true);
        assert_eq!(e.window(), "beta");
        assert_eq!(e.range(), 6..10);
        assert_eq!(e.to_string(), "…beta…");
        assert_eq!(e.len(), "…beta…".len());
        assert!(Arc::ptr_eq(e.source(), &text));
        assert_eq!(format!("{e:?}"), format!("{:?}", "…beta…"));
        let bare = Excerpt::new(text, 0..5, false, false);
        assert_eq!(composed(&bare), "alpha");
        assert!(!bare.leads() && !bare.trails());
    }

    #[test]
    fn equality_compares_composed_text() {
        let held = Excerpt::new("x…beta…y".into(), 1..11, false, false);
        let flagged = Excerpt::new("beta".into(), 0..4, true, true);
        assert_eq!(held, flagged);
        assert_eq!(flagged, Excerpt::from("…beta…"));
        assert_ne!(flagged, Excerpt::new("beta".into(), 0..4, true, false));
        assert_ne!(
            Excerpt::from("…b"),
            Excerpt::new("a".into(), 0..1, true, false)
        );
        assert!(Excerpt::from("").is_empty());
        assert!(!Excerpt::new("".into(), 0..0, false, true).is_empty());
    }

    #[test]
    fn debug_escapes_like_the_composed_string() {
        let e = Excerpt::new("say \"hi\"\n\u{301}'".into(), 0..12, true, false);
        assert_eq!(format!("{e:?}"), format!("{:?}", composed(&e)));
    }

    #[test]
    #[should_panic(expected = "char boundaries")]
    fn rejects_a_window_inside_a_char() {
        let _ = Excerpt::new("é".into(), 0..1, false, false);
    }
}
