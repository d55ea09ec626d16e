//! The live index's in-memory write buffer: latest document versions
//! and tombstones, ordered by page id.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use shift_corpus::{Page, PageId, SourceType, World};
use shift_textkit::analyze;

/// One live document version: the raw page fields the index needs plus
/// the analyzed term streams (computed once at ingest, reused by every
/// flush and merge that carries the version along).
#[derive(Debug, Clone)]
pub struct LiveDoc {
    /// The corpus page this version belongs to.
    pub page: PageId,
    /// Canonical URL.
    pub url: String,
    /// Hosting domain's host (for host-crowding).
    pub host: String,
    /// Domain authority in `[0, 1]`.
    pub authority: f64,
    /// Age in days at the world's reference date.
    pub age_days: f64,
    /// Source typology of the hosting domain.
    pub source_type: SourceType,
    /// Raw title.
    pub title: String,
    /// Raw body text, shared by the segment metadata and every snippet
    /// cut from this version.
    pub body: Arc<str>,
    /// Analyzed title terms (`analyze(&title)`).
    pub(crate) title_terms: Vec<String>,
    /// Analyzed body terms (`analyze(&body)`).
    pub(crate) body_terms: Vec<String>,
}

impl LiveDoc {
    /// Builds a version from raw fields, analyzing title and body. The
    /// analysis is the same deterministic function the batch index
    /// build runs, which is what makes a flushed segment's postings
    /// bit-compatible with a batch build over the same pages.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        page: PageId,
        url: String,
        host: String,
        authority: f64,
        age_days: f64,
        source_type: SourceType,
        title: String,
        body: String,
    ) -> LiveDoc {
        let title_terms = analyze(&title);
        let body_terms = analyze(&body);
        LiveDoc {
            page,
            url,
            host,
            authority,
            age_days,
            source_type,
            title,
            body: body.into(),
            title_terms,
            body_terms,
        }
    }

    /// Builds a version from a corpus page, resolving its domain and
    /// age against `world` exactly like
    /// [`crate::SearchIndex::build`] does.
    pub fn from_page(world: &World, page: &Page) -> LiveDoc {
        let domain = world.domain(page.domain);
        LiveDoc::new(
            page.id,
            page.url.clone(),
            domain.host.clone(),
            domain.authority,
            page.age_days(world.now_day()) as f64,
            domain.source_type,
            page.title.clone(),
            page.body.clone(),
        )
    }

    /// Total token count (title + body), the document length BM25 uses.
    pub fn token_len(&self) -> u32 {
        (self.title_terms.len() + self.body_terms.len()) as u32
    }

    /// Rough heap footprint, for the memtable's flush threshold.
    pub(crate) fn approx_bytes(&self) -> usize {
        let terms: usize = self
            .title_terms
            .iter()
            .chain(&self.body_terms)
            .map(|t| t.len() + std::mem::size_of::<String>())
            .sum();
        self.url.len() + self.host.len() + self.title.len() + self.body.len() + terms + 64
    }
}

/// The mutable write buffer: the newest version of every page upserted
/// since the last flush, plus tombstones for pages deleted since then.
/// Both shadow anything older living in flushed segments.
#[derive(Debug, Default)]
pub struct MemTable {
    docs: BTreeMap<u32, LiveDoc>,
    tombstones: BTreeSet<u32>,
    bytes: usize,
}

impl MemTable {
    /// An empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Inserts or replaces the page's version; clears any tombstone
    /// (an upsert after a delete resurrects the page).
    pub fn upsert(&mut self, doc: LiveDoc) {
        self.tombstones.remove(&doc.page.0);
        self.bytes += doc.approx_bytes();
        if let Some(old) = self.docs.insert(doc.page.0, doc) {
            self.bytes -= old.approx_bytes();
        }
    }

    /// Deletes the page: drops any buffered version and records a
    /// tombstone (the page may also live in older segments, which the
    /// tombstone must shadow).
    pub fn delete(&mut self, page: PageId) {
        if let Some(old) = self.docs.remove(&page.0) {
            self.bytes -= old.approx_bytes();
        }
        self.tombstones.insert(page.0);
    }

    /// Buffered document versions.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no versions and no tombstones are buffered.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty() && self.tombstones.is_empty()
    }

    /// Buffered tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Estimated heap bytes of the buffered versions (drives the flush
    /// threshold).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// The buffered versions in ascending page-id order.
    pub fn docs(&self) -> impl Iterator<Item = &LiveDoc> {
        self.docs.values()
    }

    /// Copies the buffer out as flush input — id-sorted versions and
    /// id-sorted tombstones — without mutating it (snapshots freeze the
    /// memtable this way).
    pub(crate) fn freeze(&self) -> (Vec<LiveDoc>, Vec<PageId>) {
        (
            self.docs.values().cloned().collect(),
            self.tombstones.iter().map(|&p| PageId(p)).collect(),
        )
    }

    /// Moves the buffer out as flush input and clears it.
    pub(crate) fn drain(&mut self) -> (Vec<LiveDoc>, Vec<PageId>) {
        self.bytes = 0;
        let docs = std::mem::take(&mut self.docs).into_values().collect();
        let tombstones = std::mem::take(&mut self.tombstones)
            .into_iter()
            .map(PageId)
            .collect();
        (docs, tombstones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, body: &str) -> LiveDoc {
        LiveDoc::new(
            PageId(id),
            format!("https://example.test/{id}"),
            "example.test".to_string(),
            0.5,
            10.0,
            SourceType::Earned,
            format!("Page {id}"),
            body.to_string(),
        )
    }

    #[test]
    fn upsert_replaces_and_tracks_bytes() {
        let mut m = MemTable::new();
        m.upsert(doc(3, "short"));
        let b1 = m.approx_bytes();
        m.upsert(doc(3, "a much longer body with many more words in it"));
        assert_eq!(m.len(), 1);
        assert!(m.approx_bytes() > b1, "replacement must retrack bytes");
    }

    #[test]
    fn delete_tombstones_and_upsert_resurrects() {
        let mut m = MemTable::new();
        m.upsert(doc(1, "x"));
        m.delete(PageId(1));
        assert_eq!(m.len(), 0);
        assert_eq!(m.tombstone_count(), 1);
        assert!(!m.is_empty(), "a tombstone still needs flushing");
        m.upsert(doc(1, "back"));
        assert_eq!(m.tombstone_count(), 0, "upsert clears the tombstone");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_yields_sorted_and_clears() {
        let mut m = MemTable::new();
        m.upsert(doc(9, "a"));
        m.upsert(doc(2, "b"));
        m.delete(PageId(5));
        let (docs, tombs) = m.drain();
        assert_eq!(docs.iter().map(|d| d.page.0).collect::<Vec<_>>(), [2, 9]);
        assert_eq!(tombs, vec![PageId(5)]);
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn token_len_matches_analysis() {
        let d = doc(1, "battery life and battery tests");
        assert_eq!(
            d.token_len() as usize,
            d.title_terms.len() + d.body_terms.len()
        );
        assert!(d.token_len() > 0);
    }
}
