//! Document metadata storage: plain per-document structs or the
//! dictionary-encoded columnar form used by compressed indexes.
//!
//! The raw layout ([`DocMeta`]) keeps one struct per document with
//! shared `Arc<str>` URL, host and title (each host's string is one
//! allocation shared by all of its documents) and an owned body —
//! convenient, but at millions of documents the per-string allocation
//! headers dominate. The compact layout ([`CompactDocs`]) stores:
//!
//! * numeric columns (`page`, `host_id`, `authority`, `age_days`,
//!   `source_type`, `token_len`, `title_len`) as flat arrays;
//! * every title and body concatenated into one shared text arena,
//!   addressed by a flat offset array (two spans per document);
//! * hosts as a dictionary: the distinct host strings once, as shared
//!   `Arc<str>`s, referenced by the dense interned `host_id` each
//!   document already carries;
//! * URLs as a *front-coded* dictionary: the URLs sorted, split into
//!   groups of [`URL_GROUP`], each group storing its first URL verbatim
//!   and every subsequent entry as `(shared-prefix len, suffix)` —
//!   URLs on one host share long scheme+host+path prefixes, so this
//!   removes most of their bytes. A per-document rank array maps doc
//!   number → sorted position.
//!
//! Reads go through [`DocFields`], a view both layouts can produce. The
//! raw layout lends its shared strings; the compact layout lends its
//! host and its shared text arena (a snippet is a window of either
//! layout's shared text) and materializes the URL (decoded from the
//! front-coded dictionary) and the title (copied out of the arena) as
//! new `Arc<str>`s — `Cow::Owned` — so a reader asks for the view only
//! of documents whose strings it keeps.

use std::borrow::Cow;
use std::sync::Arc;

use shift_corpus::{PageId, SourceType};

use crate::codec::{read_varint, write_varint};
use crate::index::DocMeta;
use crate::postings::DocNum;

/// Number of URLs per front-coded group: the first is stored verbatim,
/// the rest as `(lcp, suffix)` against their predecessor.
pub const URL_GROUP: usize = 16;

/// A view of one document's metadata, produced by both the raw and the
/// compact layout. URL and title are the store's shared strings on the
/// raw layout and materialized (owned) on the compact layout; host and
/// body always borrow from the store, the body together with the shared
/// text it lies in. `into_owned()` on a `Cow` field yields the
/// `Arc<str>` a result keeps: a refcount bump when borrowed.
#[derive(Debug)]
pub struct DocFields<'a> {
    /// The corpus page this document was built from.
    pub page: PageId,
    /// Canonical URL.
    pub url: Cow<'a, Arc<str>>,
    /// Host (used for host-crowding limits).
    pub host: &'a Arc<str>,
    /// Dense interned host id.
    pub host_id: u32,
    /// Domain authority in `[0, 1]`.
    pub authority: f64,
    /// Page age in days at the world's reference date.
    pub age_days: f64,
    /// Source typology of the hosting domain.
    pub source_type: SourceType,
    /// Total token count (title + body).
    pub token_len: u32,
    /// Title token count.
    pub title_len: u32,
    /// Raw title.
    pub title: Cow<'a, Arc<str>>,
    /// The shared text the body lies in: the document's own body on the
    /// raw layout, the whole text arena on the compact one.
    pub text: &'a Arc<str>,
    /// Byte offset of the body in `text`.
    pub body_start: usize,
    /// Raw body text, `text[body_start..][..body.len()]`.
    pub body: &'a str,
}

/// Columnar, dictionary-encoded document metadata (see module docs).
#[derive(Debug)]
pub struct CompactDocs {
    pages: Vec<PageId>,
    host_ids: Vec<u32>,
    authorities: Vec<f64>,
    ages: Vec<f64>,
    source_types: Vec<SourceType>,
    token_lens: Vec<u32>,
    title_lens: Vec<u32>,
    /// All titles and bodies, concatenated per document; snippets share
    /// it.
    text: Arc<str>,
    /// `2n + 1` offsets into `text`: doc `i`'s title is
    /// `text[offs[2i]..offs[2i+1]]`, its body `text[offs[2i+1]..offs[2i+2]]`.
    text_offs: Vec<u32>,
    /// Distinct host strings, indexed by `host_id`.
    hosts: Vec<Arc<str>>,
    /// Front-coded sorted URL dictionary payload.
    url_data: Vec<u8>,
    /// Byte offset of each group's start in `url_data`.
    url_group_offs: Vec<u32>,
    /// Doc number → rank of its URL in the sorted dictionary.
    url_refs: Vec<u32>,
    /// What the raw `DocMeta` layout would cost for the same documents,
    /// captured at conversion time for compression reporting.
    raw_bytes: u64,
}

/// Length of the longest common prefix of `a` and `b`, clamped to a
/// UTF-8 character boundary of both.
fn common_prefix(a: &str, b: &str) -> usize {
    let mut n = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    while n > 0 && (!a.is_char_boundary(n) || !b.is_char_boundary(n)) {
        n -= 1;
    }
    n
}

impl CompactDocs {
    /// Converts raw per-document metadata into the compact layout. The
    /// `hosts` dictionary must list the distinct host strings in
    /// `host_id` order (the build's first-seen interning order).
    pub fn from_metas(metas: &[DocMeta], hosts: Vec<Arc<str>>) -> CompactDocs {
        let n = metas.len();
        let raw_bytes = raw_doc_meta_bytes(metas);
        let mut text = String::new();
        let mut text_offs = Vec::with_capacity(2 * n + 1);
        text_offs.push(0u32);
        for m in metas {
            text.push_str(&m.title);
            text_offs.push(text.len() as u32);
            text.push_str(&m.body);
            text_offs.push(text.len() as u32);
        }

        // Sort URL ranks (each URL is unique per document), then
        // front-code in groups.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| metas[a as usize].url.cmp(&metas[b as usize].url));
        let mut url_refs = vec![0u32; n];
        for (rank, &doc) in order.iter().enumerate() {
            url_refs[doc as usize] = rank as u32;
        }
        let mut url_data = Vec::new();
        let mut url_group_offs = Vec::with_capacity(n.div_ceil(URL_GROUP));
        for group in order.chunks(URL_GROUP) {
            url_group_offs.push(url_data.len() as u32);
            let mut prev: &str = "";
            for (j, &doc) in group.iter().enumerate() {
                let url = &*metas[doc as usize].url;
                if j == 0 {
                    write_varint(&mut url_data, url.len() as u32);
                    url_data.extend_from_slice(url.as_bytes());
                } else {
                    let lcp = common_prefix(prev, url);
                    write_varint(&mut url_data, lcp as u32);
                    write_varint(&mut url_data, (url.len() - lcp) as u32);
                    url_data.extend_from_slice(&url.as_bytes()[lcp..]);
                }
                prev = url;
            }
        }

        CompactDocs {
            pages: metas.iter().map(|m| m.page).collect(),
            host_ids: metas.iter().map(|m| m.host_id).collect(),
            authorities: metas.iter().map(|m| m.authority).collect(),
            ages: metas.iter().map(|m| m.age_days).collect(),
            source_types: metas.iter().map(|m| m.source_type).collect(),
            token_lens: metas.iter().map(|m| m.token_len).collect(),
            title_lens: metas.iter().map(|m| m.title_len).collect(),
            text: text.into(),
            text_offs,
            hosts,
            url_data,
            url_group_offs,
            url_refs,
            raw_bytes,
        }
    }

    /// Number of documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total token count of one document (hot path for impact builds).
    #[inline]
    pub fn token_len(&self, doc: DocNum) -> u32 {
        self.token_lens[doc as usize]
    }

    /// Re-materializes one document's URL from the front-coded
    /// dictionary: decode the group head, then apply `(lcp, suffix)`
    /// edits up to the document's rank within its group.
    pub fn url(&self, doc: DocNum) -> String {
        let rank = self.url_refs[doc as usize] as usize;
        let group = rank / URL_GROUP;
        let within = rank % URL_GROUP;
        let data = &self.url_data[self.url_group_offs[group] as usize..];
        let mut pos = 0usize;
        let head_len = read_varint(data, &mut pos) as usize;
        let mut url = String::from(
            std::str::from_utf8(&data[pos..pos + head_len]).expect("url bytes are UTF-8"),
        );
        pos += head_len;
        for _ in 0..within {
            let lcp = read_varint(data, &mut pos) as usize;
            let suffix_len = read_varint(data, &mut pos) as usize;
            url.truncate(lcp);
            url.push_str(
                std::str::from_utf8(&data[pos..pos + suffix_len]).expect("url bytes are UTF-8"),
            );
            pos += suffix_len;
        }
        url
    }

    /// The interned host id of one document.
    #[inline]
    pub(crate) fn host_id(&self, doc: DocNum) -> u32 {
        self.host_ids[doc as usize]
    }

    /// The full view of one document: URL and title materialized as new
    /// strings, the rest borrowed (see [`DocFields`]).
    pub fn fields(&self, doc: DocNum) -> DocFields<'_> {
        let i = doc as usize;
        let t0 = self.text_offs[2 * i] as usize;
        let t1 = self.text_offs[2 * i + 1] as usize;
        let t2 = self.text_offs[2 * i + 2] as usize;
        DocFields {
            page: self.pages[i],
            url: Cow::Owned(self.url(doc).into()),
            host: &self.hosts[self.host_ids[i] as usize],
            host_id: self.host_ids[i],
            authority: self.authorities[i],
            age_days: self.ages[i],
            source_type: self.source_types[i],
            token_len: self.token_lens[i],
            title_len: self.title_lens[i],
            title: Cow::Owned(self.text[t0..t1].into()),
            text: &self.text,
            body_start: t1,
            body: &self.text[t1..t2],
        }
    }

    /// Per-document `(authority, age_days)` pairs for static-score
    /// builds, without materializing full views.
    #[inline]
    pub fn static_inputs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.authorities
            .iter()
            .copied()
            .zip(self.ages.iter().copied())
    }

    /// Estimated heap bytes held by the compact layout as stored.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let hosts: u64 = self
            .hosts
            .iter()
            .map(|h| (h.len() + 2 * size_of::<usize>() + size_of::<Arc<str>>()) as u64)
            .sum();
        (self.pages.len() * size_of::<PageId>()
            + self.host_ids.len() * 4
            + self.authorities.len() * 8
            + self.ages.len() * 8
            + self.source_types.len() * size_of::<SourceType>()
            + self.token_lens.len() * 4
            + self.title_lens.len() * 4
            + self.text.len()
            + self.text_offs.len() * 4
            + self.url_data.len()
            + self.url_group_offs.len() * 4
            + self.url_refs.len() * 4) as u64
            + hosts
    }

    /// What the raw `DocMeta` layout cost for the same documents.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }
}

/// Estimated heap bytes of a raw `Vec<DocMeta>` layout: the struct array
/// plus every owned string's payload. Shared by the raw index's stats
/// and [`CompactDocs`]'s conversion-time capture so both sides of the
/// compression ratio use the same formula.
pub fn raw_doc_meta_bytes(metas: &[DocMeta]) -> u64 {
    metas.len() as u64 * std::mem::size_of::<DocMeta>() as u64
        + metas
            .iter()
            .map(|d| (d.url.len() + d.host.len() + d.title.len() + d.body.len()) as u64)
            .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(i: u32, url: &str, host: &str, host_id: u32) -> DocMeta {
        DocMeta {
            page: PageId(i),
            url: url.into(),
            host: host.into(),
            host_id,
            authority: 0.25 + f64::from(i) * 0.01,
            age_days: f64::from(i) * 3.0,
            source_type: SourceType::Earned,
            token_len: 100 + i,
            title_len: 5 + i,
            body: format!("body text number {i} with battery life details").into(),
            title: format!("Title {i}").into(),
        }
    }

    fn sample(n: u32) -> (Vec<DocMeta>, Vec<Arc<str>>) {
        let hosts: Vec<Arc<str>> = vec!["a.example.com".into(), "b.example.org".into()];
        let metas: Vec<DocMeta> = (0..n)
            .map(|i| {
                let h = (i % 2) as usize;
                meta(
                    i,
                    &format!("https://{}/articles/{:04}/page", hosts[h], i * 7 % 97),
                    &hosts[h],
                    h as u32,
                )
            })
            .collect();
        (metas, hosts)
    }

    #[test]
    fn fields_match_source_metas() {
        let (metas, hosts) = sample(50);
        let compact = CompactDocs::from_metas(&metas, hosts);
        assert_eq!(compact.len(), metas.len());
        for (i, m) in metas.iter().enumerate() {
            let f = compact.fields(i as DocNum);
            assert_eq!(f.page, m.page);
            assert_eq!(*f.url, m.url);
            assert_eq!(*f.host, m.host);
            assert_eq!(f.host_id, m.host_id);
            assert_eq!(f.authority.to_bits(), m.authority.to_bits());
            assert_eq!(f.age_days.to_bits(), m.age_days.to_bits());
            assert_eq!(f.token_len, m.token_len);
            assert_eq!(f.title_len, m.title_len);
            assert_eq!(*f.title, m.title);
            assert_eq!(f.body, &*m.body);
            assert_eq!(&f.text[f.body_start..][..f.body.len()], f.body);
            assert_eq!(compact.token_len(i as DocNum), m.token_len);
        }
    }

    #[test]
    fn url_group_boundaries_roundtrip() {
        // Exercise group heads, interiors and a partial final group.
        let (metas, hosts) = sample(URL_GROUP as u32 * 3 + 5);
        let compact = CompactDocs::from_metas(&metas, hosts);
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(compact.url(i as DocNum), *m.url, "doc {i}");
        }
    }

    #[test]
    fn compact_layout_is_smaller_than_raw() {
        let (metas, hosts) = sample(400);
        let compact = CompactDocs::from_metas(&metas, hosts);
        assert_eq!(compact.raw_bytes(), raw_doc_meta_bytes(&metas));
        assert!(
            compact.heap_bytes() < compact.raw_bytes(),
            "compact {} >= raw {}",
            compact.heap_bytes(),
            compact.raw_bytes()
        );
    }

    #[test]
    fn common_prefix_respects_char_boundaries() {
        assert_eq!(common_prefix("abc", "abd"), 2);
        assert_eq!(common_prefix("", "x"), 0);
        // 'é' is two bytes; identical first byte must not split it.
        assert_eq!(common_prefix("é", "ü"), 0);
        assert_eq!(common_prefix("éa", "éb"), 2);
    }
}
