//! The immutable search index: postings plus per-document metadata.
//!
//! Besides the inverted index the build interns *hosts* to dense ids
//! (so host-crowding can run on integer counters) and owns two lazily
//! built, lock-guarded caches shared by every [`crate::SearchEngine`]
//! wrapping the same `Arc<SearchIndex>`:
//!
//! * [`StaticScores`], the per-document static score factors, per
//!   distinct `(authority_weight, freshness_weight,
//!   freshness_half_life)` parameterization, and
//! * a [`ScoreTable`] of per-posting BM25 impacts per distinct BM25
//!   parameterization — what the kernel sums instead of re-evaluating
//!   BM25.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use shift_corpus::{PageId, SourceType, World};
use shift_textkit::{analyze_token, token_spans};

use crate::bm25::{idf, term_score_tf, Bm25Params};
use crate::docstore::{raw_doc_meta_bytes, CompactDocs, DocFields};
use crate::postings::{DocNum, PostingsStore, TermId};
use crate::sizing::{postings_size, SizePair};

/// Per-document metadata kept alongside the postings.
#[derive(Debug, Clone)]
pub struct DocMeta {
    /// The corpus page this document was built from.
    pub page: PageId,
    /// Canonical URL.
    pub url: Arc<str>,
    /// Host (used for host-crowding limits), shared by every document
    /// of the host.
    pub host: Arc<str>,
    /// Dense interned host id (crowding counters index by this).
    pub host_id: u32,
    /// Domain authority in `[0, 1]`.
    pub authority: f64,
    /// Page age in days at the world's reference date.
    pub age_days: f64,
    /// Source typology of the hosting domain.
    pub source_type: SourceType,
    /// Total token count (title + body).
    pub token_len: u32,
    /// Title token count (positions below this are title positions).
    pub title_len: u32,
    /// Raw body text, shared by every snippet cut from it.
    pub body: Arc<str>,
    /// Raw title.
    pub title: Arc<str>,
}

impl DocMeta {
    /// The borrowed field view [`SearchIndex::doc_fields`] returns.
    pub(crate) fn fields(&self) -> DocFields<'_> {
        DocFields {
            page: self.page,
            url: Cow::Borrowed(&self.url),
            host: &self.host,
            host_id: self.host_id,
            authority: self.authority,
            age_days: self.age_days,
            source_type: self.source_type,
            token_len: self.token_len,
            title_len: self.title_len,
            title: Cow::Borrowed(&self.title),
            text: &self.body,
            body_start: 0,
            body: &self.body,
        }
    }
}

/// The per-document static score factors for one ranking
/// parameterization: `(1 + authority_weight·authority)` and
/// `(1 + freshness_weight·exp(−age/half_life))`, kept as *two* factors
/// so the kernel applies them in exactly the same multiply sequence as
/// the reference scorer (f64 multiplication is not associative — a
/// pre-folded product would drift in the last ulp and break the
/// byte-identical SERP guarantee).
pub type StaticScores = Vec<(f64, f64)>;

/// Precomputed per-posting BM25 contributions ("impact scores") for one
/// BM25 parameterization.
///
/// Logically `scores[t][i]` is exactly `term_score_idf` evaluated for
/// posting `i` of term `t` — the same function the reference scorer
/// calls, invoked once at table-build time instead of once per scored
/// document, so summing cached impacts is *bit-identical* to
/// recomputing them. The kernel's scoring loop becomes one
/// [`ScoreTable::at`] load per matched cursor (no division, no
/// document-length fetch).
///
/// Physically a term's impacts are either a plain `f64` array or — on
/// compressed indexes, when a list has few *distinct* impact values
/// (BM25 over small integer tfs and quantized doc lengths collides
/// heavily) — a dictionary of the distinct values plus a fixed-width
/// bit-packed index per posting. The dictionary stores the exact `f64`
/// bits, so packing is lossless and byte-identity is preserved.
#[derive(Debug)]
pub struct ScoreTable {
    terms: Vec<TermScores>,
}

/// One term's physical impact representation (see [`ScoreTable`]).
#[derive(Debug)]
enum TermScores {
    /// Plain per-posting impact array.
    Raw(Vec<f64>),
    /// Dictionary of distinct impact bit patterns (first-seen order)
    /// plus per-posting dictionary indices, bit-packed at fixed
    /// `width`; `bits` carries 8 padding bytes so any index can be
    /// extracted with one aligned-window `u64` read.
    Packed {
        values: Vec<f64>,
        width: u8,
        bits: Vec<u8>,
    },
}

/// Pack a term's impact list into a dictionary + bit-packed indices
/// when the distinct-value count makes it worthwhile; keep it raw
/// otherwise.
fn pack_scores(raw: Vec<f64>) -> TermScores {
    let mut dict: HashMap<u64, u32> = HashMap::new();
    let mut values: Vec<f64> = Vec::new();
    let mut idx: Vec<u32> = Vec::with_capacity(raw.len());
    for &s in &raw {
        let next = values.len() as u32;
        let i = *dict.entry(s.to_bits()).or_insert_with(|| {
            values.push(s);
            next
        });
        idx.push(i);
    }
    // Below 2 distinct values per posting the packed form is a clear
    // win; otherwise the dictionary overhead can exceed the savings.
    if values.len() * 2 > raw.len() {
        return TermScores::Raw(raw);
    }
    let width = crate::codec::bits_for(values.len().saturating_sub(1) as u32);
    let mut bits = Vec::new();
    crate::codec::pack_bits(&mut bits, &idx, width);
    bits.extend_from_slice(&[0u8; 8]);
    TermScores::Packed {
        values,
        width,
        bits,
    }
}

impl ScoreTable {
    /// Builds a table from per-term impact lists, dictionary-packing
    /// each list when `pack` is set (the live searcher builds its
    /// per-segment tables through this, so segment impact storage
    /// matches the batch index's layout choice).
    pub(crate) fn from_term_lists(lists: Vec<Vec<f64>>, pack: bool) -> ScoreTable {
        ScoreTable {
            terms: lists
                .into_iter()
                .map(|l| {
                    if pack {
                        pack_scores(l)
                    } else {
                        TermScores::Raw(l)
                    }
                })
                .collect(),
        }
    }

    /// Impact score of posting `i` (global list index) of `term`.
    #[inline]
    pub fn at(&self, term: TermId, i: usize) -> f64 {
        match &self.terms[term as usize] {
            TermScores::Raw(v) => v[i],
            TermScores::Packed {
                values,
                width,
                bits,
            } => {
                let bitpos = i * *width as usize;
                let byte = bitpos >> 3;
                let window = u64::from_le_bytes(bits[byte..byte + 8].try_into().expect("8 bytes"));
                let mask = (1u64 << *width) - 1;
                values[((window >> (bitpos & 7)) & mask) as usize]
            }
        }
    }

    /// Writes the impacts of postings `start..start + out.len()` of
    /// `term` into `out` — [`ScoreTable::at`] over a range, with the
    /// layout dispatch hoisted out of the loop.
    pub(crate) fn impacts_into(&self, term: TermId, start: usize, out: &mut [f64]) {
        match &self.terms[term as usize] {
            TermScores::Raw(v) => out.copy_from_slice(&v[start..start + out.len()]),
            TermScores::Packed {
                values,
                width,
                bits,
            } => {
                let width = *width as usize;
                let mask = (1u64 << width) - 1;
                for (i, slot) in out.iter_mut().enumerate() {
                    let bitpos = (start + i) * width;
                    let byte = bitpos >> 3;
                    let window =
                        u64::from_le_bytes(bits[byte..byte + 8].try_into().expect("8 bytes"));
                    *slot = values[((window >> (bitpos & 7)) & mask) as usize];
                }
            }
        }
    }

    /// Impact scores of one term's posting list when stored raw, `None`
    /// when dictionary-packed.
    #[inline]
    pub(crate) fn raw_list(&self, term: TermId) -> Option<&[f64]> {
        match &self.terms[term as usize] {
            TermScores::Raw(v) => Some(v),
            TermScores::Packed { .. } => None,
        }
    }

    /// Estimated heap bytes held by the table as stored.
    pub fn heap_bytes(&self) -> u64 {
        let payload: u64 = self
            .terms
            .iter()
            .map(|t| match t {
                TermScores::Raw(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
                TermScores::Packed { values, bits, .. } => {
                    (values.len() * std::mem::size_of::<f64>() + bits.len()) as u64
                }
            })
            .sum();
        payload + self.terms.len() as u64 * std::mem::size_of::<TermScores>() as u64
    }

    /// Number of terms whose impacts are dictionary-packed (for tests
    /// and size reporting).
    pub fn packed_terms(&self) -> usize {
        self.terms
            .iter()
            .filter(|t| matches!(t, TermScores::Packed { .. }))
            .count()
    }
}

/// Cache key: the exact bits of the three parameters the static factors
/// depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticKey {
    authority_weight: u64,
    freshness_weight: u64,
    freshness_half_life: u64,
}

impl StaticKey {
    fn new(authority_weight: f64, freshness_weight: f64, freshness_half_life: f64) -> StaticKey {
        StaticKey {
            authority_weight: authority_weight.to_bits(),
            freshness_weight: freshness_weight.to_bits(),
            freshness_half_life: freshness_half_life.to_bits(),
        }
    }
}

/// Cache key for per-BM25-parameterization tables: the exact bits of
/// the BM25 parameters they depend on (collection statistics are fixed
/// per index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bm25Key {
    k1: u64,
    b: u64,
    title_weight: u64,
}

impl Bm25Key {
    fn new(params: &Bm25Params) -> Bm25Key {
        Bm25Key {
            k1: params.k1.to_bits(),
            b: params.b.to_bits(),
            title_weight: params.title_weight.to_bits(),
        }
    }
}

/// Document metadata in one of two physical layouts: plain per-document
/// structs (raw indexes) or the dictionary-encoded columnar form of
/// [`CompactDocs`] (compressed indexes). Reads that must work on both
/// go through [`SearchIndex::doc_fields`] / [`SearchIndex::token_len`].
#[derive(Debug)]
enum DocStore {
    /// One owned struct per document.
    Raw(Vec<DocMeta>),
    /// Columnar + dictionary-encoded (see [`crate::docstore`]).
    Compact(Box<CompactDocs>),
}

impl DocStore {
    fn len(&self) -> usize {
        match self {
            DocStore::Raw(v) => v.len(),
            DocStore::Compact(c) => c.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Appends the analyzed tokens of `text` to `occurrences` as
/// `(term, position)` pairs, positions continuing from the pairs
/// already there. Each distinct raw token goes through
/// [`analyze_token`] (and its term through [`PostingsStore::intern`])
/// only on its first sight in `memo`, so term ids follow first
/// occurrence in the world.
fn push_occurrences<'w>(
    text: &'w str,
    memo: &mut HashMap<&'w str, Option<TermId>>,
    postings: &mut PostingsStore,
    occurrences: &mut Vec<(TermId, u32)>,
) {
    for (start, end) in token_spans(text) {
        let raw = &text[start..end];
        let term = *memo
            .entry(raw)
            .or_insert_with(|| analyze_token(raw).map(|term| postings.intern(&term)));
        if let Some(id) = term {
            occurrences.push((id, occurrences.len() as u32));
        }
    }
}

/// The inverted index over a generated world.
#[derive(Debug)]
pub struct SearchIndex {
    postings: PostingsStore,
    docs: DocStore,
    host_count: u32,
    // Lazily built static-score tables, one per distinct parameter
    // triple. A handful of personas share an index, so a linear scan
    // over the entries is cheaper than any map.
    static_cache: RwLock<Vec<(StaticKey, Arc<StaticScores>)>>,
    // Lazily built per-posting impact-score tables, one per BM25 triple.
    score_cache: RwLock<Vec<(Bm25Key, Arc<ScoreTable>)>>,
}

impl SearchIndex {
    /// Builds the index from every page of a world in the raw layout.
    pub fn build(world: &World) -> SearchIndex {
        SearchIndex::build_with_layout(world, false)
    }

    /// Builds the index from every page of a world in the compressed
    /// layout: delta/varint block-coded postings, packed impact tables
    /// and dictionary-encoded document metadata. SERPs are
    /// byte-identical to [`SearchIndex::build`] over the same world.
    pub fn build_compressed(world: &World) -> SearchIndex {
        SearchIndex::build_with_layout(world, true)
    }

    fn build_with_layout(world: &World, compressed: bool) -> SearchIndex {
        let mut postings = if compressed {
            PostingsStore::new_compressed()
        } else {
            PostingsStore::new()
        };
        let mut docs = Vec::with_capacity(world.pages().len());
        // Hosts interned in first-seen order: one shared string per
        // host id, which every document of the host (and the compact
        // layout's dictionary) shares.
        let mut hosts: HashMap<&str, u32> = HashMap::new();
        let mut host_names: Vec<Arc<str>> = Vec::new();
        // Each distinct raw token is analyzed once per build; the world
        // repeats a small vocabulary across every page.
        let mut memo: HashMap<&str, Option<TermId>> = HashMap::new();
        let mut occurrences: Vec<(TermId, u32)> = Vec::new();
        for page in world.pages() {
            let doc: DocNum = docs.len() as DocNum;
            occurrences.clear();
            push_occurrences(&page.title, &mut memo, &mut postings, &mut occurrences);
            let title_len = occurrences.len() as u32;
            push_occurrences(&page.body, &mut memo, &mut postings, &mut occurrences);
            let token_len = occurrences.len() as u32;
            occurrences.sort_unstable();
            postings.add_document_ids(doc, title_len, &occurrences);
            let domain = world.domain(page.domain);
            let host_id = *hosts.entry(domain.host.as_str()).or_insert_with(|| {
                host_names.push(domain.host.as_str().into());
                host_names.len() as u32 - 1
            });
            docs.push(DocMeta {
                page: page.id,
                url: page.url.as_str().into(),
                host: Arc::clone(&host_names[host_id as usize]),
                host_id,
                authority: domain.authority,
                age_days: page.age_days(world.now_day()) as f64,
                source_type: domain.source_type,
                token_len,
                title_len,
                body: page.body.as_str().into(),
                title: page.title.as_str().into(),
            });
        }
        postings.finish();
        let host_count = host_names.len() as u32;
        let docs = if compressed {
            DocStore::Compact(Box::new(CompactDocs::from_metas(&docs, host_names)))
        } else {
            DocStore::Raw(docs)
        };
        SearchIndex {
            postings,
            docs,
            host_count,
            static_cache: RwLock::new(Vec::new()),
            score_cache: RwLock::new(Vec::new()),
        }
    }

    /// The postings store.
    pub fn postings(&self) -> &PostingsStore {
        &self.postings
    }

    /// True when this index holds the compressed layout.
    pub fn is_compressed(&self) -> bool {
        self.postings.is_compressed()
    }

    /// Document metadata by dense document number. Raw layout only —
    /// the compressed layout has no materialized [`DocMeta`]s; use
    /// [`SearchIndex::doc_fields`].
    #[inline]
    pub fn doc(&self, doc: DocNum) -> &DocMeta {
        match &self.docs {
            DocStore::Raw(v) => &v[doc as usize],
            DocStore::Compact(_) => {
                panic!("doc() requires the raw layout; use doc_fields()")
            }
        }
    }

    /// All documents. Raw layout only (see [`SearchIndex::doc`]).
    pub fn docs(&self) -> &[DocMeta] {
        match &self.docs {
            DocStore::Raw(v) => v,
            DocStore::Compact(_) => {
                panic!("docs() requires the raw layout; use doc_fields()")
            }
        }
    }

    /// A view of one document's metadata, available on both layouts
    /// (the compressed layout materializes URL and title; see
    /// [`DocFields`]).
    #[inline]
    pub fn doc_fields(&self, doc: DocNum) -> DocFields<'_> {
        match &self.docs {
            DocStore::Raw(v) => v[doc as usize].fields(),
            DocStore::Compact(c) => c.fields(doc),
        }
    }

    /// The interned host id of one document, available on both layouts
    /// without materializing anything.
    #[inline]
    pub(crate) fn host_id(&self, doc: DocNum) -> u32 {
        match &self.docs {
            DocStore::Raw(v) => v[doc as usize].host_id,
            DocStore::Compact(c) => c.host_id(doc),
        }
    }

    /// Total token count of one document (hot path for impact builds),
    /// available on both layouts.
    #[inline]
    pub fn token_len(&self, doc: DocNum) -> u32 {
        match &self.docs {
            DocStore::Raw(v) => v[doc as usize].token_len,
            DocStore::Compact(c) => c.token_len(doc),
        }
    }

    /// Number of distinct hosts (host ids are dense below this).
    pub fn host_count(&self) -> u32 {
        self.host_count
    }

    /// The per-document static score factors for one parameter triple, computing and caching them on first
    /// request. Engines sharing an `Arc<SearchIndex>` and a
    /// parameterization share one table.
    pub fn static_scores(
        &self,
        authority_weight: f64,
        freshness_weight: f64,
        freshness_half_life: f64,
    ) -> Arc<StaticScores> {
        let key = StaticKey::new(authority_weight, freshness_weight, freshness_half_life);
        {
            let cache = self.static_cache.read();
            if let Some((_, table)) = cache.iter().find(|(k, _)| *k == key) {
                return Arc::clone(table);
            }
        }
        let factor = |authority: f64, age_days: f64| {
            let fresh = (-age_days / freshness_half_life).exp();
            (
                1.0 + authority_weight * authority,
                1.0 + freshness_weight * fresh,
            )
        };
        let table: Arc<StaticScores> = Arc::new(match &self.docs {
            DocStore::Raw(v) => v.iter().map(|m| factor(m.authority, m.age_days)).collect(),
            DocStore::Compact(c) => c.static_inputs().map(|(a, age)| factor(a, age)).collect(),
        });
        let mut cache = self.static_cache.write();
        // Another thread may have built the same entry while we computed;
        // keep the first so every holder shares one allocation.
        if let Some((_, existing)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(existing);
        }
        cache.push((key, Arc::clone(&table)));
        table
    }

    /// The per-posting impact scores for one BM25 parameterization,
    /// computing and caching them on first request.
    ///
    /// Each entry calls [`term_score_idf`] with exactly the arguments
    /// the kernel's scoring path used to pass per scored document, so
    /// reading the table is bit-identical to recomputing the score.
    pub fn score_table(&self, params: &Bm25Params) -> Arc<ScoreTable> {
        let key = Bm25Key::new(params);
        {
            let cache = self.score_cache.read();
            if let Some((_, table)) = cache.iter().find(|(k, _)| *k == key) {
                return Arc::clone(table);
            }
        }
        let store = &self.postings;
        let doc_count = store.doc_count();
        let avg_len = store.avg_doc_len();
        let vocab = store.vocabulary_size();
        let compressed = store.is_compressed();
        let mut terms = Vec::with_capacity(vocab);
        for term in 0..vocab as TermId {
            let term_idf = idf(doc_count, store.doc_freq_by_id(term));
            let mut raw = Vec::with_capacity(store.doc_freq_by_id(term) as usize);
            store.for_each_posting(term, |_, doc, title_tf, body_tf| {
                let doc_len = f64::from(self.token_len(doc));
                raw.push(term_score_tf(
                    params, title_tf, body_tf, term_idf, doc_len, avg_len,
                ));
            });
            // Raw indexes keep plain arrays (the kernel's dense pass
            // reads them as slices); compressed indexes
            // dictionary-pack lists with few distinct values.
            terms.push(if compressed {
                pack_scores(raw)
            } else {
                TermScores::Raw(raw)
            });
        }
        let table = Arc::new(ScoreTable { terms });
        let mut cache = self.score_cache.write();
        if let Some((_, existing)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(existing);
        }
        cache.push((key, Arc::clone(&table)));
        table
    }

    /// Number of cached static-score parameterizations (for tests).
    pub fn static_cache_len(&self) -> usize {
        self.static_cache.read().len()
    }

    /// Number of cached impact-score parameterizations (for tests).
    pub fn score_cache_len(&self) -> usize {
        self.score_cache.read().len()
    }

    /// Size and estimated-heap-footprint report over the whole index:
    /// postings, positions, block tables, cached score tables and
    /// document metadata, each as held in memory, plus the raw-layout
    /// extrapolation ([`IndexStats::raw_bytes`]) a compressed index is
    /// measured against. Printed by the kernel bench; the compression
    /// gate rides on [`IndexStats::ratio`].
    pub fn stats(&self) -> IndexStats {
        let p = self.postings.stats();
        let doc_meta = match &self.docs {
            DocStore::Raw(v) => SizePair::raw(raw_doc_meta_bytes(v)),
            DocStore::Compact(c) => SizePair {
                raw_bytes: c.raw_bytes(),
                compressed_bytes: c.heap_bytes(),
            },
        };
        let score_cache = self.score_cache.read();
        let score_table_bytes: u64 = score_cache.iter().map(|(_, t)| t.heap_bytes()).sum();
        // Raw extrapolation of the impact tables: each cached table
        // logically holds one f64 per posting plus one list header per
        // term, however its lists are physically packed.
        let score_table_raw: u64 = score_cache.len() as u64
            * (p.postings * std::mem::size_of::<f64>() as u64
                + p.vocabulary as u64 * std::mem::size_of::<Vec<f64>>() as u64);
        drop(score_cache);
        let static_table_bytes: u64 = self.static_cache.read().len() as u64
            * self.docs.len() as u64
            * std::mem::size_of::<(f64, f64)>() as u64;
        // Structures whose layout is identical in both modes.
        let shared = SizePair::raw(p.block_bytes + p.dict_bytes + static_table_bytes);
        let total = postings_size(&p)
            + SizePair {
                raw_bytes: score_table_raw,
                compressed_bytes: score_table_bytes,
            }
            + doc_meta
            + shared;
        IndexStats {
            docs: self.docs.len(),
            hosts: self.host_count,
            vocabulary: p.vocabulary,
            postings: p.postings,
            positions: p.positions,
            postings_bytes: p.postings_bytes,
            positions_bytes: p.positions_bytes,
            block_entries: p.block_entries,
            block_bytes: p.block_bytes,
            dict_bytes: p.dict_bytes,
            score_table_bytes,
            doc_meta_bytes: doc_meta.compressed_bytes,
            estimated_heap_bytes: total.compressed_bytes,
            raw_bytes: total.raw_bytes,
            compressed_bytes: total.compressed_bytes,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Size report over a [`SearchIndex`] (see [`SearchIndex::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexed documents.
    pub docs: usize,
    /// Distinct hosts.
    pub hosts: u32,
    /// Distinct terms.
    pub vocabulary: usize,
    /// Total postings (term–document pairs).
    pub postings: u64,
    /// Total stored token positions.
    pub positions: u64,
    /// Estimated heap bytes of posting structs.
    pub postings_bytes: u64,
    /// Estimated heap bytes of position arrays.
    pub positions_bytes: u64,
    /// Block-table (skip pointer) entries across all lists.
    pub block_entries: u64,
    /// Estimated heap bytes of the block tables.
    pub block_bytes: u64,
    /// Estimated heap bytes of the term dictionary (strings + entries).
    pub dict_bytes: u64,
    /// Estimated heap bytes of cached per-posting impact-score tables.
    pub score_table_bytes: u64,
    /// Estimated heap bytes of document metadata (incl. raw text).
    pub doc_meta_bytes: u64,
    /// Estimated total heap footprint of the index as held.
    pub estimated_heap_bytes: u64,
    /// What the raw (uncompressed) layout would cost for the same index
    /// — postings, positions, impact tables and metadata extrapolated
    /// to their plain-array forms. Equals `compressed_bytes` on a raw
    /// index.
    pub raw_bytes: u64,
    /// Bytes actually held (same as `estimated_heap_bytes`; kept as an
    /// explicit pair with `raw_bytes` for ratio reporting).
    pub compressed_bytes: u64,
}

impl IndexStats {
    /// Compression ratio `compressed / raw` (1.0 on a raw index).
    pub fn ratio(&self) -> f64 {
        SizePair {
            raw_bytes: self.raw_bytes,
            compressed_bytes: self.compressed_bytes,
        }
        .ratio()
    }
}

impl fmt::Display for IndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn mib(bytes: u64) -> f64 {
            bytes as f64 / (1024.0 * 1024.0)
        }
        writeln!(
            f,
            "index: {} docs, {} hosts, {} terms",
            self.docs, self.hosts, self.vocabulary
        )?;
        writeln!(
            f,
            "  postings  {:>12} entries  {:>9.2} MiB",
            self.postings,
            mib(self.postings_bytes)
        )?;
        writeln!(
            f,
            "  positions {:>12} entries  {:>9.2} MiB",
            self.positions,
            mib(self.positions_bytes)
        )?;
        writeln!(
            f,
            "  blocks    {:>12} entries  {:>9.2} MiB",
            self.block_entries,
            mib(self.block_bytes)
        )?;
        writeln!(
            f,
            "  impacts   {:>34.2} MiB (cached per-posting scores)",
            mib(self.score_table_bytes)
        )?;
        writeln!(f, "  dict      {:>34.2} MiB", mib(self.dict_bytes))?;
        writeln!(f, "  doc meta  {:>34.2} MiB", mib(self.doc_meta_bytes))?;
        writeln!(
            f,
            "  estimated heap {:>29.2} MiB",
            mib(self.estimated_heap_bytes)
        )?;
        write!(
            f,
            "  vs raw layout  {:>29.2} MiB  (ratio {:.3})",
            mib(self.raw_bytes),
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::WorldConfig;

    fn index() -> SearchIndex {
        let world = World::generate(&WorldConfig::small(), 99);
        SearchIndex::build(&world)
    }

    #[test]
    fn indexes_every_page() {
        let world = World::generate(&WorldConfig::small(), 99);
        let idx = SearchIndex::build(&world);
        assert_eq!(idx.len(), world.pages().len());
        assert_eq!(idx.postings().doc_count() as usize, world.pages().len());
    }

    #[test]
    fn doc_meta_matches_world() {
        let world = World::generate(&WorldConfig::small(), 99);
        let idx = SearchIndex::build(&world);
        for doc in idx.docs().iter().take(50) {
            let page = world.page(doc.page);
            assert_eq!(*doc.url, page.url);
            assert_eq!(*doc.host, world.domain(page.domain).host);
            assert!(doc.age_days >= 0.0);
        }
    }

    #[test]
    fn host_ids_are_dense_and_consistent() {
        let idx = index();
        let n = idx.host_count();
        assert!(n > 0);
        let mut seen: HashMap<u32, &str> = HashMap::new();
        for doc in idx.docs() {
            assert!(doc.host_id < n, "host id out of range");
            // Same id ⇔ same host string.
            let host = seen.entry(doc.host_id).or_insert(&*doc.host);
            assert_eq!(*host, &*doc.host);
        }
    }

    #[test]
    fn static_scores_are_cached_and_shared() {
        let idx = index();
        assert_eq!(idx.static_cache_len(), 0);
        let a = idx.static_scores(2.2, 0.12, 365.0);
        let b = idx.static_scores(2.2, 0.12, 365.0);
        assert!(Arc::ptr_eq(&a, &b), "same params must share one vector");
        assert_eq!(idx.static_cache_len(), 1);
        let c = idx.static_scores(0.5, 0.9, 120.0);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(idx.static_cache_len(), 2);
        assert_eq!(a.len(), idx.len());
    }

    #[test]
    fn static_scores_match_direct_computation() {
        let idx = index();
        let (aw, fw, hl) = (2.2, 0.12, 365.0);
        let table = idx.static_scores(aw, fw, hl);
        for (meta, &(auth, fresh)) in idx.docs().iter().zip(table.iter()).take(50) {
            assert_eq!(auth.to_bits(), (1.0 + aw * meta.authority).to_bits());
            let expect = 1.0 + fw * (-meta.age_days / hl).exp();
            assert_eq!(fresh.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn stats_report_is_consistent() {
        let idx = index();
        let _ = idx.score_table(&crate::bm25::Bm25Params::default());
        let s = idx.stats();
        assert_eq!(s.docs, idx.len());
        assert_eq!(s.vocabulary, idx.postings().vocabulary_size());
        assert!(s.postings > 0 && s.positions >= s.postings);
        assert!(s.block_entries > 0 && s.score_table_bytes > 0);
        assert!(s.dict_bytes > 0, "dictionary footprint must be reported");
        assert!(
            s.estimated_heap_bytes
                >= s.postings_bytes + s.positions_bytes + s.block_bytes + s.doc_meta_bytes
        );
        // Display renders without panicking and mentions the doc count.
        let rendered = format!("{s}");
        assert!(rendered.contains(&format!("{} docs", s.docs)));
    }

    #[test]
    fn vocabulary_contains_topic_terms() {
        let idx = index();
        // Stemmed topic words must be indexed somewhere.
        for term in ["laptop", "battery", "review"] {
            assert!(
                idx.postings().doc_freq(term) > 0,
                "term {term} missing from vocabulary"
            );
        }
    }

    #[test]
    fn title_positions_precede_body_positions() {
        let idx = index();
        let doc0 = idx.doc(0);
        assert!(doc0.title_len <= doc0.token_len);
    }

    #[test]
    fn is_empty_only_for_zero_docs() {
        let idx = index();
        assert!(!idx.is_empty());
    }
}
