//! Term dictionary and positional posting lists.
//!
//! Terms are interned to dense [`TermId`]s at index-build time, in
//! order of first occurrence: the dictionary maps each distinct term
//! string to a `u32`, and posting lists live in a `Vec` indexed by
//! that id. Query execution resolves
//! each query term with exactly one dictionary probe ([`PostingsStore::term_id`])
//! and from then on works purely with integer ids — the scoring hot
//! path never hashes a string.
//!
//! Alongside each posting list the store keeps a *block table*: one
//! [`BlockSummary`] per [`BLOCK_LEN`] consecutive postings, holding the
//! block's last document — the skip pointer seeks use to jump forward
//! in a list without touching postings.
//!
//! The store has two physical layouts behind one logical interface:
//!
//! * **Raw** ([`PostingsStore::new`]): `Posting` structs plus a dense
//!   doc-id mirror and one CSR positions array — pointer-free scans,
//!   maximal speed, 20 bytes per posting plus 4 per position.
//! * **Compressed** ([`PostingsStore::new_compressed`]): per-term byte
//!   streams of [`BLOCK_LEN`]-posting blocks (delta + bit-packed doc
//!   ids and term frequencies, see [`crate::codec`]) and varint
//!   position streams. Blocks align exactly with the block table,
//!   so a seek decodes at most one block past its target. Documents
//!   stream straight into encoded blocks at build time — the raw
//!   representation is never materialized.
//!
//! Mode-agnostic reads go through [`PostingsStore::for_each_posting`]
//! and friends; the raw slice
//! accessors ([`PostingsStore::postings_by_id`] etc.) are raw-layout
//! only and panic on a compressed store.

use std::collections::HashMap;

use crate::codec;

/// Number of postings summarized by one [`BlockSummary`] and encoded
/// per compressed block.
pub const BLOCK_LEN: usize = 64;

/// Per-block summary of [`BLOCK_LEN`] consecutive postings of one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Last (largest) document number in the block — the skip pointer.
    pub last_doc: DocNum,
}

/// Internal dense document number (index into the document-meta table).
pub type DocNum = u32;

/// Dense interned term identifier (index into the posting-list table).
pub type TermId = u32;

/// One document's entry in a term's posting list (raw layout). Its
/// token positions live in the store's CSR array
/// ([`PostingsStore::positions_by_id`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Posting {
    /// Dense document number.
    pub doc: DocNum,
    /// Occurrences in the title (weighted higher at score time).
    pub title_tf: u32,
    /// Occurrences in the body.
    pub body_tf: u32,
}

/// One term's compressed posting list: concatenated encoded blocks plus
/// the per-posting varint position streams (see [`crate::codec`]).
#[derive(Debug, Default)]
struct PackedList {
    /// Number of postings in the list.
    count: u32,
    /// Concatenated encoded blocks.
    data: Vec<u8>,
    /// Byte offset of each block in `data` (`len == nblocks + 1`).
    block_offs: Vec<u32>,
    /// Concatenated per-posting varint position streams.
    pos_data: Vec<u8>,
    /// Byte offset of each posting's stream in `pos_data`
    /// (`len == count + 1`); kept uncompressed for random access, the
    /// same cost as the raw CSR offset array.
    pos_offs: Vec<u32>,
}

/// Per-term build buffer for the compressed layout: up to
/// [`BLOCK_LEN`] pending postings, encoded as one block when full.
#[derive(Debug, Default)]
struct BlockTail {
    docs: Vec<DocNum>,
    title_tfs: Vec<u32>,
    body_tfs: Vec<u32>,
}

/// The term dictionary: term → [`TermId`] → posting list, plus collection
/// statistics.
#[derive(Debug, Default)]
pub struct PostingsStore {
    dict: HashMap<String, TermId>,
    lists: Vec<Vec<Posting>>,
    // Dense doc-number mirror of each list (`doc_ids[t][i] ==
    // lists[t][i].doc`): seeks and merges walk this 4-byte-per-entry
    // mirror instead of striding 12-byte postings.
    doc_ids: Vec<Vec<DocNum>>,
    // The positions of every posting, in CSR form: posting i of term t
    // owns `pos_flat[t][pos_offsets[t][i]..pos_offsets[t][i+1]]`. This
    // is the only copy, and scoring reads it with one predictable
    // indexed load, so the kernel never touches the posting structs.
    pos_offsets: Vec<Vec<u32>>,
    pos_flat: Vec<Vec<u32>>,
    blocks: Vec<Vec<BlockSummary>>,
    // Compressed layout: per-term encoded lists and (during build) the
    // pending-block tails drained by `finish`.
    packed: Vec<PackedList>,
    tails: Vec<BlockTail>,
    compressed: bool,
    doc_count: u32,
    total_tokens: u64,
    total_postings: u64,
    total_positions: u64,
}

impl PostingsStore {
    /// Creates an empty store with the raw (uncompressed) layout.
    pub fn new() -> Self {
        PostingsStore::default()
    }

    /// Creates an empty store with the compressed layout. Call
    /// [`PostingsStore::finish`] after the last document to flush
    /// partial blocks; until then reads see only whole encoded blocks.
    pub fn new_compressed() -> Self {
        PostingsStore {
            compressed: true,
            ..PostingsStore::default()
        }
    }

    /// Whether this store uses the compressed layout.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Indexes one document given its analyzed title and body terms,
    /// interning each new term in order of occurrence (title first).
    /// Documents must be added in increasing `doc` order.
    pub fn add_document(&mut self, doc: DocNum, title_terms: &[String], body_terms: &[String]) {
        let mut occurrences: Vec<(TermId, u32)> = title_terms
            .iter()
            .chain(body_terms)
            .enumerate()
            .map(|(pos, term)| (self.intern(term), pos as u32))
            .collect();
        occurrences.sort_unstable();
        self.add_document_ids(doc, title_terms.len() as u32, &occurrences);
    }

    /// Indexes one document given as its term occurrences: one
    /// `(term, position)` pair per analyzed token, sorted by term and
    /// then position. Positions `0..title_len` are title tokens, the
    /// rest body tokens, so the document is `occurrences.len()` tokens
    /// long. Each run of one term becomes that term's posting for
    /// `doc`, on either layout. Documents must be added in increasing
    /// `doc` order, over ids from [`PostingsStore::intern`].
    pub(crate) fn add_document_ids(
        &mut self,
        doc: DocNum,
        title_len: u32,
        occurrences: &[(TermId, u32)],
    ) {
        debug_assert_eq!(doc, self.doc_count, "documents must be added densely");
        debug_assert!(
            occurrences.is_sorted_by(|a, b| a < b),
            "occurrences must be sorted by term, then position, without repeats"
        );
        self.doc_count += 1;
        self.total_tokens += occurrences.len() as u64;
        for run in occurrences.chunk_by(|a, b| a.0 == b.0) {
            let id = run[0].0;
            let title_tf = run.partition_point(|&(_, pos)| pos < title_len) as u32;
            let body_tf = run.len() as u32 - title_tf;
            let positions = run.iter().map(|(_, pos)| pos);
            if self.compressed {
                self.push_posting_packed(id, doc, title_tf, body_tf, positions);
            } else {
                let posting = Posting {
                    doc,
                    title_tf,
                    body_tf,
                };
                self.push_posting(id, posting, positions);
            }
        }
    }

    /// Flushes pending partial blocks of a compressed build. Must be
    /// called after the last [`PostingsStore::add_document`]; a no-op
    /// on raw stores and on already-finished compressed stores.
    pub fn finish(&mut self) {
        if !self.compressed {
            return;
        }
        for (id, tail) in self.tails.iter_mut().enumerate() {
            if tail.docs.is_empty() {
                continue;
            }
            let pl = &mut self.packed[id];
            codec::encode_block(&mut pl.data, &tail.docs, &tail.title_tfs, &tail.body_tfs);
            pl.block_offs.push(pl.data.len() as u32);
            tail.docs.clear();
            tail.title_tfs.clear();
            tail.body_tfs.clear();
        }
    }

    /// Appends one posting and its positions to a raw list, maintaining
    /// the block table.
    fn push_posting<'a>(
        &mut self,
        id: TermId,
        posting: Posting,
        positions: impl ExactSizeIterator<Item = &'a u32>,
    ) {
        let list = &mut self.lists[id as usize];
        Self::push_block_entry(&mut self.blocks[id as usize], list.len(), posting.doc);
        self.total_postings += 1;
        self.total_positions += positions.len() as u64;
        self.doc_ids[id as usize].push(posting.doc);
        let flat = &mut self.pos_flat[id as usize];
        flat.extend(positions);
        self.pos_offsets[id as usize].push(flat.len() as u32);
        list.push(posting);
    }

    /// Appends one posting to a compressed list: positions varint-stream
    /// immediately, doc/tf into the pending tail, block encoded when the
    /// tail reaches [`BLOCK_LEN`]. The block table is maintained
    /// identically to the raw path.
    fn push_posting_packed<'a>(
        &mut self,
        id: TermId,
        doc: DocNum,
        title_tf: u32,
        body_tf: u32,
        positions: impl ExactSizeIterator<Item = &'a u32>,
    ) {
        let pl = &mut self.packed[id as usize];
        Self::push_block_entry(&mut self.blocks[id as usize], pl.count as usize, doc);
        self.total_postings += 1;
        self.total_positions += positions.len() as u64;
        pl.count += 1;
        codec::encode_positions(&mut pl.pos_data, positions);
        pl.pos_offs.push(pl.pos_data.len() as u32);
        let tail = &mut self.tails[id as usize];
        tail.docs.push(doc);
        tail.title_tfs.push(title_tf);
        tail.body_tfs.push(body_tf);
        if tail.docs.len() == BLOCK_LEN {
            codec::encode_block(&mut pl.data, &tail.docs, &tail.title_tfs, &tail.body_tfs);
            pl.block_offs.push(pl.data.len() as u32);
            tail.docs.clear();
            tail.title_tfs.clear();
            tail.body_tfs.clear();
        }
    }

    /// Folds one posting into the block table shared by both layouts.
    fn push_block_entry(blocks: &mut Vec<BlockSummary>, list_len: usize, doc: DocNum) {
        if list_len.is_multiple_of(BLOCK_LEN) {
            blocks.push(BlockSummary { last_doc: doc });
        } else {
            blocks
                .last_mut()
                .expect("non-empty list has a block")
                .last_doc = doc;
        }
    }

    /// Interns `term`, assigning the next dense id on first sight, so
    /// ids follow the order in which terms are first interned. A term
    /// interned but never given a posting keeps an empty list.
    pub(crate) fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.dict.get(term) {
            return id;
        }
        let id = if self.compressed {
            let id = self.packed.len() as TermId;
            self.packed.push(PackedList {
                count: 0,
                data: Vec::new(),
                block_offs: vec![0],
                pos_data: Vec::new(),
                pos_offs: vec![0],
            });
            self.tails.push(BlockTail::default());
            id
        } else {
            let id = self.lists.len() as TermId;
            self.lists.push(Vec::new());
            self.doc_ids.push(Vec::new());
            self.pos_offsets.push(vec![0]);
            self.pos_flat.push(Vec::new());
            id
        };
        self.dict.insert(term.to_string(), id);
        self.blocks.push(Vec::new());
        id
    }

    /// The interned id of a term, if it occurs anywhere in the collection.
    /// This is the *only* string hash on the query hot path.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.get(term).copied()
    }

    /// Posting list by interned id (raw layout only).
    #[inline]
    pub fn postings_by_id(&self, id: TermId) -> &[Posting] {
        debug_assert!(!self.compressed, "postings_by_id requires the raw layout");
        &self.lists[id as usize]
    }

    /// Dense doc-number mirror of a list by interned id
    /// (`doc_ids_by_id(t)[i] == postings_by_id(t)[i].doc`), the
    /// cache-friendly navigation array for seeks and scans.
    /// Raw layout only.
    #[inline]
    pub fn doc_ids_by_id(&self, id: TermId) -> &[DocNum] {
        debug_assert!(!self.compressed, "doc_ids_by_id requires the raw layout");
        &self.doc_ids[id as usize]
    }

    /// Token positions of posting `at` of a list (title tokens first,
    /// then body tokens offset by the title length), served from the
    /// flat CSR array. Raw layout only; both layouts serve positions
    /// through [`PostingsStore::for_each_position`].
    #[inline]
    pub fn positions_by_id(&self, id: TermId, at: usize) -> &[u32] {
        debug_assert!(!self.compressed, "positions_by_id requires the raw layout");
        let off = &self.pos_offsets[id as usize];
        &self.pos_flat[id as usize][off[at] as usize..off[at + 1] as usize]
    }

    /// Block table of a list by interned id: one [`BlockSummary`]
    /// per [`BLOCK_LEN`] postings, in list order. Available in both
    /// layouts — compressed blocks align with these summaries exactly.
    #[inline]
    pub fn blocks_by_id(&self, id: TermId) -> &[BlockSummary] {
        &self.blocks[id as usize]
    }

    /// Document frequency by interned id.
    #[inline]
    pub fn doc_freq_by_id(&self, id: TermId) -> u32 {
        if self.compressed {
            self.packed[id as usize].count
        } else {
            self.lists[id as usize].len() as u32
        }
    }

    /// Decodes block `blk` of a compressed list's document ids into
    /// `out`, returning the number of postings in the block (always
    /// [`BLOCK_LEN`] except for a final partial block).
    #[inline]
    pub fn decode_docs_block(&self, id: TermId, blk: u32, out: &mut [DocNum]) -> usize {
        debug_assert!(self.compressed, "decode_docs_block requires compression");
        let pl = &self.packed[id as usize];
        let lo = pl.block_offs[blk as usize] as usize;
        let n = (pl.count as usize - blk as usize * BLOCK_LEN).min(BLOCK_LEN);
        codec::decode_block_docs(&pl.data[lo..], n, out);
        n
    }

    /// Invokes `f(at, doc)` for every posting of `id` in list order —
    /// document ids only, no term-frequency decode.
    pub fn for_each_doc(&self, id: TermId, mut f: impl FnMut(usize, DocNum)) {
        if !self.compressed {
            for (at, &d) in self.doc_ids[id as usize].iter().enumerate() {
                f(at, d);
            }
            return;
        }
        let pl = &self.packed[id as usize];
        let mut buf = [0u32; BLOCK_LEN];
        let nblocks = pl.block_offs.len() - 1;
        for blk in 0..nblocks {
            let n = self.decode_docs_block(id, blk as u32, &mut buf);
            for (i, &d) in buf[..n].iter().enumerate() {
                f(blk * BLOCK_LEN + i, d);
            }
        }
    }

    /// Invokes `f(at, doc, title_tf, body_tf)` for every posting of
    /// `id` in list order, on either layout.
    pub fn for_each_posting(&self, id: TermId, mut f: impl FnMut(usize, DocNum, u32, u32)) {
        let count = self.doc_freq_by_id(id);
        self.for_each_posting_range(id, 0, count, &mut f);
    }

    /// Invokes `f(at, doc, title_tf, body_tf)` for postings
    /// `lo..hi` (global list indices) of `id` in order, on either
    /// layout. On the compressed layout this decodes only the blocks
    /// overlapping the range, applying head/tail partial-block cuts.
    pub fn for_each_posting_range(
        &self,
        id: TermId,
        lo: u32,
        hi: u32,
        f: &mut impl FnMut(usize, DocNum, u32, u32),
    ) {
        if lo >= hi {
            return;
        }
        if !self.compressed {
            for (at, p) in self.lists[id as usize][lo as usize..hi as usize]
                .iter()
                .enumerate()
            {
                f(lo as usize + at, p.doc, p.title_tf, p.body_tf);
            }
            return;
        }
        let pl = &self.packed[id as usize];
        let mut docs = [0u32; BLOCK_LEN];
        let mut tts = [0u32; BLOCK_LEN];
        let mut bts = [0u32; BLOCK_LEN];
        let first_blk = lo as usize / BLOCK_LEN;
        let last_blk = (hi as usize - 1) / BLOCK_LEN;
        for blk in first_blk..=last_blk {
            let off = pl.block_offs[blk] as usize;
            let n = (pl.count as usize - blk * BLOCK_LEN).min(BLOCK_LEN);
            let data = &pl.data[off..];
            let doc_sec = codec::decode_block_docs(data, n, &mut docs);
            codec::decode_block_tfs(data, doc_sec, n, &mut tts, &mut bts);
            let start = (lo as usize).saturating_sub(blk * BLOCK_LEN);
            let end = n.min(hi as usize - blk * BLOCK_LEN);
            for i in start..end {
                f(blk * BLOCK_LEN + i, docs[i], tts[i], bts[i]);
            }
        }
    }

    /// Invokes `f(pos)` for each token position of posting `at` of
    /// `id`, in increasing order, on either layout.
    #[inline]
    pub fn for_each_position(&self, id: TermId, at: usize, mut f: impl FnMut(u32)) {
        if !self.compressed {
            let off = &self.pos_offsets[id as usize];
            for &p in &self.pos_flat[id as usize][off[at] as usize..off[at + 1] as usize] {
                f(p);
            }
            return;
        }
        let pl = &self.packed[id as usize];
        let lo = pl.pos_offs[at] as usize;
        let hi = pl.pos_offs[at + 1] as usize;
        codec::decode_positions(&pl.pos_data[lo..hi], f);
    }

    /// Posting list of a term (empty slice when the term is unknown).
    /// Raw layout only.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.term_id(term)
            .map(|id| self.postings_by_id(id))
            .unwrap_or(&[])
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> u32 {
        self.term_id(term).map_or(0, |id| self.doc_freq_by_id(id))
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Total tokens (title + body) over every indexed document.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Average document length in tokens (title + body).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_count as f64
        }
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.dict.len()
    }

    /// Iterates the term dictionary as `(term, id)` pairs, in arbitrary
    /// (hash) order. Snapshot readers use this to union per-segment
    /// document frequencies into collection-wide statistics; consumers
    /// that need a stable order must sort.
    pub fn terms(&self) -> impl Iterator<Item = (&str, TermId)> {
        self.dict.iter().map(|(s, &id)| (s.as_str(), id))
    }

    /// Size and estimated-footprint report over the store. The
    /// `postings_bytes`/`positions_bytes` fields report the layout
    /// actually held in memory; `raw_postings_bytes`/
    /// `raw_positions_bytes` always report what the raw layout costs
    /// for the same counts (identical in raw mode), so a compressed
    /// store carries its own raw-layout extrapolation.
    pub fn stats(&self) -> PostingsStats {
        let postings = self.total_postings;
        let positions = self.total_positions;
        let vocab = self.dict.len() as u64;
        let block_entries: u64 = self.blocks.iter().map(|b| b.len() as u64).sum();
        let raw_postings_bytes =
            postings * (std::mem::size_of::<Posting>() + std::mem::size_of::<DocNum>()) as u64;
        // The flat CSR array and its offset arrays.
        let raw_positions_bytes = positions * std::mem::size_of::<u32>() as u64
            + (postings + vocab) * std::mem::size_of::<u32>() as u64;
        let (postings_bytes, positions_bytes) = if self.compressed {
            let data: u64 = self
                .packed
                .iter()
                .map(|pl| pl.data.len() as u64 + 4 * pl.block_offs.len() as u64)
                .sum();
            let pos: u64 = self
                .packed
                .iter()
                .map(|pl| pl.pos_data.len() as u64 + 4 * pl.pos_offs.len() as u64)
                .sum();
            (data, pos)
        } else {
            (raw_postings_bytes, raw_positions_bytes)
        };
        let block_bytes = block_entries * std::mem::size_of::<BlockSummary>() as u64;
        // Dictionary footprint: the owned term strings plus the hash-map
        // entry overhead (key struct + id + control byte, approximated
        // by the entry size).
        let dict_bytes: u64 = self.dict.keys().map(|k| k.len() as u64).sum::<u64>()
            + self.dict.len() as u64
                * (std::mem::size_of::<String>() + std::mem::size_of::<TermId>()) as u64;
        PostingsStats {
            vocabulary: self.dict.len(),
            postings,
            positions,
            postings_bytes,
            positions_bytes,
            raw_postings_bytes,
            raw_positions_bytes,
            block_entries,
            block_bytes,
            dict_bytes,
        }
    }
}

/// Size report over a [`PostingsStore`] (see [`PostingsStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingsStats {
    /// Number of distinct terms.
    pub vocabulary: usize,
    /// Total postings (distinct term–document pairs).
    pub postings: u64,
    /// Total stored token positions.
    pub positions: u64,
    /// Estimated heap bytes of the posting lists as held in memory
    /// (encoded blocks + block offsets when compressed).
    pub postings_bytes: u64,
    /// Estimated heap bytes of the position arrays as held in memory
    /// (varint streams + offsets when compressed).
    pub positions_bytes: u64,
    /// What the raw (uncompressed) posting layout would cost for the
    /// same counts; equals `postings_bytes` on a raw store.
    pub raw_postings_bytes: u64,
    /// What the raw position layout would cost for the same counts;
    /// equals `positions_bytes` on a raw store.
    pub raw_positions_bytes: u64,
    /// Entries in the block tables across all lists.
    pub block_entries: u64,
    /// Estimated heap bytes of the block tables.
    pub block_bytes: u64,
    /// Estimated heap bytes of the term dictionary (strings + entries).
    pub dict_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn indexes_title_and_body_separately() {
        let mut store = PostingsStore::new();
        store.add_document(
            0,
            &terms(&["laptop", "review"]),
            &terms(&["laptop", "battery"]),
        );
        let p = &store.postings("laptop")[0];
        assert_eq!(p.title_tf, 1);
        assert_eq!(p.body_tf, 1);
        let id = store.term_id("laptop").unwrap();
        assert_eq!(store.positions_by_id(id, 0), [0, 2]);
        let p = &store.postings("battery")[0];
        assert_eq!(p.title_tf, 0);
        assert_eq!(p.body_tf, 1);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let mut store = PostingsStore::new();
        store.add_document(0, &terms(&["a", "a", "a"]), &[]);
        store.add_document(1, &terms(&["a"]), &[]);
        assert_eq!(store.doc_freq("a"), 2);
        assert_eq!(store.postings("a")[0].title_tf, 3);
    }

    #[test]
    fn unknown_terms_are_empty() {
        let store = PostingsStore::new();
        assert!(store.postings("nothing").is_empty());
        assert_eq!(store.doc_freq("nothing"), 0);
        assert_eq!(store.term_id("nothing"), None);
    }

    #[test]
    fn term_ids_are_dense_and_stable() {
        let mut store = PostingsStore::new();
        store.add_document(0, &terms(&["x"]), &terms(&["y"]));
        store.add_document(1, &terms(&["x"]), &terms(&["z"]));
        let ids: Vec<TermId> = ["x", "y", "z"]
            .iter()
            .map(|t| store.term_id(t).expect("interned"))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "ids must be distinct");
        assert!(ids
            .iter()
            .all(|&id| (id as usize) < store.vocabulary_size()));
        // String and id lookups agree.
        for t in ["x", "y", "z"] {
            let id = store.term_id(t).unwrap();
            assert_eq!(store.postings(t), store.postings_by_id(id));
            assert_eq!(store.doc_freq(t), store.doc_freq_by_id(id));
        }
    }

    #[test]
    fn collection_statistics() {
        let mut store = PostingsStore::new();
        store.add_document(0, &terms(&["x"]), &terms(&["y", "z"]));
        store.add_document(1, &terms(&["x"]), &[]);
        assert_eq!(store.doc_count(), 2);
        assert!((store.avg_doc_len() - 2.0).abs() < 1e-12);
        assert_eq!(store.vocabulary_size(), 3);
    }

    #[test]
    fn empty_store_statistics() {
        let store = PostingsStore::new();
        assert_eq!(store.doc_count(), 0);
        assert_eq!(store.avg_doc_len(), 0.0);
    }

    #[test]
    fn postings_are_in_doc_order() {
        let mut store = PostingsStore::new();
        for d in 0..5 {
            store.add_document(d, &terms(&["common"]), &[]);
        }
        let docs: Vec<u32> = store.postings("common").iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn block_table_summarizes_every_block() {
        let mut store = PostingsStore::new();
        // 150 docs → 3 blocks (64 + 64 + 22).
        for d in 0..150u32 {
            let mut title = terms(&["common"]);
            let mut body = Vec::new();
            for _ in 0..(d % 7) {
                body.push("common".to_string());
            }
            for _ in 0..(d % 11) {
                body.push("filler".to_string());
            }
            if d % 3 == 0 {
                title.push("common".to_string());
            }
            store.add_document(d, &title, &body);
        }
        let id = store.term_id("common").unwrap();
        let list = store.postings_by_id(id);
        let blocks = store.blocks_by_id(id);
        assert_eq!(blocks.len(), list.len().div_ceil(BLOCK_LEN));
        for (b, summary) in blocks.iter().enumerate() {
            let lo = b * BLOCK_LEN;
            let hi = ((b + 1) * BLOCK_LEN).min(list.len());
            let chunk = &list[lo..hi];
            assert_eq!(summary.last_doc, chunk.last().unwrap().doc);
        }
    }

    #[test]
    fn stats_count_postings_positions_and_blocks() {
        let mut store = PostingsStore::new();
        store.add_document(0, &terms(&["a", "b"]), &terms(&["a", "c"]));
        store.add_document(1, &terms(&["a"]), &[]);
        let s = store.stats();
        assert_eq!(s.vocabulary, 3);
        assert_eq!(s.postings, 4); // a×2 docs, b, c
        assert_eq!(s.positions, 5); // every token position is stored
        assert_eq!(s.block_entries, 3); // one short block per list
        assert!(s.postings_bytes > 0 && s.positions_bytes > 0 && s.block_bytes > 0);
        assert_eq!(s.raw_postings_bytes, s.postings_bytes);
        assert_eq!(s.raw_positions_bytes, s.positions_bytes);
    }

    /// Builds the same multi-block corpus into a raw and a compressed
    /// store; used by the equivalence tests below.
    fn twin_stores(docs: u32) -> (PostingsStore, PostingsStore) {
        let mut raw = PostingsStore::new();
        let mut packed = PostingsStore::new_compressed();
        for d in 0..docs {
            let mut title = terms(&["common"]);
            if d % 3 == 0 {
                title.push("sparse".to_string());
            }
            let mut body = Vec::new();
            for _ in 0..(d % 5) {
                body.push("common".to_string());
            }
            for _ in 0..(d % 2) {
                body.push("rare".to_string());
            }
            // Gaps: only index every doc for `common`; `sparse` skips.
            raw.add_document(d, &title, &body);
            packed.add_document(d, &title, &body);
        }
        packed.finish();
        (raw, packed)
    }

    #[test]
    fn compressed_store_matches_raw_iteration() {
        let (raw, packed) = twin_stores(300);
        assert!(packed.is_compressed() && !raw.is_compressed());
        assert_eq!(raw.doc_count(), packed.doc_count());
        assert_eq!(raw.avg_doc_len(), packed.avg_doc_len());
        assert_eq!(raw.vocabulary_size(), packed.vocabulary_size());
        for (term, rid) in raw.terms() {
            let pid = packed.term_id(term).expect("same vocabulary");
            assert_eq!(raw.doc_freq_by_id(rid), packed.doc_freq_by_id(pid));
            assert_eq!(raw.blocks_by_id(rid), packed.blocks_by_id(pid));
            let mut raw_rows = Vec::new();
            raw.for_each_posting(rid, |at, d, tt, bt| raw_rows.push((at, d, tt, bt)));
            let mut packed_rows = Vec::new();
            packed.for_each_posting(pid, |at, d, tt, bt| packed_rows.push((at, d, tt, bt)));
            assert_eq!(raw_rows, packed_rows);
            for at in 0..raw.doc_freq_by_id(rid) as usize {
                let mut rp = Vec::new();
                raw.for_each_position(rid, at, |p| rp.push(p));
                let mut pp = Vec::new();
                packed.for_each_position(pid, at, |p| pp.push(p));
                assert_eq!(rp, pp, "positions of {term}[{at}]");
            }
        }
    }

    #[test]
    fn for_each_posting_range_partial_blocks() {
        let (raw, packed) = twin_stores(300);
        let rid = raw.term_id("common").unwrap();
        let pid = packed.term_id("common").unwrap();
        let len = raw.doc_freq_by_id(rid);
        for (lo, hi) in [
            (0, len),
            (1, len - 1),
            (63, 65),
            (64, 128),
            (70, 71),
            (5, 5),
        ] {
            let mut raw_rows = Vec::new();
            raw.for_each_posting_range(rid, lo, hi, &mut |at, d, tt, bt| {
                raw_rows.push((at, d, tt, bt))
            });
            let mut packed_rows = Vec::new();
            packed.for_each_posting_range(pid, lo, hi, &mut |at, d, tt, bt| {
                packed_rows.push((at, d, tt, bt))
            });
            assert_eq!(raw_rows, packed_rows, "range {lo}..{hi}");
        }
    }

    #[test]
    fn compressed_stats_report_both_layouts() {
        let (raw, packed) = twin_stores(300);
        let rs = raw.stats();
        let ps = packed.stats();
        assert_eq!(rs.postings, ps.postings);
        assert_eq!(rs.positions, ps.positions);
        assert_eq!(ps.raw_postings_bytes, rs.postings_bytes);
        assert_eq!(ps.raw_positions_bytes, rs.positions_bytes);
        assert!(
            ps.postings_bytes < ps.raw_postings_bytes / 4,
            "doc/tf blocks should compress well: {} vs {}",
            ps.postings_bytes,
            ps.raw_postings_bytes
        );
        assert!(ps.positions_bytes < ps.raw_positions_bytes);
    }
}
