//! The retrieval kernel and its reusable scratch.
//!
//! This is the hot path behind every [`crate::SearchEngine::search`]
//! call. Design, next to the term-at-a-time reference scorer it
//! replaced ([`crate::query::reference`]):
//!
//! * **One dictionary probe per query term.** Terms resolve to interned
//!   [`TermId`]s up front; the scoring loops work on integer ids only.
//! * **Dense accumulation.** [`EvalMode::Pruned`] and
//!   [`EvalMode::Exhaustive`] walk each query-term occurrence's posting
//!   list once, in query-term order, adding each posting's cached
//!   impact into a dense per-document accumulator slot — the reference
//!   scorer's own float-add sequence, with no hash map and no cursor
//!   merge. Every touched document then gets a bracket `lb ≤ score ≤
//!   ub` on its final score (no proximity bonus vs. the full bonus,
//!   both through the exact static and coordination multiplies), and
//!   the pool cut τ is the `overfetch`-th largest `lb` among documents
//!   that may enter the heap, selected in one pass. A document with
//!   `ub < τ` ranks strictly below `overfetch` others and is dropped
//!   without reading its positions; every other document gets its exact
//!   score. `Exhaustive` is the same pass with τ = −∞ (see DESIGN.md §3
//!   "Dense accumulation" for the exactness argument).
//! * **Bounded top-k selection.** Candidates feed a min-heap capped at
//!   the overfetch size instead of sorting every matching document,
//!   with the exact deterministic tie-break of the reference sort
//!   (score descending, then document number ascending).
//! * **Zero-alloc steady state.** All working memory — accumulator
//!   slots, cursors, the heap, proximity merge buffers, the
//!   coordination table, and the generation-stamped host-crowding
//!   counters — lives in a reusable [`QueryScratch`]. After the first
//!   few queries have warmed its capacities, a search allocates only
//!   the returned SERP's result list: each result shares the index's
//!   strings, and its snippet is a window of the index's body text.
//! * **Generation-stamped slots.** Accumulator slots and host-crowding
//!   counters are dense arrays indexed by document number and
//!   interned host id. Instead of clearing them
//!   between queries, each slot carries the generation that last wrote
//!   it; stale slots are treated as empty.
//!
//! Every floating-point operation of a *scored* document mirrors the
//! reference scorer's sequence exactly (same additions in the same
//! order, static factors applied as two separate multiplies), and
//! pruning only discards documents that provably cannot enter the
//! overfetch pool, so both modes return byte-identical SERPs — gated by
//! the differential suite in `tests/differential_search.rs`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bm25::window_bonus;
use crate::docstore::DocFields;
use crate::index::{ScoreTable, SearchIndex};
use crate::postings::{DocNum, PostingsStore, TermId, BLOCK_LEN};
use crate::query::RankingParams;
use crate::serp::{extract_snippet, SerpResult};

/// Which evaluation strategy the kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Score every matching document (dense accumulation with no cut).
    Exhaustive,
    /// Dense accumulation with the exact pool cut: documents whose score
    /// upper bound falls strictly below the `overfetch`-th best lower
    /// bound are dropped without reading their positions. Returns
    /// byte-identical SERPs to `Exhaustive`.
    #[default]
    Pruned,
}

/// The candidate pool depth for a `k`-result SERP: the kernel keeps the
/// top `overfetch(k)` documents before host crowding trims them to `k`.
#[inline]
pub(crate) fn overfetch(k: usize) -> usize {
    (k * 4).max(k + 8)
}

/// One read view the kernel gathers candidates from: a batch index's
/// postings with this parameterization's tables, or one live segment's.
pub(crate) struct View<'a> {
    pub(crate) store: &'a PostingsStore,
    pub(crate) statics: &'a [(f64, f64)],
    pub(crate) impacts: &'a ScoreTable,
    /// Per-document liveness filter (live segments only).
    pub(crate) alive: Option<&'a [bool]>,
    /// Pre-resolved term ids for this view's dictionary (batch
    /// executor only; `None` probes the dictionary per occurrence).
    pub(crate) resolved: Option<&'a [TermId]>,
}

/// One term's navigation handle: the raw layout exposes the dense
/// doc-number mirror directly (4 bytes per entry); the compressed
/// layout exposes the list's length, which the cursor walks by decoding
/// one [`BLOCK_LEN`]-posting block at a time into its scratch buffer.
/// In neither case does navigation touch posting structs; position data
/// for scored documents comes from the store's flat CSR arrays (raw) or
/// varint streams (compressed).
#[derive(Clone, Copy)]
enum TermView<'a> {
    /// Dense doc-number mirror of the list (raw layout).
    Raw(&'a [DocNum]),
    /// Posting count of a compressed list; documents are decoded
    /// block-wise through the cursor's buffer.
    Packed(u32),
}

#[inline]
fn view(store: &PostingsStore, term: TermId) -> TermView<'_> {
    if store.is_compressed() {
        TermView::Packed(store.doc_freq_by_id(term))
    } else {
        TermView::Raw(store.doc_ids_by_id(term))
    }
}

/// One query-term occurrence's walk position in its posting list.
///
/// Duplicate query terms get one cursor each (the reference scorer
/// scores every occurrence), advancing in lockstep over the same list.
#[derive(Debug, Clone, Copy)]
struct TermCursor {
    term: TermId,
    next: u32,
    /// Document number under the cursor (`list[next].doc`), or `MAX`
    /// when the list is exhausted. Cached here so the merge's min
    /// passes read scratch memory instead of chasing into the postings.
    cur: DocNum,
    /// Block index currently decoded into `buf`, or `u32::MAX` when
    /// nothing is decoded (compressed lists only). Compressed blocks
    /// align with the block table, so a seek decodes at most the one
    /// block its target lands in.
    buf_blk: u32,
    /// Lazily decoded document ids of block `buf_blk`.
    buf: [DocNum; BLOCK_LEN],
}

/// Counters the kernel accumulates across queries on one scratch —
/// pruning effectiveness telemetry for the kernel gate, perfbench and tests.
///
/// In [`EvalMode::Pruned`] every document matching at least one query
/// term (in each live segment the query ran over, dead versions
/// included) is counted exactly once, in `docs_scored` or in
/// `candidates_pruned`; in [`EvalMode::Exhaustive`] all of them land in
/// `docs_scored`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Documents whose full score was computed (every float op of the
    /// reference path, proximity included where it applies).
    pub docs_scored: u64,
    /// Documents the dense pass's `ub < τ` cut excluded without
    /// computing their full score.
    pub candidates_pruned: u64,
    /// Times [`with_thread_scratch`] had to allocate a fresh scratch
    /// because the thread-local was already borrowed (re-entrant
    /// search). A nonzero count means some caller is silently paying
    /// allocation + warm-up on every query — the kernel gate asserts zero.
    pub scratch_fallbacks: u64,
}

impl KernelStats {
    /// Accumulates another counter set into this one — how serving
    /// workers fold per-scratch counters into service-wide telemetry.
    pub fn merge(&mut self, other: KernelStats) {
        self.docs_scored += other.docs_scored;
        self.candidates_pruned += other.candidates_pruned;
        self.scratch_fallbacks += other.scratch_fallbacks;
    }

    /// The counts added since `earlier`, a reading of the same counter
    /// set — how a caller attributes one request's work on a scratch
    /// that outlives it (the thread's shared scratch). A counter reset
    /// in between reads as zero.
    pub fn since(self, earlier: KernelStats) -> KernelStats {
        KernelStats {
            docs_scored: self.docs_scored.saturating_sub(earlier.docs_scored),
            candidates_pruned: self
                .candidates_pruned
                .saturating_sub(earlier.candidates_pruned),
            scratch_fallbacks: self
                .scratch_fallbacks
                .saturating_sub(earlier.scratch_fallbacks),
        }
    }
}

/// One document's accumulator slot in the dense pass.
#[derive(Debug, Clone, Copy, Default)]
struct AccSlot {
    /// Sum of the document's matched impacts, added in query-term order.
    text: f64,
    /// Generation that last wrote the slot; any other value reads as
    /// untouched.
    stamp: u32,
    /// Query-term occurrences (duplicates included) matching the doc.
    matched: u32,
}

/// The dense pass's buffers (see [`run_dense`]).
#[derive(Debug, Default)]
struct DenseScratch {
    /// Accumulator slots indexed by document number.
    slots: Vec<AccSlot>,
    /// Documents touched by this pass, in first-touch order.
    touched: Vec<DocNum>,
    /// Touched documents with their `(lb, ub)` final-score brackets.
    brackets: Vec<(DocNum, f64, f64)>,
    /// The lower bounds of the touched documents that may enter the
    /// heap; τ is selected from them.
    lbs: Vec<f64>,
    /// Survivors whose exact score needs their positions and whose
    /// lower bound reaches τ.
    pending: Vec<DocNum>,
    /// The other position-needing survivors, with their upper bounds.
    maybe: Vec<(DocNum, f64)>,
}

/// Reusable query workspace: every buffer the kernel needs, grown once
/// and recycled across queries. One scratch per thread (or per serving
/// worker) makes steady-state query execution allocation-free.
#[derive(Debug, Default)]
pub struct QueryScratch {
    dense: DenseScratch,
    cursors: Vec<TermCursor>,
    // Bounded selection heap: worst surviving candidate at the root.
    heap: Vec<(f64, DocNum)>,
    // Live snapshots: the union of the per-segment heaps, in
    // snapshot-global document numbers.
    pool: Vec<(f64, DocNum)>,
    // Proximity sweep buffers: (position, local term index) pairs and
    // per-term window counts.
    tagged: Vec<(u32, u32)>,
    window_counts: Vec<u32>,
    // coverage^coordination per matched-count, computed once per query.
    coord: Vec<f64>,
    // Pruning telemetry, accumulated until taken.
    stats: KernelStats,
    // Host-crowding counters indexed by interned host id, valid only
    // when the stamp matches the current generation.
    host_counts: Vec<u32>,
    host_stamp: Vec<u32>,
    generation: u32,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// The pruning counters accumulated since the last
    /// [`QueryScratch::take_stats`].
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns and resets the accumulated pruning counters.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }

    /// Advances the accumulator/crowding generation, resetting
    /// all stamps on the (once per 2^32 bumps) wrap so a stale stamp can
    /// never collide.
    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.host_stamp.fill(0);
            for slot in &mut self.dense.slots {
                slot.stamp = 0;
            }
            self.generation = 1;
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Process-wide count of [`with_thread_scratch`] re-entrancy
/// fallbacks. The per-scratch [`KernelStats::scratch_fallbacks`]
/// counter on the fresh scratch is usually dropped with it, so this
/// global is what the kernel gate asserts on and perfbench reports.
static SCRATCH_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Times [`with_thread_scratch`] fell back to a freshly allocated
/// scratch because the thread-local was already borrowed, since
/// process start. Steady-state query paths must keep this at zero
/// (asserted by the `search_kernel` example): every fallback silently
/// re-pays allocation and warm-up that the scratch design exists to
/// amortize.
pub fn scratch_fallbacks() -> u64 {
    SCRATCH_FALLBACKS.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's shared [`QueryScratch`].
///
/// [`crate::SearchEngine::search`] routes through here, so callers that
/// never manage a scratch still reuse one per thread. Falls back to a
/// fresh scratch if the thread-local is already borrowed (re-entrant
/// call from inside another search) — counted both on the fresh
/// scratch's [`KernelStats`] and in the process-wide
/// [`scratch_fallbacks`] total, so hidden scratch-reuse bugs surface
/// in telemetry instead of just costing allocations.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => {
            SCRATCH_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            let mut fresh = QueryScratch::new();
            fresh.stats.scratch_fallbacks = 1;
            f(&mut fresh)
        }
    })
}

/// `true` when `a` ranks strictly before `b` in the final SERP order:
/// score descending, then document number ascending. This is a total
/// order (doc numbers are unique), which is what makes heap selection
/// deterministic and byte-identical to the reference full sort.
#[inline]
fn ranks_before(a: (f64, DocNum), b: (f64, DocNum)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

/// Pushes onto a min-heap bounded at `cap` (root = worst survivor).
fn heap_push(heap: &mut Vec<(f64, DocNum)>, cap: usize, entry: (f64, DocNum)) {
    if heap.len() < cap {
        heap.push(entry);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if ranks_before(heap[parent], heap[i]) {
                heap.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    } else if ranks_before(entry, heap[0]) {
        heap[0] = entry;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < heap.len() && ranks_before(heap[worst], heap[l]) {
                worst = l;
            }
            if r < heap.len() && ranks_before(heap[worst], heap[r]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            heap.swap(i, worst);
            i = worst;
        }
    }
}

/// Minimal window span covering one occurrence of each of `k` local
/// terms, over `tagged` (position, local term index) pairs sorted
/// ascending. Identical sweep to [`crate::bm25::proximity_bonus`], but
/// running over reusable buffers instead of fresh allocations.
fn min_cover_span(tagged: &[(u32, u32)], counts: &mut Vec<u32>, k: usize) -> u32 {
    counts.clear();
    counts.resize(k, 0);
    let mut covered = 0usize;
    let mut left = 0usize;
    let mut best_span = u32::MAX;
    for right in 0..tagged.len() {
        let t = tagged[right].1 as usize;
        if counts[t] == 0 {
            covered += 1;
        }
        counts[t] += 1;
        while covered == k {
            let span = tagged[right].0 - tagged[left].0;
            best_span = best_span.min(span);
            let lt = tagged[left].1 as usize;
            counts[lt] -= 1;
            if counts[lt] == 0 {
                covered -= 1;
            }
            left += 1;
        }
    }
    best_span
}

/// The immutable context every scoring call needs.
struct ScoreCtx<'a> {
    store: &'a PostingsStore,
    /// Precomputed per-posting BM25 contributions.
    impacts: &'a ScoreTable,
    params: &'a RankingParams,
    statics: &'a [(f64, f64)],
    /// `coverage^coordination` per matched count (see [`gather`]).
    coord: &'a [f64],
    /// Whether position lists are worth collecting: false for
    /// single-cursor queries and proximity-disabled parameterizations,
    /// where the bonus is identically zero (adding `+0.0` to a strictly
    /// positive score is a bitwise no-op, so skipping the sweep cannot
    /// change output bytes).
    collect_positions: bool,
    /// Per-document liveness filter (live-index segments only; `None`
    /// for batch indexes, which contain no dead documents). A dead
    /// document — shadowed by a newer version in a younger segment, or
    /// tombstoned — is still scored or pruned like any other (counting
    /// it keeps the read-amplification telemetry honest) but never
    /// enters the candidate heap, so it can neither surface in a SERP
    /// nor raise the pruning threshold.
    alive: Option<&'a [bool]>,
}

impl ScoreCtx<'_> {
    /// Whether `doc` may enter the candidate heap.
    #[inline]
    fn is_live(&self, doc: DocNum) -> bool {
        self.alive.is_none_or(|a| a[doc as usize])
    }

    /// Turns a text score (BM25 sum plus any proximity bonus) into the
    /// final score: static factors as two multiplies (authority, then
    /// freshness), then coordination — the reference scorer's order.
    #[inline]
    fn blend(&self, text: f64, doc: DocNum, matched: u32) -> f64 {
        let (auth, fresh) = self.statics[doc as usize];
        let mut score = text * auth;
        score *= fresh;
        if self.params.coordination > 0.0 {
            score *= self.coord[matched as usize];
        }
        score
    }
}

/// Postings scanned linearly by [`seek`] before falling back to block
/// skipping + binary search. Survivors usually advance by a handful of
/// postings, where a short scan beats a `partition_point`.
const SEEK_PROBE: usize = 8;

/// Lands `c` on posting index `i`, refreshing the cached doc number.
/// `docs` is the list's dense doc-number mirror.
#[inline]
fn land(c: &mut TermCursor, docs: &[DocNum], i: usize) {
    c.next = i as u32;
    c.cur = docs.get(i).copied().unwrap_or(DocNum::MAX);
}

/// Parks `c` one past the last of a compressed list's `len` postings.
#[inline]
fn exhaust(c: &mut TermCursor, len: u32) {
    c.next = len;
    c.cur = DocNum::MAX;
}

/// Lands `c` on posting index `i` of a compressed list of `len`
/// postings, decoding the destination block into the cursor's buffer
/// if it is not already there.
#[inline]
fn land_packed(store: &PostingsStore, c: &mut TermCursor, len: u32, i: usize) {
    if i >= len as usize {
        exhaust(c, len);
        return;
    }
    let blk = (i / BLOCK_LEN) as u32;
    if blk != c.buf_blk {
        c.buf_blk = blk;
        store.decode_docs_block(c.term, blk, &mut c.buf);
    }
    c.next = i as u32;
    c.cur = c.buf[i % BLOCK_LEN];
}

/// Lands `c` on posting index `i` through either layout's view.
#[inline]
fn land_view(store: &PostingsStore, c: &mut TermCursor, i: usize) {
    match view(store, c.term) {
        TermView::Raw(docs) => land(c, docs, i),
        TermView::Packed(len) => land_packed(store, c, len, i),
    }
}

/// Advances `c` to its first posting with doc ≥ `target`: a short
/// linear probe for small gaps, then whole-block skips via the block
/// table's `last_doc` pointers and a binary search only inside the
/// destination block. On the raw layout all memory touched is the
/// 4-byte-per-posting doc mirror (plus the block table) — never the
/// posting structs. On the compressed layout the probe stays inside the
/// currently decoded block, the skip walks the same block table
/// (compressed blocks align with it exactly), and at most one
/// destination block is decoded.
fn seek(store: &PostingsStore, c: &mut TermCursor, target: DocNum) {
    if c.cur >= target {
        return;
    }
    // `c.cur < target ≤ MAX` implies the cursor sits on a real posting.
    match view(store, c.term) {
        TermView::Raw(docs) => {
            let mut i = c.next as usize + 1;
            let probe_end = (i + SEEK_PROBE).min(docs.len());
            while i < probe_end && docs[i] < target {
                i += 1;
            }
            if i < probe_end || i == docs.len() {
                land(c, docs, i);
                return;
            }
            let blocks = store.blocks_by_id(c.term);
            let mut blk = i / BLOCK_LEN;
            while blocks[blk].last_doc < target {
                blk += 1;
                if blk == blocks.len() {
                    land(c, docs, docs.len());
                    return;
                }
            }
            let start = (blk * BLOCK_LEN).max(i);
            let end = ((blk + 1) * BLOCK_LEN).min(docs.len());
            let within = docs[start..end].partition_point(|&d| d < target);
            land(c, docs, start + within);
        }
        TermView::Packed(len) => seek_packed(store, c, len, target),
    }
}

/// The compressed-layout seek body: probe inside the decoded block,
/// then walk the block skip pointers and decode only the destination
/// block.
fn seek_packed(store: &PostingsStore, c: &mut TermCursor, len: u32, target: DocNum) {
    // The cursor sits on a real decoded posting (`c.cur < target`), so
    // `buf_blk` is valid and `g` starts inside or one past its block.
    let n_all = len as usize;
    let mut g = c.next as usize + 1;
    let blk_end = ((c.buf_blk as usize + 1) * BLOCK_LEN).min(n_all);
    let probe_end = (g + SEEK_PROBE).min(blk_end);
    while g < probe_end && c.buf[g % BLOCK_LEN] < target {
        g += 1;
    }
    if g < probe_end {
        c.next = g as u32;
        c.cur = c.buf[g % BLOCK_LEN];
        return;
    }
    if g >= n_all {
        exhaust(c, len);
        return;
    }
    // Walk the skip pointers; compressed blocks align with them.
    let blocks = store.blocks_by_id(c.term);
    let mut blk = g / BLOCK_LEN;
    while blocks[blk].last_doc < target {
        blk += 1;
        if blk == blocks.len() {
            exhaust(c, len);
            return;
        }
    }
    if blk as u32 != c.buf_blk {
        c.buf_blk = blk as u32;
        store.decode_docs_block(c.term, blk as u32, &mut c.buf);
    }
    let first = blk * BLOCK_LEN;
    let end = (first + BLOCK_LEN).min(n_all);
    let start = first.max(g);
    let within = c.buf[start - first..end - first].partition_point(|&d| d < target);
    let found = start + within;
    if found >= n_all {
        exhaust(c, len);
    } else {
        c.next = found as u32;
        c.cur = c.buf[found - first];
    }
}

/// Adds the proximity bonus over the `tagged` positions of `matched`
/// terms to a BM25 sum (a matched posting always carries at least one
/// position, so no empty-slice guard is needed).
fn add_proximity(
    ctx: &ScoreCtx<'_>,
    mut text: f64,
    tagged: &mut [(u32, u32)],
    window_counts: &mut Vec<u32>,
    matched: u32,
) -> f64 {
    if matched >= 2 {
        tagged.sort_unstable();
        let span = min_cover_span(tagged, window_counts, matched as usize);
        if span != u32::MAX {
            text += window_bonus(span, matched as usize, ctx.params.proximity_bonus);
        }
    }
    text
}

/// The exact score of a dense-pass survivor: seeks the cursors forward
/// to `doc` until the slot's matches are found, collects the matched
/// postings' positions in query-term order and adds the proximity bonus
/// to the accumulated sum — the reference scorer's float sequence, with
/// the BM25 sum read from the slot.
fn proximity_score(
    ctx: &ScoreCtx<'_>,
    doc: DocNum,
    slot: AccSlot,
    cursors: &mut [TermCursor],
    tagged: &mut Vec<(u32, u32)>,
    window_counts: &mut Vec<u32>,
) -> f64 {
    tagged.clear();
    let mut matched = 0u32;
    // Cursors past the slot's last match cannot hold `doc`; they stay
    // put and catch up on a later seek.
    for c in cursors.iter_mut() {
        if matched == slot.matched {
            break;
        }
        seek(ctx.store, c, doc);
        if c.cur == doc {
            ctx.store
                .for_each_position(c.term, c.next as usize, |pos| tagged.push((pos, matched)));
            matched += 1;
        }
    }
    debug_assert_eq!(matched, slot.matched);
    let text = add_proximity(ctx, slot.text, tagged, window_counts, matched);
    ctx.blend(text, doc, matched)
}

/// Adds one cursor's view of its posting list into the accumulator:
/// `slots[d]` gains the posting's cached impact and one match,
/// starting from `0.0` on first touch (recorded in `touched`).
fn accumulate(
    ctx: &ScoreCtx<'_>,
    c: &TermCursor,
    stamp: u32,
    slots: &mut [AccSlot],
    touched: &mut Vec<DocNum>,
) {
    let mut add = |d: DocNum, impact: f64| {
        let s = &mut slots[d as usize];
        if s.stamp != stamp {
            *s = AccSlot {
                text: 0.0,
                stamp,
                matched: 0,
            };
            touched.push(d);
        }
        s.text += impact;
        s.matched += 1;
    };
    let term = c.term;
    match view(ctx.store, term) {
        TermView::Raw(docs) => {
            // Impact tables are dictionary-packed only for compressed
            // postings, so a raw list always has a raw impact slice.
            let v = ctx
                .impacts
                .raw_list(term)
                .expect("raw postings carry raw impacts");
            for (&d, &x) in docs.iter().zip(v) {
                add(d, x);
            }
        }
        TermView::Packed(len) => {
            let mut buf = [0; BLOCK_LEN];
            let mut imp = [0.0; BLOCK_LEN];
            for first in (0..len as usize).step_by(BLOCK_LEN) {
                let blk = (first / BLOCK_LEN) as u32;
                let n = ctx.store.decode_docs_block(term, blk, &mut buf);
                let imp = &mut imp[..n];
                ctx.impacts.impacts_into(term, first, imp);
                for (&d, &x) in buf[..n].iter().zip(imp.iter()) {
                    add(d, x);
                }
            }
        }
    }
}

/// Dense term-at-a-time evaluation — the [`EvalMode::Pruned`] kernel,
/// and with `prune = false` the [`EvalMode::Exhaustive`] one.
///
/// 1. **Accumulate.** Each cursor's list is walked once, in query-term
///    order (duplicates included), so a document's slot sums its
///    impacts in exactly the reference scorer's sequence (each cached
///    impact is the value the reference recomputes, see
///    [`ScoreTable`]).
/// 2. **Bracket.** A touched document's final score is bracketed by
///    blending its sum with no proximity bonus and with the full one
///    (`window_bonus` lies between `0` and `proximity_bonus`, IEEE
///    addition and multiplication by a constant are monotone, so the
///    bracket holds bit for bit). When the bonus cannot apply — one
///    match, or positions not collected — both ends are the exact
///    score.
/// 3. **Cut.** τ is the `overfetch`-th largest lower bound among
///    documents that may enter the heap (tightened by the threshold
///    `theta` carried in from earlier live segments), selected once
///    over all of them. A document with `ub < τ` ranks strictly below
///    `overfetch` others and is dropped.
/// 4. **Score.** Exact survivors go straight to the heap; the rest get
///    their positions read by [`proximity_score`], cursors walking
///    forward in document order — first the survivors whose `lb`
///    reaches τ, which fill the heap, then the others, each dropped if
///    its `ub` falls strictly below the full heap's root by then.
///
/// `theta` is raised to every bound the pass proves `overfetch` live
/// documents reach (the final τ, the full heap's root), so a later
/// segment of the same query may prune against it.
#[allow(clippy::too_many_arguments)]
fn run_dense(
    ctx: &ScoreCtx<'_>,
    stamp: u32,
    dense: &mut DenseScratch,
    cursors: &mut [TermCursor],
    heap: &mut Vec<(f64, DocNum)>,
    overfetch: usize,
    tagged: &mut Vec<(u32, u32)>,
    window_counts: &mut Vec<u32>,
    prune: bool,
    stats: &mut KernelStats,
    theta: &mut f64,
) {
    let DenseScratch {
        slots,
        touched,
        brackets,
        lbs,
        pending,
        maybe,
    } = dense;
    let span = ctx.store.doc_count() as usize;
    if slots.len() < span {
        slots.resize(span, AccSlot::default());
    }
    touched.clear();
    for c in cursors.iter() {
        accumulate(ctx, c, stamp, slots, touched);
    }

    let bonus = ctx.params.proximity_bonus;
    let (low, high) = (bonus.min(0.0), bonus.max(0.0));
    brackets.clear();
    lbs.clear();
    for &d in touched.iter() {
        let s = slots[d as usize];
        let (lb, ub) = if ctx.collect_positions && s.matched >= 2 {
            let x = ctx.blend(s.text + low, d, s.matched);
            let y = ctx.blend(s.text + high, d, s.matched);
            (x.min(y), x.max(y))
        } else {
            let exact = ctx.blend(s.text, d, s.matched);
            (exact, exact)
        };
        if prune && ctx.is_live(d) {
            lbs.push(lb);
        }
        brackets.push((d, lb, ub));
    }
    // τ: the carried threshold, raised to the `overfetch`-th largest
    // live lower bound when there are that many.
    let mut tau = if prune { *theta } else { f64::NEG_INFINITY };
    if lbs.len() >= overfetch {
        let (_, &mut nth, _) = lbs.select_nth_unstable_by(overfetch - 1, |a, b| b.total_cmp(a));
        tau = tau.max(nth);
        *theta = theta.max(nth);
    }

    pending.clear();
    maybe.clear();
    for &(d, lb, ub) in brackets.iter() {
        if ub < tau {
            stats.candidates_pruned += 1;
        } else if ctx.collect_positions && slots[d as usize].matched >= 2 {
            if lb >= tau {
                pending.push(d);
            } else {
                maybe.push((d, ub));
            }
        } else {
            if ctx.is_live(d) {
                heap_push(heap, overfetch, (lb, d));
            }
            stats.docs_scored += 1;
        }
    }
    pending.sort_unstable();
    for &d in pending.iter() {
        let slot = slots[d as usize];
        let score = proximity_score(ctx, d, slot, cursors, tagged, window_counts);
        if ctx.is_live(d) {
            heap_push(heap, overfetch, (score, d));
        }
        stats.docs_scored += 1;
    }
    if !maybe.is_empty() {
        maybe.sort_unstable_by_key(|&(d, _)| d);
        for c in cursors.iter_mut() {
            land_view(ctx.store, c, 0);
        }
        for &(d, ub) in maybe.iter() {
            if heap.len() == overfetch && ub < heap[0].0 {
                stats.candidates_pruned += 1;
                continue;
            }
            let slot = slots[d as usize];
            let score = proximity_score(ctx, d, slot, cursors, tagged, window_counts);
            if ctx.is_live(d) {
                heap_push(heap, overfetch, (score, d));
            }
            stats.docs_scored += 1;
        }
    }
    if heap.len() == overfetch {
        *theta = theta.max(heap[0].0);
    }
}

/// Fills the scratch's candidate heap with a view's top `overfetch`
/// documents: cursor setup, coordination table, then the dense pass.
/// The heap is left unsorted; [`finalize`] orders it.
fn gather<T: AsRef<str>>(
    view: &View<'_>,
    params: &RankingParams,
    scratch: &mut QueryScratch,
    terms: &[T],
    overfetch: usize,
    mode: EvalMode,
    theta: &mut f64,
) {
    let store = view.store;
    // One generation per gather: the dense pass's accumulator slots are
    // valid for this gather only. (Bumping the shared generation more
    // often only invalidates stale stamps, never falsely validates
    // them.)
    scratch.bump_generation();
    scratch.heap.clear();
    // Resolve each query-term occurrence to a cursor: one dictionary
    // probe per term — or zero, when the caller already interned the
    // batch's terms (`resolved` holds the ids of exactly the
    // occurrences present in this store, in query-term order, so the
    // cursor sequence is identical either way).
    scratch.cursors.clear();
    let push_cursor = |scratch: &mut QueryScratch, id: TermId| {
        let mut c = TermCursor {
            term: id,
            next: 0,
            cur: DocNum::MAX,
            buf_blk: u32::MAX,
            buf: [0; BLOCK_LEN],
        };
        land_view(store, &mut c, 0);
        scratch.cursors.push(c);
    };
    match view.resolved {
        Some(ids) => {
            for &id in ids {
                push_cursor(scratch, id);
            }
        }
        None => {
            for term in terms {
                if let Some(id) = store.term_id(term.as_ref()) {
                    push_cursor(scratch, id);
                }
            }
        }
    }
    if scratch.cursors.is_empty() {
        return;
    }

    // Coordination table: coverage^coordination for every possible
    // matched count — powf leaves the per-document loop.
    scratch.coord.clear();
    scratch.coord.push(0.0); // matched = 0 never scores
    if params.coordination > 0.0 {
        let n = terms.len() as f64;
        for m in 1..=terms.len() {
            scratch.coord.push((m as f64 / n).powf(params.coordination));
        }
    } else {
        scratch.coord.resize(terms.len() + 1, 1.0);
    }

    let stamp = scratch.generation;
    let QueryScratch {
        dense,
        cursors,
        heap,
        tagged,
        window_counts,
        coord,
        stats,
        ..
    } = &mut *scratch;

    let ctx = ScoreCtx {
        store,
        impacts: view.impacts,
        params,
        statics: view.statics,
        coord,
        collect_positions: cursors.len() >= 2 && params.proximity_bonus != 0.0,
        alive: view.alive,
    };
    run_dense(
        &ctx,
        stamp,
        dense,
        cursors,
        heap,
        overfetch,
        tagged,
        window_counts,
        mode == EvalMode::Pruned,
        stats,
        theta,
    );
}

/// The document metadata [`finalize`] reads, in the document numbers
/// of the candidates it orders: the batch index, or a live snapshot in
/// snapshot-global numbers.
pub(crate) trait DocSource {
    /// Number of distinct hosts (host ids are dense below this).
    fn host_count(&self) -> u32;

    /// A document's interned host id, read for every walked candidate.
    fn host_id(&self, doc: DocNum) -> u32;

    /// A document's full metadata, read only for crowding survivors.
    fn fields(&self, doc: DocNum) -> DocFields<'_>;
}

impl DocSource for SearchIndex {
    fn host_count(&self) -> u32 {
        SearchIndex::host_count(self)
    }

    fn host_id(&self, doc: DocNum) -> u32 {
        SearchIndex::host_id(self, doc)
    }

    fn fields(&self, doc: DocNum) -> DocFields<'_> {
        self.doc_fields(doc)
    }
}

/// Orders the candidates in the scratch's heap, truncates them to the
/// overfetch pool, applies host crowding and builds the survivors'
/// results. Crowding reads only each walked candidate's host id; the
/// survivors' field views lend the store's shared strings (the
/// compressed layout materializes url and title for them alone), and
/// each snippet is a window of the store's shared body text. A live
/// snapshot's union of segment pools may hold up to `segments ×
/// overfetch` entries; the truncation is what restores the reference
/// pool semantics.
fn finalize<T: AsRef<str>>(
    params: &RankingParams,
    scratch: &mut QueryScratch,
    terms: &[T],
    k: usize,
    docs: &impl DocSource,
) -> Vec<SerpResult> {
    // Order the surviving candidates: same comparator the reference
    // full sort uses.
    scratch
        .heap
        .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scratch.heap.truncate(overfetch(k));

    // Host crowding + truncation fused: walk the ranked candidates,
    // dropping any beyond `max_per_host` for its host, stopping at `k`.
    // Snippets are extracted only for documents that make the cut.
    scratch.bump_generation();
    let generation = scratch.generation;
    let host_n = docs.host_count() as usize;
    if scratch.host_stamp.len() < host_n {
        scratch.host_stamp.resize(host_n, 0);
        scratch.host_counts.resize(host_n, 0);
    }
    let mut results = Vec::with_capacity(k.min(scratch.heap.len()));
    for &(score, doc) in scratch.heap.iter() {
        if params.max_per_host > 0 {
            let h = docs.host_id(doc) as usize;
            if scratch.host_stamp[h] != generation {
                scratch.host_stamp[h] = generation;
                scratch.host_counts[h] = 0;
            }
            scratch.host_counts[h] += 1;
            if scratch.host_counts[h] as usize > params.max_per_host {
                continue;
            }
        }
        let meta = docs.fields(doc);
        let body = meta.body_start..meta.body_start + meta.body.len();
        results.push(SerpResult {
            page: meta.page,
            url: meta.url.into_owned(),
            host: Arc::clone(meta.host),
            score,
            title: meta.title.into_owned(),
            snippet: extract_snippet(meta.text, body, terms, params.snippet_width),
            source_type: meta.source_type,
            age_days: meta.age_days,
        });
        if results.len() == k {
            break;
        }
    }
    results
}

/// Executes one query over a batch index and returns the final,
/// host-crowded, truncated result list (snippets extracted only for
/// the survivors). `resolved` carries the batch executor's
/// pre-resolved term ids — one dictionary probe per distinct term
/// *per batch* instead of per query; they are the ids of exactly the
/// occurrences present in the index, in query-term order, so the
/// cursor sequence — and therefore every scored float — is the same
/// either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<T: AsRef<str>>(
    index: &SearchIndex,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[T],
    resolved: Option<&[TermId]>,
    k: usize,
    mode: EvalMode,
) -> Vec<SerpResult> {
    let view = View {
        store: index.postings(),
        statics,
        impacts,
        alive: None,
        resolved,
    };
    let mut theta = f64::NEG_INFINITY;
    gather(
        &view,
        params,
        scratch,
        terms,
        overfetch(k),
        mode,
        &mut theta,
    );
    finalize(params, scratch, terms, k, index)
}

/// One live-index segment's read view for a snapshot query: its own
/// postings store, score/static tables built against the
/// *snapshot-global* collection statistics and the per-local-doc
/// liveness bitmap, plus the map from segment-local document numbers
/// to snapshot-global ones (ascending — documents within a segment are
/// stored in page-id order, the same order the global numbering uses).
pub(crate) struct SegmentRun<'a> {
    pub(crate) view: View<'a>,
    pub(crate) global_of: &'a [DocNum],
}

/// Executes one query over a live-index snapshot: the kernel runs per
/// segment, candidates are remapped to snapshot-global document
/// numbers, and the union goes through the same [`finalize`] as a
/// batch index, with metadata read from `docs`.
///
/// Exactness against a batch build of the same live document set
/// (DESIGN.md §3 "Live index" gives the full argument):
///
/// * within a segment, local document order is monotone with the
///   global page-id order, so a segment's bounded heap — tie-broken by
///   local doc number — holds exactly its live documents' global
///   top-`overfetch` prefix; the union over segments is a superset of
///   the global overfetch pool, and the sort + truncate restores it
///   exactly;
/// * each segment's impact/static tables are built against the
///   *snapshot-global* statistics (live doc count, exact integer token
///   total, per-term union document frequencies), so a live document's
///   score is computed by the same float ops, on the same inputs, in
///   the same order as in the batch index;
/// * dead documents (shadowed or tombstoned) are filtered by the
///   segment's `alive` bitmap at the heap boundary — they are scored
///   (read amplification the telemetry reports honestly) but can never
///   enter a pool or raise a threshold.
///
/// In [`EvalMode::Pruned`] a threshold θ is carried across the
/// segments: a raised θ proves `overfetch` live documents score at
/// least that much, so later segments may prune documents strictly
/// below it without changing the union's top `overfetch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_live(
    params: &RankingParams,
    segments: &[SegmentRun<'_>],
    docs: &impl DocSource,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    mode: EvalMode,
) -> Vec<SerpResult> {
    let overfetch = overfetch(k);
    let mut theta = f64::NEG_INFINITY;
    scratch.pool.clear();
    for seg in segments {
        gather(
            &seg.view, params, scratch, terms, overfetch, mode, &mut theta,
        );
        let QueryScratch { heap, pool, .. } = &mut *scratch;
        pool.extend(
            heap.iter()
                .map(|&(score, local)| (score, seg.global_of[local as usize])),
        );
    }
    std::mem::swap(&mut scratch.heap, &mut scratch.pool);
    finalize(params, scratch, terms, k, docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{World, WorldConfig};

    fn drain_sorted(mut heap: Vec<(f64, DocNum)>) -> Vec<(f64, DocNum)> {
        heap.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        heap
    }

    #[test]
    fn heap_selects_top_k_like_a_full_sort() {
        // Deterministic pseudo-random scores with forced ties.
        let mut entries: Vec<(f64, DocNum)> = Vec::new();
        let mut x: u64 = 0x1234_5678;
        for doc in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let score = ((x >> 33) % 50) as f64 / 10.0; // many collisions
            entries.push((score, doc));
        }
        for cap in [1usize, 7, 48, 500, 1000] {
            let mut heap = Vec::new();
            for &e in &entries {
                heap_push(&mut heap, cap, e);
            }
            let got = drain_sorted(heap);
            let mut want = entries.clone();
            want.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            want.truncate(cap);
            assert_eq!(got, want, "cap {cap}");
        }
    }

    #[test]
    fn tie_break_equal_scores_orders_by_doc() {
        // All scores equal: selection must keep the lowest doc numbers,
        // in ascending doc order.
        let mut heap = Vec::new();
        for doc in [9u32, 3, 7, 1, 5, 8, 2] {
            heap_push(&mut heap, 3, (1.5, doc));
        }
        let got = drain_sorted(heap);
        assert_eq!(got, vec![(1.5, 1), (1.5, 2), (1.5, 3)]);
        // Mixed: a higher score beats any doc-number tie-break.
        let mut heap = Vec::new();
        for &(s, d) in &[(1.0, 4u32), (2.0, 9), (1.0, 1), (2.0, 3)] {
            heap_push(&mut heap, 3, (s, d));
        }
        let got = drain_sorted(heap);
        assert_eq!(got, vec![(2.0, 3), (2.0, 9), (1.0, 1)]);
    }

    #[test]
    fn min_cover_span_matches_reference_sweep() {
        // Same example as bm25::proximity_finds_best_window_among_many:
        // term 0 at {0, 100}, term 1 at {101} → best span 1.
        let mut tagged = vec![(0u32, 0u32), (100, 0), (101, 1)];
        tagged.sort_unstable();
        let mut counts = Vec::new();
        assert_eq!(min_cover_span(&tagged, &mut counts, 2), 1);
        // Single term never covers k = 2.
        let tagged = vec![(5u32, 0u32), (9, 0)];
        assert_eq!(min_cover_span(&tagged, &mut counts, 2), u32::MAX);
    }

    #[test]
    fn reentrant_thread_scratch_fallback_is_counted() {
        let before = scratch_fallbacks();
        with_thread_scratch(|outer| {
            // The thread-local is borrowed: the nested call must fall
            // back to a fresh scratch, mark it, and bump the global.
            with_thread_scratch(|inner| {
                assert_eq!(inner.stats().scratch_fallbacks, 1);
            });
            assert_eq!(outer.stats().scratch_fallbacks, 0);
        });
        assert!(
            scratch_fallbacks() > before,
            "global fallback counter did not advance"
        );
        // A non-re-entrant call never counts a fallback.
        let after = scratch_fallbacks();
        with_thread_scratch(|s| assert_eq!(s.stats().scratch_fallbacks, 0));
        assert_eq!(scratch_fallbacks(), after);
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let mut scratch = QueryScratch::new();
        scratch.host_stamp = vec![7, 7, 7];
        scratch.generation = u32::MAX;
        scratch.bump_generation();
        assert_eq!(scratch.generation, 1);
        assert!(scratch.host_stamp.iter().all(|&s| s == 0));
    }

    #[test]
    fn seek_lands_on_first_doc_at_or_after_target() {
        let world = World::generate(&WorldConfig::small(), 7);
        let index = SearchIndex::build(&world);
        let packed_index = SearchIndex::build_compressed(&world);
        for store in [index.postings(), packed_index.postings()] {
            let id = store.term_id("best").expect("common term indexed");
            let len = store.doc_freq_by_id(id) as usize;
            let mut docs = Vec::with_capacity(len);
            store.for_each_doc(id, |_, d| docs.push(d));
            assert!(len > BLOCK_LEN, "need a multi-block list");
            let probe = |start: u32, target: DocNum| {
                let mut c = TermCursor {
                    term: id,
                    next: 0,
                    cur: DocNum::MAX,
                    buf_blk: u32::MAX,
                    buf: [0; BLOCK_LEN],
                };
                land_view(store, &mut c, start as usize);
                seek(store, &mut c, target);
                c.next as usize
            };
            // Every posting is findable from the start of the list.
            for (i, &d) in docs.iter().enumerate().step_by(7) {
                let at = probe(0, d);
                assert_eq!(at, i, "seek({d}) landed on {at}");
            }
            // A target between two postings lands on the later one; a
            // target past the end exhausts the cursor.
            let gap_target = docs[len - 1];
            assert_eq!(probe(0, gap_target + 1), len);
            // Seeking backwards (target already passed) never moves.
            assert_eq!(probe(5, docs[2]), 5);
        }
    }

    #[test]
    fn pruned_mode_scores_fewer_documents_than_exhaustive() {
        use crate::query::{RankingParams, SearchEngine};

        let world = World::generate(&WorldConfig::small(), 7);
        let engine = SearchEngine::build(&world, RankingParams::google());
        let mut scratch = QueryScratch::new();
        let queries = [
            "best laptops for students",
            "most reliable SUVs 2025",
            "best smartphones camera battery",
        ];
        for q in queries {
            let _ = engine.search_with_mode(&mut scratch, q, 10, EvalMode::Pruned);
        }
        let pruned = scratch.take_stats();
        assert_eq!(scratch.stats(), KernelStats::default(), "take resets");
        for q in queries {
            let _ = engine.search_with_mode(&mut scratch, q, 10, EvalMode::Exhaustive);
        }
        let exhaustive = scratch.take_stats();
        assert!(pruned.docs_scored > 0);
        assert_eq!(exhaustive.candidates_pruned, 0, "exhaustive never prunes");
        assert!(
            pruned.docs_scored < exhaustive.docs_scored,
            "pruning never skipped a document: pruned {pruned:?} vs {exhaustive:?}"
        );
    }

    #[test]
    fn single_term_query_prunes_below_the_cut() {
        use crate::query::{RankingParams, SearchEngine};

        let world = World::generate(&WorldConfig::small(), 7);
        let engine = SearchEngine::build(&world, RankingParams::google());
        let mut scratch = QueryScratch::new();
        // One cursor: every score is exact from the accumulator, so
        // every document below the cut shows up in candidates_pruned.
        let _ = engine.search_with_mode(&mut scratch, "best", 5, EvalMode::Pruned);
        let pruned = scratch.take_stats();
        let _ = engine.search_with_mode(&mut scratch, "best", 5, EvalMode::Exhaustive);
        let exhaustive = scratch.take_stats();
        assert!(
            pruned.docs_scored < exhaustive.docs_scored,
            "single-term pruning scored everything: {pruned:?} vs {exhaustive:?}"
        );
        assert!(pruned.candidates_pruned > 0);
    }

    /// Every document matching at least one query term is counted
    /// exactly once — scored or pruned in `Pruned`, scored in
    /// `Exhaustive` — on both layouts and across the segments of a live
    /// snapshot (dead versions included), for duplicate-term,
    /// single-term, 70-term and unmatched queries at several pool
    /// depths.
    #[test]
    fn every_matching_document_is_scored_or_pruned_once() {
        use crate::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveSearcher};
        use crate::query::{RankingParams, SearchEngine};
        use shift_textkit::analyze;
        use std::collections::BTreeSet;
        use std::sync::Arc;

        /// Runs every query at several depths in both modes and checks
        /// the counters against the matching documents of `stores`.
        fn check(
            stores: &[&PostingsStore],
            search: impl Fn(&mut QueryScratch, &str, usize, EvalMode),
            queries: &[&str],
        ) {
            let mut scratch = QueryScratch::new();
            for &q in queries {
                let matching: u64 = stores
                    .iter()
                    .map(|store| {
                        let mut docs = BTreeSet::new();
                        for term in analyze(q) {
                            if let Some(id) = store.term_id(&term) {
                                store.for_each_doc(id, |_, d| {
                                    docs.insert(d);
                                });
                            }
                        }
                        docs.len() as u64
                    })
                    .sum();
                for k in [1usize, 10, 60] {
                    search(&mut scratch, q, k, EvalMode::Pruned);
                    let p = scratch.take_stats();
                    assert_eq!(
                        p.docs_scored + p.candidates_pruned,
                        matching,
                        "{q:.40} k={k}: {p:?}"
                    );
                    search(&mut scratch, q, k, EvalMode::Exhaustive);
                    let e = scratch.take_stats();
                    assert_eq!(
                        (e.docs_scored, e.candidates_pruned),
                        (matching, 0),
                        "{q:.40} k={k}"
                    );
                }
            }
        }

        let world = World::generate(&WorldConfig::small(), 7);
        let params = RankingParams::ai_retrieval();
        let raw = SearchEngine::build(&world, params.clone());
        let packed = SearchEngine::build_compressed(&world, params.clone());

        // A live snapshot of the same pages in two flushed segments and
        // a memtable run, with rewritten (shadowed) and deleted
        // (tombstoned) pages.
        let pages = world.pages();
        let mut live = LiveIndex::new(LiveIndexConfig::standard(7));
        for page in &pages[..pages.len() / 2] {
            live.upsert(LiveDoc::from_page(&world, page));
        }
        live.flush();
        for page in &pages[pages.len() / 2..] {
            live.upsert(LiveDoc::from_page(&world, page));
        }
        live.flush();
        for page in pages.iter().step_by(5) {
            live.upsert(LiveDoc::from_page(&world, page));
        }
        for page in pages.iter().skip(1).step_by(11) {
            live.delete(page.id);
        }
        let snapshot = live.snapshot();
        assert!(snapshot.segment_count() >= 2);
        assert!(snapshot.stored_docs() > snapshot.doc_count() as usize);
        let searcher = LiveSearcher::new(Arc::new(snapshot), params);

        let words = [
            "best", "laptops", "battery", "review", "hotels", "2025", "camera",
        ];
        let long: Vec<&str> = words.iter().copied().cycle().take(70).collect();
        let long = long.join(" ");
        let queries = [
            "best laptops for students",
            "best best laptops",
            "most reliable SUVs 2025",
            "review",
            "xylophonic quuxations",
            long.as_str(),
        ];
        for engine in [&raw, &packed] {
            check(
                &[engine.index().postings()],
                |scratch, q, k, mode| {
                    let _ = engine.search_with_mode(scratch, q, k, mode);
                },
                &queries,
            );
        }
        let stores: Vec<&PostingsStore> = (0..searcher.segment_count())
            .map(|si| searcher.segment_store(si))
            .collect();
        check(
            &stores,
            |scratch, q, k, mode| {
                let _ = searcher.search_with_mode(scratch, q, k, mode);
            },
            &queries,
        );
    }
}
