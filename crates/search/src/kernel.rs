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
//!   that may enter the heap. A document with `ub < τ` ranks strictly
//!   below `overfetch` others and is dropped without reading its
//!   positions; every other document gets its exact score. `Exhaustive`
//!   is the same pass with τ = −∞ (see DESIGN.md §3 "Dense
//!   accumulation" for the exactness argument).
//! * **Bounded top-k selection.** Candidates feed a min-heap capped at
//!   the overfetch size instead of sorting every matching document,
//!   with the exact deterministic tie-break of the reference sort
//!   (score descending, then document number ascending).
//! * **Zero-alloc steady state.** All working memory — accumulator
//!   slots, cursors, the heap, proximity merge buffers, the
//!   coordination table, and the generation-stamped host-crowding
//!   counters — lives in a reusable [`QueryScratch`]. After the first
//!   few queries have warmed its capacities, a search allocates only
//!   the returned SERP itself.
//! * **Generation-stamped slots.** Accumulator slots and host-crowding
//!   counters are dense arrays indexed by document number (relative to
//!   the view's range) and interned host id. Instead of clearing them
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
use std::sync::OnceLock;

use crate::bm25::window_bonus;
use crate::index::{DocMeta, ScoreTable, SearchIndex};
use crate::postings::{DocNum, PostingsStore, TermId, BLOCK_LEN};
use crate::query::RankingParams;
use crate::serp::{extract_snippet, SerpResult};
use crate::shard::{IndexShard, ShardedIndex};

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

/// The heap-threshold broadcast shared by concurrently evaluating
/// shards: a monotonically tightening lower bound on the score a
/// document must *strictly* beat to enter the merged overfetch pool.
///
/// Stored as the raw bits of a positive `f64` in an atomic `u64` — for
/// positive IEEE-754 doubles the bit patterns order exactly like the
/// values, so `fetch_max` over bits is `max` over scores, lock-free and
/// wait-free. Zero bits (`+0.0`) is the "nothing published yet"
/// sentinel, read back as `-∞` (real match scores are strictly
/// positive, so no published threshold is ever `0.0`).
///
/// Admissibility under races: a shard publishes a value only once it
/// knows `overfetch` live documents scoring at least that much (a full
/// heap's root, or the dense pass's cut τ), so a read value θ proves
/// ≥ overfetch documents score ≥ θ somewhere. A candidate whose exact
/// upper bound is `< θ` therefore has a true score *strictly* below
/// those pooled documents — it can never reach the merged pool, no
/// matter how stale or fresh the read was. Pruning decisions (and so
/// `KernelStats`) depend on timing; merged SERPs do not.
pub(crate) struct SharedTheta(AtomicU64);

impl SharedTheta {
    pub(crate) fn new() -> SharedTheta {
        SharedTheta(AtomicU64::new(0))
    }

    /// The tightest threshold published so far, or `-∞`.
    #[inline]
    fn get(&self) -> f64 {
        let bits = self.0.load(Ordering::Relaxed);
        if bits == 0 {
            f64::NEG_INFINITY
        } else {
            f64::from_bits(bits)
        }
    }

    /// Publishes a proven pool threshold; keeps the maximum.
    #[inline]
    fn raise(&self, score: f64) {
        if score > 0.0 {
            self.0.fetch_max(score.to_bits(), Ordering::Relaxed);
        }
    }
}

/// One shard's read view of the postings: either the full global lists
/// or a per-term subrange of them. Cursor positions (`TermCursor::next`)
/// are relative to the view; [`ShardLists::base`] converts back to
/// global posting indices for the impact-score table and the block
/// table.
#[derive(Clone, Copy)]
pub(crate) struct ShardLists<'a> {
    store: &'a PostingsStore,
    shard: Option<&'a IndexShard>,
}

impl<'a> ShardLists<'a> {
    pub(crate) fn full(store: &'a PostingsStore) -> ShardLists<'a> {
        ShardLists { store, shard: None }
    }

    pub(crate) fn shard(store: &'a PostingsStore, shard: &'a IndexShard) -> ShardLists<'a> {
        ShardLists {
            store,
            shard: Some(shard),
        }
    }

    #[inline]
    fn store(&self) -> &'a PostingsStore {
        self.store
    }

    /// The view's navigation handle for one term: the raw layout
    /// exposes the dense doc-number mirror directly (4 bytes per entry,
    /// sliced to the shard's subrange); the compressed layout exposes
    /// the global posting-index range `lo..hi`, which the cursor walks
    /// by decoding one [`BLOCK_LEN`]-posting block at a time into its
    /// scratch buffer. In neither case does navigation touch posting
    /// structs; position data for scored documents comes from the
    /// store's flat CSR arrays (raw) or varint streams (compressed).
    #[inline]
    fn view(&self, term: TermId) -> TermView<'a> {
        if self.store.is_compressed() {
            let (lo, hi) = match self.shard {
                None => (0, self.store.doc_freq_by_id(term)),
                Some(s) => s.ranges[term as usize],
            };
            TermView::Packed { lo, hi }
        } else {
            let docs = self.store.doc_ids_by_id(term);
            match self.shard {
                None => TermView::Raw(docs),
                Some(s) => {
                    let (a, b) = s.ranges[term as usize];
                    TermView::Raw(&docs[a as usize..b as usize])
                }
            }
        }
    }

    /// Global posting index of the view's first posting of `term`.
    #[inline]
    fn base(&self, term: TermId) -> usize {
        match self.shard {
            None => 0,
            Some(s) => s.ranges[term as usize].0 as usize,
        }
    }

    /// The view's document range `[begin, end)`.
    #[inline]
    fn doc_range(&self) -> (DocNum, DocNum) {
        match self.shard {
            None => (0, self.store.doc_count()),
            Some(s) => (s.doc_begin, s.doc_end),
        }
    }
}

/// One term's navigation view: a raw doc-id slice, or a compressed
/// list's global posting-index range (see [`ShardLists::view`]).
#[derive(Clone, Copy)]
enum TermView<'a> {
    /// Dense doc-number mirror of the view's postings (raw layout).
    Raw(&'a [DocNum]),
    /// Global posting indices `lo..hi` of a compressed list; documents
    /// are decoded block-wise through the cursor's buffer.
    Packed {
        /// Global index of the view's first posting.
        lo: u32,
        /// Global index one past the view's last posting.
        hi: u32,
    },
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
    /// Global posting index of the cursor's view slice start (0 for an
    /// unsharded view) — `base + next` addresses the impact table and
    /// the global block table.
    base: u32,
    /// *Global* block index currently decoded into `buf`, or `u32::MAX`
    /// when nothing is decoded (compressed lists only). Compressed
    /// blocks align with the global block table, so a seek decodes at
    /// most the one block its target lands in.
    buf_blk: u32,
    /// Lazily decoded document ids of global block `buf_blk`.
    buf: [DocNum; BLOCK_LEN],
}

/// Counters the kernel accumulates across queries on one scratch —
/// pruning effectiveness telemetry for benches and tests.
///
/// In [`EvalMode::Pruned`] every document matching at least one query
/// term (in each shard or segment view the query ran over) is counted
/// exactly once, in `docs_scored` or in `candidates_pruned`; in
/// [`EvalMode::Exhaustive`] all of them land in `docs_scored`.
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
    /// allocation + warm-up on every query — the bench asserts zero.
    pub scratch_fallbacks: u64,
}

impl KernelStats {
    /// Accumulates another counter set into this one — how per-shard
    /// counters aggregate into a query total, and how serving workers
    /// fold per-scratch counters into service-wide telemetry.
    pub fn merge(&mut self, other: KernelStats) {
        self.docs_scored += other.docs_scored;
        self.candidates_pruned += other.candidates_pruned;
        self.scratch_fallbacks += other.scratch_fallbacks;
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
    /// Accumulator slots indexed by document number relative to the
    /// view's range start, so a shard's scratch holds only its range.
    slots: Vec<AccSlot>,
    /// Documents touched by this pass, in first-touch order.
    touched: Vec<DocNum>,
    /// Touched documents the running cut kept, with their `(lb, ub)`
    /// final-score brackets.
    kept: Vec<(DocNum, f64, f64)>,
    /// Min-heap of the `overfetch` largest lower bounds among touched
    /// documents that may enter the heap; a full heap's root is τ.
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
    // Per-shard child scratches for sharded execution, grown to the
    // shard count on first sharded query and reused afterwards (each
    // worker's children warm up exactly like the parent).
    children: Vec<QueryScratch>,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// The pruning counters accumulated since the last
    /// [`QueryScratch::take_stats`] — aggregated across the per-shard
    /// child scratches, so sharded and unsharded execution report
    /// through the same counters.
    pub fn stats(&self) -> KernelStats {
        let mut total = self.stats;
        for child in &self.children {
            total.merge(child.stats());
        }
        total
    }

    /// Returns and resets the accumulated pruning counters (including
    /// every per-shard child scratch's).
    pub fn take_stats(&mut self) -> KernelStats {
        let mut total = std::mem::take(&mut self.stats);
        for child in &mut self.children {
            total.merge(child.take_stats());
        }
        total
    }

    /// Grows the per-shard child scratch pool to at least `n` entries.
    fn ensure_children(&mut self, n: usize) {
        while self.children.len() < n {
            self.children.push(QueryScratch::new());
        }
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

/// Hardware threads available to this process, resolved once. Gates
/// the sharded fan-out: spawning per-query scoped threads on a
/// single-CPU host is pure overhead, so the dispatcher falls back to
/// the (byte-identical) serial path there.
pub(crate) fn hardware_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Process-wide count of [`with_thread_scratch`] re-entrancy
/// fallbacks. The per-scratch [`KernelStats::scratch_fallbacks`]
/// counter on the fresh scratch is usually dropped with it, so this
/// global is what benches and gates assert on.
static SCRATCH_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Times [`with_thread_scratch`] fell back to a freshly allocated
/// scratch because the thread-local was already borrowed, since
/// process start. Steady-state query paths must keep this at zero
/// (asserted in the `search_kernel` bench): every fallback silently
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

/// Pushes onto a min-heap of lower bounds capped at `cap`, keeping the
/// `cap` largest (root = the smallest kept). Unlike [`heap_push`] it
/// compares plain values with no document tie-break: the cut needs only
/// the value, and this runs once per touched document.
fn floor_push(heap: &mut Vec<f64>, cap: usize, x: f64) {
    if heap.len() < cap {
        heap.push(x);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[i] < heap[parent] {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    } else if x > heap[0] {
        heap[0] = x;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < heap.len() && heap[l] < heap[least] {
                least = l;
            }
            if r < heap.len() && heap[r] < heap[least] {
                least = r;
            }
            if least == i {
                break;
            }
            heap.swap(i, least);
            i = least;
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
    lists: ShardLists<'a>,
    /// Precomputed per-posting BM25 contributions (global indices).
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
/// `docs` is the cursor's view of the dense doc-number mirror.
#[inline]
fn land(c: &mut TermCursor, docs: &[DocNum], i: usize) {
    c.next = i as u32;
    c.cur = docs.get(i).copied().unwrap_or(DocNum::MAX);
}

/// Lands `c` on view index `i` of a compressed list covering global
/// postings `lo..hi`, decoding the destination block into the cursor's
/// buffer if it is not already there.
#[inline]
fn land_packed(store: &PostingsStore, c: &mut TermCursor, lo: u32, hi: u32, i: usize) {
    let g = lo as usize + i;
    if g >= hi as usize {
        c.next = hi - lo;
        c.cur = DocNum::MAX;
        return;
    }
    let blk = (g / BLOCK_LEN) as u32;
    if blk != c.buf_blk {
        c.buf_blk = blk;
        store.decode_docs_block(c.term, blk, &mut c.buf);
    }
    c.next = i as u32;
    c.cur = c.buf[g % BLOCK_LEN];
}

/// Lands `c` on view index `i` through either layout's view.
#[inline]
fn land_view(lists: &ShardLists<'_>, c: &mut TermCursor, i: usize) {
    match lists.view(c.term) {
        TermView::Raw(docs) => land(c, docs, i),
        TermView::Packed { lo, hi } => land_packed(lists.store(), c, lo, hi, i),
    }
}

/// Advances `c` to its first posting with doc ≥ `target`: a short
/// linear probe for small gaps, then whole-block skips via the *global*
/// block table's `last_doc` pointers and a binary search only inside
/// the destination block, clipped to the view. Cursor indices are
/// relative to the view. On the raw layout all memory touched is the
/// 4-byte-per-posting doc mirror (plus the block table) — never the
/// posting structs. On the compressed layout the probe stays inside the
/// currently decoded block, the skip walks the same global table
/// (compressed blocks align with it exactly), and at most one
/// destination block is decoded.
fn seek(lists: &ShardLists<'_>, c: &mut TermCursor, target: DocNum) {
    if c.cur >= target {
        return;
    }
    // `c.cur < target ≤ MAX` implies the cursor sits on a real posting.
    match lists.view(c.term) {
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
            // Global posting g = base + view index; a block straddling
            // the view's end may hold later docs, so the search range is
            // clipped to the view (landing past it exhausts the cursor).
            let base = c.base as usize;
            let view_end = base + docs.len();
            let blocks = lists.store().blocks_by_id(c.term);
            let mut blk = (base + i) / BLOCK_LEN;
            while blocks[blk].last_doc < target {
                blk += 1;
                if blk * BLOCK_LEN >= view_end {
                    land(c, docs, docs.len());
                    return;
                }
            }
            let start = (blk * BLOCK_LEN).max(base + i) - base;
            let end = ((blk + 1) * BLOCK_LEN).min(view_end) - base;
            let within = docs[start..end].partition_point(|&d| d < target);
            land(c, docs, start + within);
        }
        TermView::Packed { lo, hi } => seek_packed(lists.store(), c, lo, hi, target),
    }
}

/// The compressed-layout seek body: probe inside the decoded block,
/// then walk the global block skip pointers and decode only the
/// destination block.
fn seek_packed(store: &PostingsStore, c: &mut TermCursor, lo: u32, hi: u32, target: DocNum) {
    // The cursor sits on a real decoded posting (`c.cur < target`), so
    // `buf_blk` is valid and `g` starts inside or one past its block.
    let mut g = lo as usize + c.next as usize + 1;
    let blk_end = ((c.buf_blk as usize + 1) * BLOCK_LEN).min(hi as usize);
    let probe_end = (g + SEEK_PROBE).min(blk_end);
    while g < probe_end && c.buf[g % BLOCK_LEN] < target {
        g += 1;
    }
    if g < probe_end {
        c.next = (g - lo as usize) as u32;
        c.cur = c.buf[g % BLOCK_LEN];
        return;
    }
    if g >= hi as usize {
        c.next = hi - lo;
        c.cur = DocNum::MAX;
        return;
    }
    // Walk the global skip pointers; compressed blocks align with them.
    let blocks = store.blocks_by_id(c.term);
    let mut blk = g / BLOCK_LEN;
    while blocks[blk].last_doc < target {
        blk += 1;
        if blk == blocks.len() || blk * BLOCK_LEN >= hi as usize {
            c.next = hi - lo;
            c.cur = DocNum::MAX;
            return;
        }
    }
    if blk as u32 != c.buf_blk {
        c.buf_blk = blk as u32;
        store.decode_docs_block(c.term, blk as u32, &mut c.buf);
    }
    let n = (store.doc_freq_by_id(c.term) as usize - blk * BLOCK_LEN).min(BLOCK_LEN);
    let start = (blk * BLOCK_LEN).max(g);
    let end = (blk * BLOCK_LEN + n).min(hi as usize);
    let within = c.buf[start % BLOCK_LEN..start % BLOCK_LEN + (end - start)]
        .partition_point(|&d| d < target);
    let found = start + within;
    if found >= hi as usize {
        c.next = hi - lo;
        c.cur = DocNum::MAX;
    } else {
        c.next = (found - lo as usize) as u32;
        c.cur = c.buf[found % BLOCK_LEN];
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
        seek(&ctx.lists, c, doc);
        if c.cur == doc {
            let at = c.base as usize + c.next as usize;
            ctx.lists
                .store()
                .for_each_position(c.term, at, |pos| tagged.push((pos, matched)));
            matched += 1;
        }
    }
    debug_assert_eq!(matched, slot.matched);
    let text = add_proximity(ctx, slot.text, tagged, window_counts, matched);
    ctx.blend(text, doc, matched)
}

/// Adds one cursor's view of its posting list into the accumulator:
/// `slots[d - begin]` gains the posting's cached impact and one match,
/// starting from `0.0` on first touch (recorded in `touched`).
fn accumulate(
    ctx: &ScoreCtx<'_>,
    c: &TermCursor,
    begin: DocNum,
    stamp: u32,
    slots: &mut [AccSlot],
    touched: &mut Vec<DocNum>,
) {
    let mut add = |d: DocNum, impact: f64| {
        let s = &mut slots[(d - begin) as usize];
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
    let base = c.base as usize;
    match ctx.lists.view(term) {
        TermView::Raw(docs) => {
            // Impact tables are dictionary-packed only for compressed
            // postings, so a raw list always has a raw impact slice.
            let v = ctx
                .impacts
                .raw_list(term)
                .expect("raw postings carry raw impacts");
            for (&d, &x) in docs.iter().zip(&v[base..base + docs.len()]) {
                add(d, x);
            }
        }
        TermView::Packed { lo, hi } => {
            let (lo, hi) = (lo as usize, hi as usize);
            let mut buf = [0; BLOCK_LEN];
            let mut imp = [0.0; BLOCK_LEN];
            let mut g = lo;
            while g < hi {
                let blk = g / BLOCK_LEN;
                let first = blk * BLOCK_LEN;
                ctx.lists
                    .store()
                    .decode_docs_block(term, blk as u32, &mut buf);
                let stop = hi.min(first + BLOCK_LEN);
                let imp = &mut imp[..stop - g];
                ctx.impacts.impacts_into(term, g, imp);
                for (&d, &x) in buf[g - first..stop - first].iter().zip(imp.iter()) {
                    add(d, x);
                }
                g = stop;
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
///    documents that may enter the heap (tightened by a full carried
///    heap's root or a shared threshold). A document with `ub < τ`
///    ranks strictly below `overfetch` others and is dropped. The cut
///    runs while bracketing, against the τ of the documents seen so far
///    (a valid floor of the final one), and again after it.
/// 4. **Score.** Exact survivors go straight to the heap; the rest get
///    their positions read by [`proximity_score`], cursors walking
///    forward in document order — first the survivors whose `lb`
///    reaches τ, which fill the heap, then the others, each dropped if
///    its `ub` falls strictly below the full heap's root by then.
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
    shared: Option<&SharedTheta>,
) {
    let DenseScratch {
        slots,
        touched,
        kept,
        lbs,
        pending,
        maybe,
    } = dense;
    let (begin, end) = ctx.lists.doc_range();
    let span = (end - begin) as usize;
    if slots.len() < span {
        slots.resize(span, AccSlot::default());
    }
    touched.clear();
    for c in cursors.iter() {
        accumulate(ctx, c, begin, stamp, slots, touched);
    }

    // A floor every pool member provably reaches: a full carried heap's
    // root (serial shards) or the shared broadcast.
    let mut floor = f64::NEG_INFINITY;
    if prune {
        if heap.len() == overfetch {
            floor = heap[0].0;
        }
        if let Some(s) = shared {
            floor = floor.max(s.get());
        }
    }
    let bonus = ctx.params.proximity_bonus;
    let (low, high) = (bonus.min(0.0), bonus.max(0.0));
    kept.clear();
    lbs.clear();
    for &d in touched.iter() {
        let s = slots[(d - begin) as usize];
        let (lb, ub) = if ctx.collect_positions && s.matched >= 2 {
            let x = ctx.blend(s.text + low, d, s.matched);
            let y = ctx.blend(s.text + high, d, s.matched);
            (x.min(y), x.max(y))
        } else {
            let exact = ctx.blend(s.text, d, s.matched);
            (exact, exact)
        };
        if prune {
            if ctx.is_live(d) {
                floor_push(lbs, overfetch, lb);
            }
            // The running cut: a full `lbs` heap's root is a lower bound
            // `overfetch` live documents reach, and `d` is not one of them
            // when `ub` is below it.
            let cut = if lbs.len() == overfetch {
                floor.max(lbs[0])
            } else {
                floor
            };
            if ub < cut {
                stats.candidates_pruned += 1;
                continue;
            }
        }
        kept.push((d, lb, ub));
    }
    let mut tau = floor;
    if lbs.len() == overfetch {
        tau = tau.max(lbs[0]);
        if let Some(s) = shared {
            s.raise(lbs[0]);
        }
    }

    pending.clear();
    maybe.clear();
    for &(d, lb, ub) in kept.iter() {
        if ub < tau {
            stats.candidates_pruned += 1;
        } else if ctx.collect_positions && slots[(d - begin) as usize].matched >= 2 {
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
        let slot = slots[(d - begin) as usize];
        let score = proximity_score(ctx, d, slot, cursors, tagged, window_counts);
        if ctx.is_live(d) {
            heap_push(heap, overfetch, (score, d));
        }
        stats.docs_scored += 1;
    }
    if !maybe.is_empty() {
        maybe.sort_unstable_by_key(|&(d, _)| d);
        for c in cursors.iter_mut() {
            land_view(&ctx.lists, c, 0);
        }
        for &(d, ub) in maybe.iter() {
            if heap.len() == overfetch && ub < heap[0].0 {
                stats.candidates_pruned += 1;
                continue;
            }
            let slot = slots[(d - begin) as usize];
            let score = proximity_score(ctx, d, slot, cursors, tagged, window_counts);
            if ctx.is_live(d) {
                heap_push(heap, overfetch, (score, d));
            }
            stats.docs_scored += 1;
        }
    }
    if let Some(s) = shared {
        if heap.len() == overfetch {
            s.raise(heap[0].0);
        }
    }
}

/// Fills one scratch's candidate heap with a shard view's top
/// `overfetch` documents: cursor setup, coordination table, then the
/// dense pass. The heap is left unsorted; callers order (and, for
/// sharded execution, merge) it in [`finalize`].
#[allow(clippy::too_many_arguments)]
fn gather(
    lists: ShardLists<'_>,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[String],
    resolved: Option<&[TermId]>,
    overfetch: usize,
    mode: EvalMode,
    shared: Option<&SharedTheta>,
    alive: Option<&[bool]>,
) {
    let store = lists.store();
    // One generation per gather: the dense pass's accumulator slots are
    // valid for this gather only. (Bumping the shared generation more
    // often only invalidates stale stamps, never falsely validates
    // them.)
    scratch.bump_generation();
    // The heap is NOT cleared here: callers own it. `execute` clears it
    // per query; the serial sharded path deliberately carries it across
    // shards so a full heap's root tightens later shards' cuts.
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
            base: lists.base(id) as u32,
            buf_blk: u32::MAX,
            buf: [0; BLOCK_LEN],
        };
        land_view(&lists, &mut c, 0);
        scratch.cursors.push(c);
    };
    match resolved {
        Some(ids) => {
            for &id in ids {
                push_cursor(scratch, id);
            }
        }
        None => {
            for term in terms {
                if let Some(id) = store.term_id(term) {
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
        lists,
        impacts,
        params,
        statics,
        coord,
        collect_positions: cursors.len() >= 2 && params.proximity_bonus != 0.0,
        alive,
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
        shared,
    );
}

/// Orders the gathered candidates, truncates to the overfetch pool,
/// applies host crowding and extracts snippets for the survivors —
/// the exact tail of the unsharded path, shared by the sharded merge
/// (the merged heap may hold up to `shards × overfetch` entries; the
/// truncation is what restores the reference pool semantics).
fn finalize(
    index: &SearchIndex,
    params: &RankingParams,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    overfetch: usize,
) -> Vec<SerpResult> {
    // Order the surviving candidates: same comparator the reference
    // full sort uses.
    scratch
        .heap
        .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scratch.heap.truncate(overfetch);

    // Host crowding + truncation fused: walk the ranked candidates,
    // dropping any beyond `max_per_host` for its host, stopping at `k`.
    // Snippets are extracted only for documents that make the cut.
    scratch.bump_generation();
    let generation = scratch.generation;
    let host_n = index.host_count() as usize;
    if scratch.host_stamp.len() < host_n {
        scratch.host_stamp.resize(host_n, 0);
        scratch.host_counts.resize(host_n, 0);
    }
    let mut results = Vec::with_capacity(k.min(scratch.heap.len()));
    for &(score, doc) in scratch.heap.iter() {
        // `doc_fields` works on both metadata layouts; the compressed
        // index re-materializes only the URL, and only for survivors.
        let meta = index.doc_fields(doc);
        if params.max_per_host > 0 {
            let h = meta.host_id as usize;
            if scratch.host_stamp[h] != generation {
                scratch.host_stamp[h] = generation;
                scratch.host_counts[h] = 0;
            }
            scratch.host_counts[h] += 1;
            if scratch.host_counts[h] as usize > params.max_per_host {
                continue;
            }
        }
        results.push(SerpResult {
            page: meta.page,
            url: meta.url.into_owned(),
            host: meta.host.to_string(),
            score,
            title: meta.title.to_string(),
            snippet: extract_snippet(meta.body, terms, params.snippet_width),
            source_type: meta.source_type,
            age_days: meta.age_days,
        });
        if results.len() == k {
            break;
        }
    }
    results
}

/// Executes one query over the full (unsharded) index and returns the
/// final, host-crowded, truncated result list (snippets extracted only
/// for the survivors).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    index: &SearchIndex,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    mode: EvalMode,
) -> Vec<SerpResult> {
    let overfetch = overfetch(k);
    scratch.heap.clear();
    gather(
        ShardLists::full(index.postings()),
        params,
        statics,
        impacts,
        scratch,
        terms,
        None,
        overfetch,
        mode,
        None,
        None,
    );
    finalize(index, params, scratch, terms, k, overfetch)
}

/// [`execute`] with the batch executor's pre-resolved term ids: one
/// dictionary probe per distinct term *per batch* instead of per
/// query. `resolved` holds the ids of exactly the occurrences present
/// in the index, in query-term order, so the cursor sequence — and
/// therefore every scored float — is identical to [`execute`]'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_resolved(
    index: &SearchIndex,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[String],
    resolved: &[TermId],
    k: usize,
    mode: EvalMode,
) -> Vec<SerpResult> {
    let overfetch = overfetch(k);
    scratch.heap.clear();
    gather(
        ShardLists::full(index.postings()),
        params,
        statics,
        impacts,
        scratch,
        terms,
        Some(resolved),
        overfetch,
        mode,
        None,
        None,
    );
    finalize(index, params, scratch, terms, k, overfetch)
}

/// One shard's candidate gather for the batch executor's
/// shard-per-worker schedule: fills `out` with the shard's bounded
/// top-`overfetch` heap for this query (unsorted, exactly what the
/// parallel fan-out's child heaps hold). No cross-shard threshold is
/// broadcast — each worker is at a different query at any instant —
/// which can only *reduce* pruning, never change the merged pool, so
/// [`finalize_merged`] over these parts is byte-identical to
/// [`execute_sharded`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_shard_candidates(
    store: &PostingsStore,
    shard: &IndexShard,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[String],
    resolved: Option<&[TermId]>,
    overfetch: usize,
    mode: EvalMode,
    out: &mut Vec<(f64, DocNum)>,
) {
    scratch.heap.clear();
    gather(
        ShardLists::shard(store, shard),
        params,
        statics,
        impacts,
        scratch,
        terms,
        resolved,
        overfetch,
        mode,
        None,
        None,
    );
    out.clear();
    out.extend_from_slice(&scratch.heap);
}

/// The sharded-merge tail for the batch executor: concatenates the
/// per-shard candidate heaps of one query and runs the exact
/// [`finalize`] sort + overfetch truncation + host crowding. The sort
/// is over a total order, so part order is irrelevant — the output is
/// byte-identical to the per-query sharded merge.
pub(crate) fn finalize_merged<'a>(
    index: &SearchIndex,
    params: &RankingParams,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    parts: impl Iterator<Item = &'a [(f64, DocNum)]>,
) -> Vec<SerpResult> {
    let overfetch = overfetch(k);
    scratch.heap.clear();
    for part in parts {
        scratch.heap.extend_from_slice(part);
    }
    finalize(index, params, scratch, terms, k, overfetch)
}

/// Executes one query over a document-partitioned [`ShardedIndex`].
///
/// With `parallel`, each shard gathers its own top-`overfetch`
/// candidates on its own child scratch over scoped threads, the heaps
/// are merged, and the exact unsharded tail — sort by (score bits,
/// doc id), truncate to the overfetch pool, host-crowd, snippet — runs
/// on the union. Exactness: each shard's heap holds its local top
/// `overfetch` by the global total order, so the union is a superset
/// of the global top-`overfetch` pool — any document of the global
/// pool beats at least `global_rank ≤ overfetch` documents overall,
/// hence at most `overfetch − 1` within its own shard. Sorting the
/// union and truncating to `overfetch` therefore reproduces the global
/// pool exactly, and the shared crowding walk does the rest. In the
/// pruning modes the shards tighten each other's thresholds through a
/// [`SharedTheta`] broadcast; the resulting `KernelStats` depend on
/// thread timing (SERPs never do).
///
/// Without `parallel`, the shards — contiguous doc-id ranges visited
/// in order — accumulate into a single heap whose root, once full,
/// tightens each later shard's cut: outputs *and* counters are
/// deterministic. Scored documents run the same float sequence in every
/// configuration, so SERPs are byte-identical for every shard count
/// and either dispatch (differentially tested in
/// `tests/differential_search.rs`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_sharded(
    sharded: &ShardedIndex,
    params: &RankingParams,
    statics: &[(f64, f64)],
    impacts: &ScoreTable,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    mode: EvalMode,
    parallel: bool,
) -> Vec<SerpResult> {
    let index = sharded.index();
    let shards = sharded.shards();
    let n = shards.len();
    let overfetch = overfetch(k);

    let store = index.postings();
    if parallel && n > 1 {
        scratch.ensure_children(n);
        let theta = SharedTheta::new();
        let shared = (mode == EvalMode::Pruned).then_some(&theta);
        let (first_child, rest) = scratch.children.split_first_mut().expect("n >= 1 children");
        crossbeam::thread::scope(|scope| {
            for (child, shard) in rest.iter_mut().zip(&shards[1..]) {
                scope.spawn(move || {
                    child.heap.clear();
                    gather(
                        ShardLists::shard(store, shard),
                        params,
                        statics,
                        impacts,
                        child,
                        terms,
                        None,
                        overfetch,
                        mode,
                        shared,
                        None,
                    );
                });
            }
            // The first shard runs on the calling thread while the
            // spawned shards work.
            first_child.heap.clear();
            gather(
                ShardLists::shard(store, &shards[0]),
                params,
                statics,
                impacts,
                first_child,
                terms,
                None,
                overfetch,
                mode,
                shared,
                None,
            );
        })
        .expect("shard gather panicked");

        // Merge: concatenate the per-shard heaps into the parent heap;
        // `finalize` sorts and truncates the union back to the exact
        // global overfetch pool.
        scratch.heap.clear();
        for child in &mut scratch.children[..n] {
            scratch.heap.extend_from_slice(&child.heap);
            child.heap.clear();
        }
    } else {
        // Serial sharded execution accumulates into ONE heap carried
        // across shards (the bounded heap selects the same top
        // `overfetch` whatever the push order). No shared-θ broadcast
        // is needed — a full carried heap's root *is* a global bound —
        // and the heap never exceeds `overfetch` entries.
        scratch.heap.clear();
        for shard in shards {
            gather(
                ShardLists::shard(store, shard),
                params,
                statics,
                impacts,
                scratch,
                terms,
                None,
                overfetch,
                mode,
                None,
                None,
            );
        }
    }
    finalize(index, params, scratch, terms, k, overfetch)
}

/// One live-index segment's read view for a snapshot query: its own
/// postings store, score/static tables built against the
/// *snapshot-global* collection statistics, the per-local-doc liveness
/// bitmap, and the map from segment-local document numbers to
/// snapshot-global ones (ascending — documents within a segment are
/// stored in page-id order, the same order the global numbering uses).
pub(crate) struct SegmentRun<'a> {
    pub(crate) store: &'a PostingsStore,
    pub(crate) statics: &'a [(f64, f64)],
    pub(crate) impacts: &'a ScoreTable,
    pub(crate) alive: Option<&'a [bool]>,
    pub(crate) global_of: &'a [DocNum],
    /// Pre-resolved term ids for this segment's dictionary (batch
    /// executor only; `None` probes the dictionary per occurrence).
    pub(crate) resolved: Option<&'a [TermId]>,
}

/// The [`finalize`] tail for live snapshots: identical sort, overfetch
/// truncation, host crowding and snippet extraction, but document
/// metadata and interned host ids come from the snapshot (via
/// `host_ids` and `meta_of`) instead of a [`SearchIndex`].
#[allow(clippy::too_many_arguments)]
fn finalize_live<'a>(
    params: &RankingParams,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    overfetch: usize,
    host_ids: &[u32],
    host_count: u32,
    meta_of: &dyn Fn(DocNum) -> &'a DocMeta,
) -> Vec<SerpResult> {
    scratch
        .heap
        .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scratch.heap.truncate(overfetch);

    scratch.bump_generation();
    let generation = scratch.generation;
    let host_n = host_count as usize;
    if scratch.host_stamp.len() < host_n {
        scratch.host_stamp.resize(host_n, 0);
        scratch.host_counts.resize(host_n, 0);
    }
    let mut results = Vec::with_capacity(k.min(scratch.heap.len()));
    for &(score, doc) in scratch.heap.iter() {
        let meta = meta_of(doc);
        if params.max_per_host > 0 {
            let h = host_ids[doc as usize] as usize;
            if scratch.host_stamp[h] != generation {
                scratch.host_stamp[h] = generation;
                scratch.host_counts[h] = 0;
            }
            scratch.host_counts[h] += 1;
            if scratch.host_counts[h] as usize > params.max_per_host {
                continue;
            }
        }
        results.push(SerpResult {
            page: meta.page,
            url: meta.url.clone(),
            host: meta.host.clone(),
            score,
            title: meta.title.clone(),
            snippet: extract_snippet(&meta.body, terms, params.snippet_width),
            source_type: meta.source_type,
            age_days: meta.age_days,
        });
        if results.len() == k {
            break;
        }
    }
    results
}

/// Executes one query over a live-index snapshot: the kernel runs
/// per segment (newest first or oldest first — order does not affect
/// output), candidates are remapped to snapshot-global document
/// numbers, and the union goes through the exact sharded-merge tail.
///
/// Exactness against a batch build of the same live document set
/// (DESIGN.md §3 "Live index" gives the full argument):
///
/// * within a segment, local document order is monotone with the
///   global page-id order, so a segment's bounded heap — tie-broken by
///   local doc number — holds exactly its live documents' global
///   top-`overfetch` prefix; the union over segments is a superset of
///   the global overfetch pool, and the shared sort + truncate
///   restores it exactly (the PR 5 sharded-merge argument, verbatim);
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
/// In the pruning modes, a [`SharedTheta`] carries the tightening
/// threshold across the (serially executed) segments: a published value
/// proves `overfetch` live documents score at least that much globally,
/// so later segments may prune against it — admissible for the same
/// reason as the cross-shard broadcast.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_live<'a>(
    params: &RankingParams,
    segments: &[SegmentRun<'_>],
    host_ids: &[u32],
    host_count: u32,
    meta_of: &dyn Fn(DocNum) -> &'a DocMeta,
    scratch: &mut QueryScratch,
    terms: &[String],
    k: usize,
    mode: EvalMode,
) -> Vec<SerpResult> {
    let overfetch = overfetch(k);
    scratch.heap.clear();
    let theta = SharedTheta::new();
    let shared = (mode == EvalMode::Pruned).then_some(&theta);
    scratch.ensure_children(1);
    for seg in segments {
        {
            let child = &mut scratch.children[0];
            child.heap.clear();
            gather(
                ShardLists::full(seg.store),
                params,
                seg.statics,
                seg.impacts,
                child,
                terms,
                seg.resolved,
                overfetch,
                mode,
                shared,
                seg.alive,
            );
        }
        // Remap the segment's candidates to snapshot-global document
        // numbers and append to the union pool (indexing sidesteps a
        // simultaneous children/heap borrow; the loop is ≤ overfetch
        // long).
        for i in 0..scratch.children[0].heap.len() {
            let (score, local) = scratch.children[0].heap[i];
            scratch.heap.push((score, seg.global_of[local as usize]));
        }
    }
    finalize_live(
        params, scratch, terms, k, overfetch, host_ids, host_count, meta_of,
    )
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
                    base: 0,
                    buf_blk: u32::MAX,
                    buf: [0; BLOCK_LEN],
                };
                let lists = ShardLists::full(store);
                land_view(&lists, &mut c, start as usize);
                seek(&lists, &mut c, target);
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
    /// `Exhaustive` — on both layouts, sharded serially and in
    /// parallel, for duplicate-term, single-term, 70-term and
    /// unmatched queries at several pool depths.
    #[test]
    fn every_matching_document_is_scored_or_pruned_once() {
        use crate::query::{RankingParams, SearchEngine};
        use crate::shard::ShardedIndex;
        use shift_textkit::analyze;
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let world = World::generate(&WorldConfig::small(), 7);
        let params = RankingParams::ai_retrieval();
        let raw = SearchEngine::build(&world, params.clone());
        let packed = SearchEngine::build_compressed(&world, params.clone());
        let view = Arc::new(ShardedIndex::build(raw.index_handle(), 3));
        let sharded = SearchEngine::with_sharded_index(view, params);
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
        for engine in [&raw, &packed, &sharded] {
            let store = engine.index().postings();
            let mut scratch = QueryScratch::new();
            for q in queries {
                let mut matching = BTreeSet::new();
                for term in analyze(q) {
                    if let Some(id) = store.term_id(&term) {
                        store.for_each_doc(id, |_, d| {
                            matching.insert(d);
                        });
                    }
                }
                let matching = matching.len() as u64;
                for k in [1usize, 10, 60] {
                    for parallel in [false, true] {
                        let _ = if parallel {
                            engine.search_with_mode(&mut scratch, q, k, EvalMode::Pruned)
                        } else {
                            engine.search_with_mode_serial(&mut scratch, q, k, EvalMode::Pruned)
                        };
                        let p = scratch.take_stats();
                        assert_eq!(
                            p.docs_scored + p.candidates_pruned,
                            matching,
                            "{q:.40} k={k} parallel={parallel}: {p:?}"
                        );
                    }
                    let _ = engine.search_with_mode(&mut scratch, q, k, EvalMode::Exhaustive);
                    let e = scratch.take_stats();
                    assert_eq!(
                        (e.docs_scored, e.candidates_pruned),
                        (matching, 0),
                        "{q:.40} k={k}"
                    );
                }
            }
        }
    }

    /// Forces the crossbeam fan-out regardless of the host's CPU count
    /// (the public dispatcher downgrades to serial on single-CPU
    /// hosts, which would otherwise leave the parallel branch
    /// untested there) and checks it against the unsharded kernel
    /// byte-for-byte in both evaluation modes.
    #[test]
    fn parallel_fanout_matches_unsharded_bytes() {
        use crate::query::{RankingParams, SearchEngine};
        use crate::shard::ShardedIndex;
        use shift_textkit::analyze;
        use std::sync::Arc;

        let world = World::generate(&WorldConfig::small(), 4040);
        let unsharded = SearchEngine::build(&world, RankingParams::google());
        let view = Arc::new(ShardedIndex::build(unsharded.index_handle(), 3));
        let engine = SearchEngine::with_sharded_index(Arc::clone(&view), RankingParams::google());
        let mut scratch = QueryScratch::new();
        let queries = [
            "best smartphones 2025",
            "top 10 hotels for students",
            "review laptops battery battery",
            "buy espresso machines",
            "best",
        ];
        for q in queries {
            let terms = analyze(q);
            let want = unsharded.search_with(&mut scratch, q, 10);
            for mode in [EvalMode::Pruned, EvalMode::Exhaustive] {
                let got = execute_sharded(
                    &view,
                    engine.params(),
                    engine.statics(),
                    engine.impacts(),
                    &mut scratch,
                    &terms,
                    10,
                    mode,
                    true, // force the scoped-thread branch
                );
                assert_eq!(got.len(), want.results.len(), "{q} ({mode:?})");
                for (g, w) in got.iter().zip(&want.results) {
                    assert_eq!(g.url, w.url, "{q} ({mode:?})");
                    assert_eq!(g.score.to_bits(), w.score.to_bits(), "{q} ({mode:?})");
                    assert_eq!(g.snippet, w.snippet, "{q} ({mode:?})");
                }
            }
        }
    }
}
