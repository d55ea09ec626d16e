//! # shift-search
//!
//! A self-contained web search engine over the synthetic corpus — the
//! study's stand-in for Google Search.
//!
//! Architecture (classic IR, nothing exotic):
//!
//! * [`postings`] — term dictionary (terms interned to dense [`postings::TermId`]s)
//!   and positional posting lists with per-64-posting skip pointers,
//!   built once from a [`shift_corpus::World`].
//! * [`index`] — the immutable [`SearchIndex`]: postings + per-document
//!   metadata (length, host, authority, age), interned host ids, and the
//!   lazily built per-params static-score and impact-score caches.
//! * [`bm25`] — Okapi BM25 with field weighting (title terms count extra)
//!   and a proximity bonus from positional data.
//! * [`kernel`] — the scoring kernel (dense accumulation with an exact
//!   pool cut, and its exhaustive twin — both [`EvalMode`]s
//!   byte-identical) and its reusable zero-allocation [`QueryScratch`].
//!   One executor serves both the batch index and live snapshots; they
//!   differ only in where candidates and document metadata come from.
//! * [`serp`] — result assembly: score blending (relevance × authority ×
//!   freshness), host-crowding limits, snippet extraction.
//! * [`query`] — the user-facing [`SearchEngine`] handle, plus the frozen
//!   term-at-a-time oracle in [`query::reference`].
//! * [`batch`] — parallelism across queries, not within one: the
//!   [`BatchExecutor`] pins one immutable index reference per worker
//!   and streams batches of queries through it (term interning, warm
//!   scratches, term-grouped execution, in-batch dedup), returning
//!   SERPs byte-identical to per-query execution.
//! * [`live`] — the incremental path: LSM-style [`live::LiveIndex`]
//!   (WAL, memtable, immutable segments, deterministic compaction) with
//!   point-in-time [`live::LiveSnapshot`] readers whose SERPs are
//!   byte-identical to a batch build over the same live page set.
//!
//! Two parameterizations matter for the study: [`RankingParams::google`]
//! (authority-heavy, mild freshness — classic organic ranking) and
//! [`RankingParams::ai_retrieval`] (freshness-heavy, authority-light — the
//! retrieval stage the answer engines feed on). The contrast between these
//! two is precisely what Figures 1–4 measure downstream.
//!
//! ```
//! use shift_corpus::{World, WorldConfig};
//! use shift_search::{RankingParams, SearchEngine};
//!
//! let world = World::generate(&WorldConfig::small(), 7);
//! let engine = SearchEngine::build(&world, RankingParams::google());
//! let serp = engine.search("best laptops", 10);
//! assert!(!serp.results.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bm25;
pub mod codec;
pub mod docstore;
pub mod index;
pub mod kernel;
pub mod live;
pub mod postings;
pub mod query;
pub mod serp;
pub mod sizing;

pub use batch::BatchExecutor;
pub use bm25::Bm25Params;
pub use docstore::{CompactDocs, DocFields};
pub use index::{IndexStats, ScoreTable, SearchIndex, StaticScores};
pub use kernel::{scratch_fallbacks, with_thread_scratch, EvalMode, KernelStats, QueryScratch};
pub use live::{
    LiveCounters, LiveDoc, LiveIndex, LiveIndexConfig, LiveIndexStats, LiveSearcher, LiveSnapshot,
};
pub use postings::{PostingsStats, BLOCK_LEN};
pub use query::{RankingParams, SearchEngine};
pub use serp::{Serp, SerpResult};
pub use sizing::SizePair;
