//! # shift-engines
//!
//! The five answer systems the paper compares, implemented as *personas*
//! over the shared substrates:
//!
//! | Persona | Mechanics |
//! |---|---|
//! | **Google Search** | the `shift-search` engine with organic ranking ([`RankingParams::google`](shift_search::RankingParams::google)); its top-10 SERP *is* the answer |
//! | **GPT-4o (web)** | freshness-hungry retrieval + the strongest idiosyncratic domain preference — diverges most from Google |
//! | **Claude (web)** | earned-media-concentrated citation policy, freshest sources, near-zero social; skips citations for most informational/transactional queries unless prompted |
//! | **Gemini (grounded)** | retrieves *through Google's own ranking*, then re-ranks citations with LLM preferences — structurally closer to Google |
//! | **Perplexity Sonar** | search-first product: moderate authority retention, retail + YouTube in the mix — closest to Google of the AI engines |
//!
//! Every persona consumes the same corpus, the same indexes and the same
//! pre-trained [`shift_llm::Llm`], so the differences the experiments
//! measure come only from the declared policies — the cleanest possible
//! version of the paper's observational comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod answer;
pub mod fault;
pub mod persona;
pub mod route_hash;
pub mod serp_cache;
pub mod single_flight;
pub mod stack;

pub use answer::{Citation, EngineAnswer};
pub use fault::{
    EngineError, FallibleEngines, FaultDecision, FaultInjector, FaultPlan, OutageWindow,
};
pub use persona::{EngineKind, Persona};
pub use route_hash::{Fnv1a, RouteHashed};
pub use serp_cache::{SerpCache, SerpCacheConfig, SerpCacheKey, SerpCacheStats};
pub use single_flight::{SingleFlight, SingleFlightStats};
pub use stack::AnswerEngines;

// Re-exported so serving workers can hold a per-worker retrieval
// scratch, and callers can borrow their thread's (and report its
// kernel counters), without depending on `shift-search` directly.
pub use shift_search::{with_thread_scratch, KernelStats, QueryScratch};
