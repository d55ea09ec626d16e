//! The traced run's single-thread replay: each layer's public entry
//! point is called from here, inside a span, over the workload's own
//! request sequence.
//!
//! Per request the replay records a `request` root span with children:
//! * `serve.answer` (with child `serve.submit`) — the request through a
//!   fresh `AnswerService`;
//! * when the answer was computed rather than served from the answer
//!   cache, `engines.answer.<engine>` — `AnswerEngines::answer_with` on a
//!   fresh stack — and then the parts of that answer, each called again
//!   on its own: `search.kernel` (`SearchEngine::search_with` at the
//!   engine's ranking parameters and pool size), `engines.snippets`
//!   (`snippets_from_serp`) and `llm.rank` (`Llm::rank_entities` over the
//!   snippets' modal-topic entities, generative engines only).
//!
//! The parts are timed beside the answer, not inside it, so the share
//! of answer time they do not cover (persona rerank, citation
//! selection, text synthesis) is reported as the unattributed residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use shift_corpus::{EntityId, TopicId, World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind, QueryScratch};
use shift_llm::{GroundingMode, Llm, LlmConfig, Snippet};
use shift_search::{RankingParams, SearchEngine};
use shift_serve::{AnswerService, Request, ServeConfig};

use crate::inputs;
use crate::trace::Recorder;

/// Requests of the cold sequence replayed in the traced run.
pub const COLD_REPLAY: usize = 2500;
/// Requests of the hot sequence replayed in the traced run.
pub const HOT_REPLAY: usize = 20_000;

const ANSWER_SPANS: [&str; 5] = [
    "engines.answer.google",
    "engines.answer.gpt4o",
    "engines.answer.claude",
    "engines.answer.gemini",
    "engines.answer.perplexity",
];

/// The entities `AnswerEngines` asks the LLM to rank for these snippets:
/// every entity the snippets speak about, restricted to their modal
/// topic (ties toward the lower topic id).
fn rank_candidates(world: &World, snippets: &[Snippet]) -> Vec<EntityId> {
    let mut candidates: Vec<EntityId> = snippets
        .iter()
        .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
        .collect();
    candidates.sort();
    candidates.dedup();
    let mut mass: BTreeMap<TopicId, usize> = BTreeMap::new();
    for e in &candidates {
        *mass.entry(world.entity(*e).topic).or_insert(0) += 1;
    }
    if let Some((&modal, _)) = mass
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
    {
        candidates.retain(|e| world.entity(*e).topic == modal);
    }
    candidates
}

/// One replay pass over `requests` on fresh stacks; returns its wall
/// time in seconds. Each request goes through a service warmed with
/// `warm` first.
fn pass(rec: &mut Recorder, seed: u64, requests: &[Request], warm: &[Request]) -> f64 {
    let service = AnswerService::start(
        inputs::stack(seed).0,
        ServeConfig::with_workers(crate::serve::WORKERS),
    );
    for r in warm {
        let _ = service.answer(r.clone());
    }
    let (engines, _) = inputs::stack(seed);
    let google = SearchEngine::build(engines.world(), RankingParams::google());
    let retrievers: Vec<(SearchEngine, usize)> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let (params, depth) = match kind {
                EngineKind::Google => (RankingParams::google(), inputs::TOP_K),
                EngineKind::Gemini => (RankingParams::google(), engines.persona(kind).pool_size),
                _ => {
                    let p = engines.persona(kind);
                    (p.retrieval.clone(), p.pool_size)
                }
            };
            (
                SearchEngine::with_index(google.index_handle(), params),
                depth,
            )
        })
        .collect();
    let mut scratch = QueryScratch::new();
    let mut probe_scratch = QueryScratch::new();

    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        let id = i as u64;
        let root = rec.open("request", None, id);
        let span = rec.open("serve.answer", root, id);
        let submit = rec.open("serve.submit", span, id);
        let pending = service.submit(r.clone());
        rec.close(submit);
        let result = pending.and_then(|p| p.wait());
        rec.close(span);
        if !matches!(result, Ok(ref s) if s.from_cache) {
            let misses = engines.serp_cache_stats().misses;
            let span = rec.open(ANSWER_SPANS[r.engine.index()], root, id);
            black_box(engines.answer_with(&mut scratch, r.engine, &r.query, r.top_k, r.seed));
            rec.close(span);

            // The kernel is timed only when the answer ran it, i.e. its
            // SERP-cache lookup missed; a hit still needs the SERP for the
            // snippet step, fetched untimed.
            let kernel_ran = engines.serp_cache_stats().misses > misses;
            let (retriever, depth) = &retrievers[r.engine.index()];
            let span = if kernel_ran {
                rec.open("search.kernel", root, id)
            } else {
                None
            };
            let serp = retriever.search_with(&mut probe_scratch, &r.query, *depth);
            rec.close(span);

            let span = rec.open("engines.snippets", root, id);
            let snippets = engines.snippets_from_serp(&serp);
            rec.close(span);

            if r.engine != EngineKind::Google {
                let candidates = rank_candidates(engines.world(), &snippets);
                if !candidates.is_empty() {
                    let span = rec.open("llm.rank", root, id);
                    black_box(engines.llm().rank_entities(
                        &candidates,
                        &snippets,
                        GroundingMode::Normal,
                        r.seed,
                    ));
                    rec.close(span);
                }
            }
        }
        rec.close(root);
    }
    let elapsed = start.elapsed().as_secs_f64();
    service.shutdown();
    elapsed
}

/// Times the set-up layers (three builds each, median) and replays
/// `requests` untraced, then traced; writes the spans to `trace_path`
/// and returns the per-layer metrics.
pub fn run(
    seed: u64,
    requests: &[Request],
    warm: &[Request],
    trace_path: &Path,
) -> BTreeMap<String, f64> {
    let mut rec = Recorder::new(true);
    for _ in 0..3 {
        let span = rec.open("corpus.generate", None, 0);
        let world = Arc::new(World::generate(&WorldConfig::default_scale(), seed));
        rec.close(span);
        let span = rec.open("search.build", None, 0);
        black_box(SearchEngine::build(&world, RankingParams::google()));
        rec.close(span);
        let span = rec.open("llm.pretrain", None, 0);
        black_box(Llm::pretrain(&world, LlmConfig::default()));
        rec.close(span);
        let span = rec.open("engines.build", None, 0);
        black_box(AnswerEngines::build(world));
        rec.close(span);
    }

    let untraced = pass(&mut Recorder::new(false), seed, requests, warm);
    let traced = pass(&mut rec, seed, requests, warm);
    if let Err(e) = rec.write_jsonl(trace_path) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    let totals = rec.totals();
    let busy = |name: &str| totals.get(name).map_or(0, |t| t.busy_ns) as f64;
    let p50_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.p50_ns());
    let p50_us = |name: &str| p50_ns(name) / 1e3;

    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("corpus.generate_s", "corpus.generate"),
        ("search.build_s", "search.build"),
        ("llm.pretrain_s", "llm.pretrain"),
        ("engines.build_s", "engines.build"),
    ] {
        m.insert(metric.to_string(), p50_ns(span) / 1e9);
    }
    let answer_busy: f64 = ANSWER_SPANS.iter().map(|s| busy(s)).sum();
    for (kind, span) in EngineKind::ALL.iter().zip(ANSWER_SPANS) {
        m.insert(
            format!("engines.answer_us_p50.{}", kind.slug()),
            p50_us(span),
        );
    }
    let parts = busy("search.kernel") + busy("engines.snippets") + busy("llm.rank");
    m.insert("search.kernel_us_p50".into(), p50_us("search.kernel"));
    m.insert(
        "search.kernel_share".into(),
        busy("search.kernel") / busy("serve.answer").max(1.0),
    );
    m.insert("engines.snippets_us_p50".into(), p50_us("engines.snippets"));
    let unattributed = if answer_busy > 0.0 {
        1.0 - parts / answer_busy
    } else {
        0.0
    };
    m.insert("engines.unattributed_share".into(), unattributed);
    m.insert("llm.rank_us_p50".into(), p50_us("llm.rank"));
    m.insert(
        "llm.rank_calls".into(),
        totals.get("llm.rank").map_or(0, |t| t.count) as f64,
    );
    m.insert("serve.submit_us_p50".into(), p50_us("serve.submit"));
    m.insert("trace.overhead_share".into(), traced / untraced - 1.0);

    eprintln!("layer        spans      busy_ms      self_ms");
    for (name, t) in &totals {
        eprintln!(
            "{name:<26} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    eprintln!(
        "replay: untraced {untraced:.3}s, traced {traced:.3}s; unattributed share of answer time {unattributed:.3}"
    );
    m
}
