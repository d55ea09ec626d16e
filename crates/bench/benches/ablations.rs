//! Ablation sweeps for the design choices DESIGN.md calls out.
//!
//! Each ablation prints a small table showing how a headline measurement
//! responds to one knob, then times a representative configuration:
//!
//! 1. **Prior-weight sweep** — how `prior_weight_scale` moves the
//!    snippet-shuffle Δ for popular entities (pre-training strength vs.
//!    perturbation sensitivity, §3.2).
//! 2. **Pre-training cutoff sweep** — how snapshot staleness moves prior
//!    strength.
//! 3. **Freshness-boost ablation** — AI retrieval with and without the
//!    recency term: does the Figure 4 age gap survive?
//! 4. **BM25 parameter sweep** — (k1, b) vs SERP stability against the
//!    default parameterization.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use shift_corpus::{World, WorldConfig};
use shift_engines::AnswerEngines;
use shift_llm::{GroundingMode, Llm, LlmConfig};
use shift_metrics::{jaccard, mean, mean_abs_rank_deviation};
use shift_search::{Bm25Params, RankingParams, SearchEngine};
use std::hint::black_box;

fn world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small(), 20251101))
}

/// Ablation 1 + 2: LLM configuration sweeps.
fn ablate_llm(c: &mut Criterion) {
    let world = world();
    let stack = AnswerEngines::build(Arc::clone(&world));
    let answer = stack.answer(
        shift_engines::EngineKind::Gpt4o,
        "best SUVs to buy in 2025",
        10,
        1,
    );
    let (suv, _) = shift_corpus::topic_by_key("suvs").unwrap();
    let candidates: Vec<_> = world
        .entities_of_topic(suv)
        .iter()
        .copied()
        .filter(|e| world.entity(*e).is_popular())
        .collect();

    println!("\nAblation: prior_weight_scale vs popular snippet-shuffle Δ");
    println!("{:>20} {:>10}", "prior_weight_scale", "SS Δavg");
    for scale in [0.0, 0.25, 0.5, 0.85, 1.0] {
        let cfg = LlmConfig {
            prior_weight_scale: scale,
            ..LlmConfig::default()
        };
        let llm = Llm::pretrain(&world, cfg);
        let base = llm
            .rank_entities(&candidates, &answer.snippets, GroundingMode::Normal, 0)
            .ranking;
        let mut deltas = Vec::new();
        for run in 1..=10u64 {
            let shuffled = shift_core::perturb::snippet_shuffle(&answer.snippets, run);
            let perturbed = llm
                .rank_entities(&candidates, &shuffled, GroundingMode::Normal, run)
                .ranking;
            deltas.push(mean_abs_rank_deviation(&base, &perturbed));
        }
        println!("{scale:>20.2} {:>10.2}", mean(&deltas));
    }

    println!("\nAblation: pre-training cutoff vs mean prior strength");
    println!(
        "{:>14} {:>16} {:>16}",
        "cutoff (days)", "popular strength", "niche strength"
    );
    for cutoff in [0, 200, 500, 900, 100_000] {
        let cfg = LlmConfig {
            pretrain_cutoff_days: cutoff,
            ..LlmConfig::default()
        };
        let llm = Llm::pretrain(&world, cfg);
        let strength_of = |popular: bool| {
            let v: Vec<f64> = world
                .entities()
                .iter()
                .filter(|e| e.is_popular() == popular)
                .map(|e| llm.prior(e.id).strength)
                .collect();
            mean(&v)
        };
        println!(
            "{cutoff:>14} {:>16.3} {:>16.3}",
            strength_of(true),
            strength_of(false)
        );
    }

    let mut group = c.benchmark_group("ablation_llm");
    group.sample_size(10);
    group.bench_function("pretrain_default_world", |b| {
        b.iter(|| black_box(Llm::pretrain(&world, LlmConfig::default())))
    });
    group.finish();
}

/// Ablation 3: the freshness boost in AI retrieval.
fn ablate_freshness_boost(c: &mut Criterion) {
    let world = world();
    let google = SearchEngine::build(&world, RankingParams::google());
    let index = google.index_handle();

    let with_boost = SearchEngine::with_index(index.clone(), RankingParams::ai_retrieval());
    let mut no_boost_params = RankingParams::ai_retrieval();
    no_boost_params.freshness_weight = 0.0;
    let no_boost = SearchEngine::with_index(index.clone(), no_boost_params);

    let queries = [
        "top 10 best smartphones 2025",
        "best laptops for students",
        "most reliable SUVs",
        "best electric cars to buy",
    ];
    println!("\nAblation: AI-retrieval freshness boost (top-10 mean age / Google-overlap)");
    println!(
        "{:>12} {:>12} {:>14}",
        "variant", "mean age (d)", "overlap vs G"
    );
    for (label, engine) in [("boosted", &with_boost), ("no-boost", &no_boost)] {
        let mut ages = Vec::new();
        let mut overlaps = Vec::new();
        for q in &queries {
            let serp = engine.search(q, 10);
            ages.extend(serp.results.iter().map(|r| r.age_days));
            let g: Vec<String> = google
                .search(q, 10)
                .results
                .iter()
                .map(|r| r.host.to_string())
                .collect();
            let a: Vec<String> = serp.results.iter().map(|r| r.host.to_string()).collect();
            overlaps.push(jaccard(&g, &a));
        }
        println!(
            "{label:>12} {:>12.1} {:>14.3}",
            mean(&ages),
            mean(&overlaps)
        );
    }

    let mut group = c.benchmark_group("ablation_freshness");
    group.bench_function("ai_retrieval_query", |b| {
        b.iter(|| black_box(with_boost.search(black_box("best smartwatches"), 10)))
    });
    group.finish();
}

/// Ablation 4: BM25 (k1, b) vs SERP stability.
fn ablate_bm25(c: &mut Criterion) {
    let world = world();
    let reference = SearchEngine::build(&world, RankingParams::google());
    let index = reference.index_handle();
    let queries = [
        "top 10 best smartphones 2025",
        "best hotels rewards program",
        "most reliable airlines",
    ];

    println!("\nAblation: BM25 parameters vs SERP overlap with default (k1=1.2, b=0.75)");
    println!("{:>6} {:>6} {:>16}", "k1", "b", "top-10 overlap");
    for (k1, b_param) in [
        (0.6, 0.75),
        (1.2, 0.0),
        (1.2, 0.75),
        (1.2, 1.0),
        (2.0, 0.75),
    ] {
        let mut params = RankingParams::google();
        params.bm25 = Bm25Params {
            k1,
            b: b_param,
            ..Bm25Params::default()
        };
        let variant = SearchEngine::with_index(index.clone(), params);
        let mut overlaps = Vec::new();
        for q in &queries {
            let base: Vec<String> = reference
                .search(q, 10)
                .results
                .iter()
                .map(|r| r.url.to_string())
                .collect();
            let alt: Vec<String> = variant
                .search(q, 10)
                .results
                .iter()
                .map(|r| r.url.to_string())
                .collect();
            overlaps.push(jaccard(&base, &alt));
        }
        println!("{k1:>6.1} {b_param:>6.2} {:>16.3}", mean(&overlaps));
    }

    let mut group = c.benchmark_group("ablation_bm25");
    group.bench_function("google_query", |b| {
        b.iter(|| black_box(reference.search(black_box("best credit cards cashback"), 10)))
    });
    group.finish();
}

/// Ablation: what does Google grounding buy Gemini? Compare the grounded
/// persona's overlap-with-Google against a counterfactual that retrieves
/// with generic AI parameters instead.
fn ablate_gemini_grounding(c: &mut Criterion) {
    use shift_engines::{AnswerEngines, EngineKind};

    let world = world();
    let stack = AnswerEngines::build(Arc::clone(&world));
    // Counterfactual: GPT-4o persona is the closest "ungrounded" stand-in
    // (own retrieval stack, no Google dependency).
    let queries = [
        "top 10 best smartphones 2025",
        "best laptops for students",
        "most reliable SUVs",
        "best hotels for families",
        "top rated credit cards",
        "best streaming services right now",
    ];
    let mean_overlap = |kind: EngineKind| {
        let mut total = 0.0;
        for q in &queries {
            let g = stack.answer(EngineKind::Google, q, 10, 1);
            let a = stack.answer(kind, q, 10, 1);
            total += jaccard(&g.domains(), &a.domains());
        }
        total / queries.len() as f64
    };
    println!(
        "
Ablation: Gemini grounding (overlap with Google top-10)"
    );
    println!("{:>24} {:>10}", "variant", "overlap");
    println!(
        "{:>24} {:>9.1}%",
        "grounded (Gemini)",
        100.0 * mean_overlap(EngineKind::Gemini)
    );
    println!(
        "{:>24} {:>9.1}%",
        "ungrounded (GPT-4o)",
        100.0 * mean_overlap(EngineKind::Gpt4o)
    );

    let mut group = c.benchmark_group("ablation_grounding");
    group.sample_size(10);
    group.bench_function("gemini_answer", |b| {
        b.iter(|| {
            black_box(stack.answer(EngineKind::Gemini, black_box("best smartwatches"), 10, 1))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablate_llm,
    ablate_freshness_boost,
    ablate_bm25,
    ablate_gemini_grounding
);
criterion_main!(benches);
