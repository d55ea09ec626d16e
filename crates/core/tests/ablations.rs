//! Ablation sweeps over the calibration choices of DESIGN.md §7, each
//! checked for the direction it is there to show.
//!
//! Every sweep runs on the small world at the study seed and prints its
//! table (`cargo test -p shift-core --test ablations -- --nocapture`):
//!
//! 1. prior weight vs the popular snippet-shuffle Δ;
//! 2. pre-training cutoff vs mean prior strength, popular and niche;
//! 3. AI retrieval's freshness boost on and off vs mean result age and
//!    overlap with Google;
//! 4. BM25 (k1, b) vs top-10 overlap with the default parameters;
//! 5. Gemini's Google grounding vs GPT-4o's own retrieval, as overlap
//!    with Google's domains.

use std::sync::Arc;

use shift_corpus::{topic_by_key, World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind};
use shift_llm::{GroundingMode, Llm, LlmConfig};
use shift_metrics::{jaccard, mean, mean_abs_rank_deviation};
use shift_search::{Bm25Params, RankingParams, SearchEngine};

const STUDY_SEED: u64 = 20251101;

fn world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small(), STUDY_SEED))
}

/// Mean snippet-shuffle Δ of popular SUVs over ten shuffles of one
/// GPT-4o answer's evidence, per prior-weight scale.
fn prior_weight_sweep(scales: &[f64]) -> Vec<f64> {
    let world = world();
    let stack = AnswerEngines::build(Arc::clone(&world));
    let answer = stack.answer(EngineKind::Gpt4o, "best SUVs to buy in 2025", 10, 1);
    let (suv, _) = topic_by_key("suvs").unwrap();
    let candidates: Vec<_> = world
        .entities_of_topic(suv)
        .iter()
        .copied()
        .filter(|e| world.entity(*e).is_popular())
        .collect();
    scales
        .iter()
        .map(|&scale| {
            let llm = Llm::pretrain(
                &world,
                LlmConfig {
                    prior_weight_scale: scale,
                    ..LlmConfig::default()
                },
            );
            let base = llm
                .rank_entities(&candidates, &answer.snippets, GroundingMode::Normal, 0)
                .ranking;
            let deltas: Vec<f64> = (1..=10u64)
                .map(|run| {
                    let shuffled = shift_core::perturb::snippet_shuffle(&answer.snippets, run);
                    let perturbed = llm
                        .rank_entities(&candidates, &shuffled, GroundingMode::Normal, run)
                        .ranking;
                    mean_abs_rank_deviation(&base, &perturbed)
                })
                .collect();
            mean(&deltas)
        })
        .collect()
}

#[test]
fn a_stronger_prior_weight_steadies_popular_rankings() {
    let scales = [0.0, 0.25, 0.5, 0.85, 1.0];
    let deltas = prior_weight_sweep(&scales);
    println!("{:>20} {:>10}", "prior_weight_scale", "SS Δavg");
    for (scale, delta) in scales.iter().zip(&deltas) {
        println!("{scale:>20.2} {delta:>10.2}");
    }
    // The sweep is not monotone at its top (0.85 → 1.0 rises a little);
    // what it shows is that any prior weight steadies the ranking.
    for delta in &deltas[1..] {
        assert!(
            *delta < deltas[0],
            "a prior weight should shuffle popular rankings less than none: {deltas:?}"
        );
    }
}

#[test]
fn an_older_pretraining_cutoff_weakens_priors_popular_above_niche() {
    let world = world();
    let cutoffs = [0, 200, 500, 900, 100_000];
    println!(
        "{:>14} {:>16} {:>16}",
        "cutoff (days)", "popular strength", "niche strength"
    );
    let strengths: Vec<(f64, f64)> = cutoffs
        .iter()
        .map(|&cutoff| {
            let llm = Llm::pretrain(
                &world,
                LlmConfig {
                    pretrain_cutoff_days: cutoff,
                    ..LlmConfig::default()
                },
            );
            let strength_of = |popular: bool| {
                let v: Vec<f64> = world
                    .entities()
                    .iter()
                    .filter(|e| e.is_popular() == popular)
                    .map(|e| llm.prior(e.id).strength)
                    .collect();
                mean(&v)
            };
            let row = (strength_of(true), strength_of(false));
            println!("{cutoff:>14} {:>16.3} {:>16.3}", row.0, row.1);
            row
        })
        .collect();
    for pair in strengths.windows(2) {
        assert!(
            pair[1].0 <= pair[0].0 && pair[1].1 <= pair[0].1,
            "an older snapshot should never strengthen a prior: {strengths:?}"
        );
    }
    for &(popular, niche) in &strengths[..cutoffs.len() - 1] {
        assert!(
            popular > niche,
            "popular priors should be stronger than niche ones: {strengths:?}"
        );
    }
}

#[test]
fn the_freshness_boost_lowers_ai_result_age_and_google_overlap() {
    let world = world();
    let google = SearchEngine::build(&world, RankingParams::google());
    let index = google.index_handle();
    let boosted = SearchEngine::with_index(index.clone(), RankingParams::ai_retrieval());
    let mut params = RankingParams::ai_retrieval();
    params.freshness_weight = 0.0;
    let unboosted = SearchEngine::with_index(index, params);
    let queries = [
        "top 10 best smartphones 2025",
        "best laptops for students",
        "most reliable SUVs",
        "best electric cars to buy",
    ];
    println!(
        "{:>12} {:>12} {:>14}",
        "variant", "mean age (d)", "overlap vs G"
    );
    let measure = |label: &str, engine: &SearchEngine| {
        let mut ages = Vec::new();
        let mut overlaps = Vec::new();
        for q in &queries {
            let serp = engine.search(q, 10);
            ages.extend(serp.results.iter().map(|r| r.age_days));
            overlaps.push(jaccard(&google.search(q, 10).hosts(), &serp.hosts()));
        }
        let row = (mean(&ages), mean(&overlaps));
        println!("{label:>12} {:>12.1} {:>14.3}", row.0, row.1);
        row
    };
    let (boosted_age, boosted_overlap) = measure("boosted", &boosted);
    let (unboosted_age, unboosted_overlap) = measure("no-boost", &unboosted);
    assert!(
        boosted_age < unboosted_age,
        "the boost should make AI results fresher: {boosted_age:.1} vs {unboosted_age:.1} days"
    );
    assert!(
        boosted_overlap < unboosted_overlap,
        "the boost should pull AI results away from Google's: \
         {boosted_overlap:.3} vs {unboosted_overlap:.3}"
    );
}

#[test]
fn bm25_parameters_away_from_the_default_move_the_serp() {
    let world = world();
    let reference = SearchEngine::build(&world, RankingParams::google());
    let index = reference.index_handle();
    let queries = [
        "top 10 best smartphones 2025",
        "best hotels rewards program",
        "most reliable airlines",
    ];
    println!("{:>6} {:>6} {:>16}", "k1", "b", "top-10 overlap");
    for (k1, b) in [
        (0.6, 0.75),
        (1.2, 0.0),
        (1.2, 0.75),
        (1.2, 1.0),
        (2.0, 0.75),
    ] {
        let bm25 = Bm25Params {
            k1,
            b,
            ..Bm25Params::default()
        };
        let mut params = RankingParams::google();
        params.bm25 = bm25;
        let variant = SearchEngine::with_index(index.clone(), params);
        let overlaps: Vec<f64> = queries
            .iter()
            .map(|q| {
                jaccard(
                    &reference.search(q, 10).urls(),
                    &variant.search(q, 10).urls(),
                )
            })
            .collect();
        let overlap = mean(&overlaps);
        println!("{k1:>6.1} {b:>6.2} {overlap:>16.3}");
        if bm25 == Bm25Params::default() {
            assert_eq!(overlap, 1.0, "the default parameters are the reference");
        } else {
            assert!(
                overlap < 1.0,
                "k1 = {k1}, b = {b} should move some top-10 result: overlap {overlap:.3}"
            );
        }
    }
}

#[test]
fn google_grounding_brings_gemini_closer_to_google_than_gpt4o() {
    let world = world();
    let stack = AnswerEngines::build(Arc::clone(&world));
    let queries = [
        "top 10 best smartphones 2025",
        "best laptops for students",
        "most reliable SUVs",
        "best hotels for families",
        "top rated credit cards",
        "best streaming services right now",
    ];
    let mean_overlap = |kind: EngineKind| {
        let overlaps: Vec<f64> = queries
            .iter()
            .map(|q| {
                let google = stack.answer(EngineKind::Google, q, 10, 1);
                jaccard(&google.domains(), &stack.answer(kind, q, 10, 1).domains())
            })
            .collect();
        mean(&overlaps)
    };
    let grounded = mean_overlap(EngineKind::Gemini);
    let ungrounded = mean_overlap(EngineKind::Gpt4o);
    println!("{:>24} {:>10}", "variant", "overlap");
    println!("{:>24} {:>9.1}%", "grounded (Gemini)", 100.0 * grounded);
    println!("{:>24} {:>9.1}%", "ungrounded (GPT-4o)", 100.0 * ungrounded);
    assert!(
        grounded > ungrounded,
        "Gemini's grounding should overlap Google more than GPT-4o: \
         {grounded:.3} vs {ungrounded:.3}"
    );
}
