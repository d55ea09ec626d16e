//! Cross-crate integration tests: the full pipeline from world generation
//! through engines to experiment results.

use std::sync::Arc;

use navigating_shift::classify::{classify_url, eval::evaluate_typology};
use navigating_shift::corpus::{World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::freshness::extract_page_date;
use navigating_shift::metrics::jaccard;
use navigating_shift::search::{RankingParams, SearchEngine};

fn world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small(), 2024))
}

#[test]
fn search_results_resolve_to_world_pages() {
    let w = world();
    let engine = SearchEngine::build(&w, RankingParams::google());
    let serp = engine.search("best laptops for students", 10);
    assert!(!serp.results.is_empty());
    for r in &serp.results {
        let pid = w.page_by_url(&r.url).expect("SERP URL resolves to a page");
        assert_eq!(w.page(pid).url, r.url);
    }
}

#[test]
fn citations_carry_consistent_typology_and_dates() {
    let w = world();
    let stack = AnswerEngines::build(w.clone());
    let answer = stack.answer(EngineKind::Perplexity, "top 10 best smartphones", 10, 1);
    assert!(!answer.citations.is_empty());
    for c in answer.citations.iter() {
        // The ground-truth source type of a citation matches the domain's.
        let page = w.page(c.page);
        assert_eq!(
            w.domain(page.domain).source_type,
            c.source_type,
            "type mismatch for {}",
            c.url
        );
        // Rule-based classification agrees with ground truth most of the
        // time — here spot-check that it at least returns something.
        assert!(classify_url(&c.url).is_some(), "unclassifiable: {}", c.url);
        // Age matches the world clock.
        assert!((c.age_days - page.age_days(w.now_day()) as f64).abs() < 0.5);
    }
}

#[test]
fn freshness_pipeline_agrees_with_world_ground_truth() {
    let w = world();
    let stack = AnswerEngines::build(w.clone());
    // Consideration phrasing — "to buy" would classify transactional and
    // trip Claude's citation reticence.
    let answer = stack.answer(EngineKind::Claude, "best electric cars 2025", 10, 2);
    let mut checked = 0;
    for c in answer.citations.iter() {
        let pid = w.page_by_url(&c.url).unwrap();
        let html = w.page_html(pid);
        if let Some(extracted) = extract_page_date(&html) {
            assert_eq!(
                extracted.published.to_day_number(),
                w.page(pid).published_day,
                "extraction disagrees with generator for {}",
                c.url
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no dated citations to check");
}

#[test]
fn typology_classifier_is_accurate_on_the_full_corpus() {
    let w = world();
    let cm = evaluate_typology(&w);
    assert!(
        cm.accuracy() > 0.9,
        "accuracy {:.3}\n{}",
        cm.accuracy(),
        cm.render()
    );
}

#[test]
fn engines_are_deterministic_end_to_end() {
    let w = world();
    let stack_a = AnswerEngines::build(w.clone());
    let stack_b = AnswerEngines::build(w.clone());
    for kind in EngineKind::ALL {
        let a = stack_a.answer(kind, "most reliable SUVs", 10, 9);
        let b = stack_b.answer(kind, "most reliable SUVs", 10, 9);
        assert_eq!(a.domains(), b.domains(), "{kind:?} answers diverge");
        assert_eq!(a.text, b.text);
    }
}

#[test]
fn google_and_ai_engines_live_in_different_domain_spaces() {
    let w = world();
    let stack = AnswerEngines::build(w.clone());
    let queries = [
        "top 10 most reliable smartphones",
        "best reviewed airlines this season",
        "best hotels for families",
    ];
    let mut overlaps = Vec::new();
    for q in &queries {
        let g = stack.answer(EngineKind::Google, q, 10, 0);
        let a = stack.answer(EngineKind::Gpt4o, q, 10, 0);
        overlaps.push(jaccard(&g.domains(), &a.domains()));
    }
    let mean = overlaps.iter().sum::<f64>() / overlaps.len() as f64;
    assert!(
        mean < 0.5,
        "GPT-4o/Google domain overlap unexpectedly high: {mean:.2}"
    );
}

#[test]
fn full_quick_study_runs_every_experiment() {
    use navigating_shift::core::study::{Study, StudyConfig};
    use navigating_shift::core::{fig1, fig2, fig3, fig4, tab1, tab2, tab3};

    // Tiny workload: this is a smoke test that the seven runners compose.
    let mut config = StudyConfig::quick();
    config.ranking_queries = 12;
    config.comparison_popular = 6;
    config.comparison_niche = 6;
    config.intent_per_class = 5;
    config.vertical_queries = 4;
    config.bias_trials = 3;
    config.perturb_runs = 3;
    config.missrate_runs = 10;
    let study = Study::generate(&config, 99);

    let f1 = fig1::run(&study);
    assert_eq!(f1.per_engine.len(), 4);
    let f2 = fig2::run(&study);
    assert_eq!(f2.per_engine.len(), 4);
    let f3 = fig3::run(&study);
    assert_eq!(f3.aggregate.len(), 5);
    let f4 = fig4::run(&study);
    assert_eq!(f4.cells.len(), 10);
    let t1 = tab1::run(&study);
    assert!(t1.popular.ss_normal.is_finite());
    let t2 = tab2::run(&study);
    assert!((-1.0..=1.0).contains(&t2.niche.0));
    let t3 = tab3::run(&study);
    assert!(!t3.rates.is_empty());

    // Every render is non-empty and mentions its artifact.
    for (render, tag) in [
        (f1.render(), "Figure 1"),
        (f2.render(), "Figure 2"),
        (f3.render(), "Figure 3"),
        (f4.render(), "Figure 4"),
        (t1.render(), "Table 1"),
        (t2.render(), "Table 2"),
        (t3.render(), "Table 3"),
    ] {
        assert!(render.contains(tag), "missing {tag}");
    }
}
