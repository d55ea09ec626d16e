//! AEO audit: the workflow the paper's §3.4 motivates — given a brand,
//! measure its *answer-engine visibility* versus its organic-search
//! visibility, and diagnose why they differ.
//!
//! For each engine we measure, across a sweep of ranking queries in the
//! brand's topic:
//!   * citation share — how often the brand's own domain is cited;
//!   * mention share — how often the brand appears in the synthesized
//!     answer's top picks;
//!   * support rate — when mentioned, how often retrieval actually backed
//!     it (the AEO-relevant gap: prior-carried vs evidence-carried).
//!
//! ```sh
//! cargo run --release --example aeo_audit -- "Toyota"
//! ```

use std::sync::Arc;

use navigating_shift::corpus::{topic_specs, World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::llm::supported_entities;

fn main() {
    let brand = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Toyota".to_string());

    let world = Arc::new(World::generate(&WorldConfig::default_scale(), 42));
    let engines = AnswerEngines::build(Arc::clone(&world));

    // Locate the brand's entities.
    let entities: Vec<_> = world
        .entities()
        .iter()
        .filter(|e| e.brand == brand)
        .collect();
    if entities.is_empty() {
        eprintln!("no entity with brand {brand:?}; try Toyota, Apple, Garmin, …");
        std::process::exit(1);
    }
    println!("AEO audit for {brand:?} — {} entities\n", entities.len());

    for entity in &entities {
        let spec = &topic_specs()[entity.topic.index()];
        let prior = engines.llm().prior(entity.id);
        println!(
            "── {} ({}; popularity {:.2}, prior strength {:.2}, prior quality {:.2})",
            entity.name, spec.display, entity.popularity, prior.strength, prior.quality
        );

        let queries: Vec<String> = [
            format!("Top 10 best {} 2025", spec.plural),
            format!("most reliable {}", spec.plural),
            format!("best {} for the money", spec.plural),
            format!("top rated {} reviewed", spec.plural),
        ]
        .to_vec();

        println!(
            "   {:<14} {:>9} {:>9} {:>9}",
            "engine", "cited", "mentioned", "supported"
        );
        for kind in EngineKind::ALL {
            let mut cited = 0usize;
            let mut mentioned = 0usize;
            let mut supported = 0usize;
            for (qi, q) in queries.iter().enumerate() {
                let answer = engines.answer(kind, q, 10, qi as u64);
                if answer
                    .citations
                    .iter()
                    .any(|c| *c.domain == entity.brand_domain)
                {
                    cited += 1;
                }
                if answer.text.contains(&entity.name) {
                    mentioned += 1;
                    if supported_entities(&answer.snippets).contains(&entity.id) {
                        supported += 1;
                    }
                }
            }
            let pct = |n: usize| format!("{:.0}%", 100.0 * n as f64 / queries.len() as f64);
            let support_rate = if mentioned == 0 {
                "-".to_string()
            } else {
                format!("{:.0}%", 100.0 * supported as f64 / mentioned as f64)
            };
            println!(
                "   {:<14} {:>9} {:>9} {:>9}",
                kind.name(),
                pct(cited),
                pct(mentioned),
                support_rate
            );
        }
        println!();
    }

    println!(
        "reading: a high mention share with a weak support rate means the\n\
         brand is carried by pre-training priors — fresh earned coverage\n\
         (not SEO positioning) is what would consolidate it (§3.4)."
    );
}
