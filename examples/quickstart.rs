//! Quickstart: generate a synthetic web, ask all five answer engines the
//! same question, and compare what they cite.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use navigating_shift::corpus::{World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::metrics::jaccard;

fn main() {
    // 1. A deterministic synthetic web: entities, domains, dated pages.
    let world = Arc::new(World::generate(&WorldConfig::default_scale(), 42));
    println!(
        "world: {} entities, {} domains, {} pages (reference date {})\n",
        world.entities().len(),
        world.domains().len(),
        world.pages().len(),
        world.now_date()
    );

    // 2. The five systems of the study, built over shared substrates.
    let engines = AnswerEngines::build(Arc::clone(&world));

    let query = "Top 10 most reliable smartphones";
    println!("query: {query:?}\n");

    // 3. Google's organic top-10 is the reference.
    let google = engines.answer(EngineKind::Google, query, 10, 0);
    println!("Google Search cites:");
    for c in google.citations.iter() {
        println!("  [{}] {:>4.0}d  {}", c.source_type, c.age_days, c.domain);
    }

    // 4. Each generative engine answers with its own citation policy.
    for kind in EngineKind::GENERATIVE {
        let answer = engines.answer(kind, query, 10, 7);
        let overlap = jaccard(&google.domains(), &answer.domains());
        let mix = answer.source_type_mix();
        println!(
            "\n{} (Jaccard overlap with Google: {:.1}%)",
            kind.name(),
            100.0 * overlap
        );
        println!(
            "  mix: {:.0}% brand / {:.0}% earned / {:.0}% social",
            100.0 * mix[0],
            100.0 * mix[1],
            100.0 * mix[2]
        );
        for c in answer.citations.iter().take(5) {
            println!("  [{}] {:>4.0}d  {}", c.source_type, c.age_days, c.domain);
        }
        println!("  answer: {}", answer.text);
    }
}
