//! Freshness report: run the §2.3 date-extraction pipeline over every
//! engine's citations for one query and show *how* each date was found
//! (meta tag / JSON-LD / `<time>` / body text).
//!
//! ```sh
//! cargo run --release --example freshness_report -- "best electric cars"
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use navigating_shift::corpus::{World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::freshness::extract_page_date;
use navigating_shift::metrics::median;

fn main() {
    let query = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "best electric cars to buy".to_string());

    let world = Arc::new(World::generate(&WorldConfig::default_scale(), 42));
    let engines = AnswerEngines::build(Arc::clone(&world));
    let now = world.now_date();

    println!("freshness report for {query:?} (reference date {now})\n");

    for kind in EngineKind::ALL {
        let answer = engines.answer(kind, &query, 10, 3);
        let mut ages: Vec<f64> = Vec::new();
        let mut channels: BTreeMap<&str, usize> = BTreeMap::new();
        let mut undatable = 0usize;

        println!("{}:", kind.name());
        for c in answer.citations.iter() {
            // The real pipeline: URL → fetched HTML → extractor.
            let Some(pid) = world.page_by_url(&c.url) else {
                undatable += 1;
                continue;
            };
            let html = world.page_html(pid);
            match extract_page_date(&html) {
                Some(d) => {
                    let age = d.age_days(now);
                    ages.push(f64::from(age));
                    *channels.entry(d.source.label()).or_insert(0) += 1;
                    println!(
                        "  {:>4}d  via {:<9}  {}  {}",
                        age,
                        d.source.label(),
                        d.published.iso(),
                        c.domain
                    );
                }
                None => {
                    undatable += 1;
                    println!("     ?   no extractable date  {}", c.domain);
                }
            }
        }
        if ages.is_empty() {
            println!("  (no dated citations)\n");
            continue;
        }
        let channel_summary: Vec<String> =
            channels.iter().map(|(ch, n)| format!("{ch}×{n}")).collect();
        println!(
            "  median age {:.0} days over {} dated citations ({} undatable); channels: {}\n",
            median(&ages),
            ages.len(),
            undatable,
            channel_summary.join(", ")
        );
    }
}
