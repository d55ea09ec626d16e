//! `serp` — interactive-free SERP/answer inspector for one query.
//!
//! ```text
//! Usage: serp <query> [--engine google|gpt4o|claude|gemini|perplexity|all]
//!             [--seed N] [--k N] [--scale small|default|large] [--stats]
//! ```
//!
//! Prints the chosen engine's citations (typology, age, domain) and its
//! synthesized answer — the developer's window into what the experiment
//! runners see.

use std::sync::Arc;

use shift_corpus::stats::WorldStats;
use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(query) = args.next() else {
        eprintln!(
            "Usage: serp <query> [--engine NAME|all] [--seed N] [--k N] [--scale S] [--stats]"
        );
        std::process::exit(2);
    };
    let mut engine = "all".to_string();
    let mut seed = 42u64;
    let mut k = 10usize;
    let mut scale = "default".to_string();
    let mut show_stats = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => engine = args.next().expect("--engine needs a value"),
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("u64")
            }
            "--k" => {
                k = args
                    .next()
                    .expect("--k needs a value")
                    .parse()
                    .expect("usize")
            }
            "--scale" => scale = args.next().expect("--scale needs a value"),
            "--stats" => show_stats = true,
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let config = match scale.as_str() {
        "small" => WorldConfig::small(),
        "default" => WorldConfig::default_scale(),
        "large" => WorldConfig::large(),
        other => {
            eprintln!("unknown scale {other:?}");
            std::process::exit(2);
        }
    };
    let world = Arc::new(World::generate(&config, seed));
    if show_stats {
        eprintln!("{}", WorldStats::of(&world).render());
    }
    let stack = AnswerEngines::build(Arc::clone(&world));

    let kinds: Vec<EngineKind> = if engine == "all" {
        EngineKind::ALL.to_vec()
    } else {
        match EngineKind::ALL.iter().find(|e| e.slug() == engine) {
            Some(e) => vec![*e],
            None => {
                eprintln!("unknown engine {engine:?} (google|gpt4o|claude|gemini|perplexity|all)");
                std::process::exit(2);
            }
        }
    };

    for kind in kinds {
        let answer = stack.answer(kind, &query, k, seed);
        println!("── {} ({} citations)", kind.name(), answer.citations.len());
        for c in answer.citations.iter() {
            println!(
                "  [{:<6}] {:>5.0}d  {:<26} {}",
                c.source_type.label(),
                c.age_days,
                c.domain,
                c.url
            );
        }
        if !answer.text.is_empty() {
            println!("  {}", answer.text);
        }
        println!();
    }
}
