//! Pre-training bias demo: the §3 experiments on a single query pair,
//! small enough to eyeball.
//!
//! Shows, for one popular query ("best SUVs") and one niche query
//! ("family law firms in Toronto"):
//!   * the generated ranking and which entries lacked snippet support;
//!   * how much the ranking moves when the snippets are shuffled (SS) or
//!     their entity attributions swapped (ESI), under both grounding
//!     regimes;
//!   * the pairwise-derived ranking and its Kendall τ against the one-shot
//!     ranking.
//!
//! ```sh
//! cargo run --release --example pretraining_bias
//! ```

use std::sync::Arc;

use navigating_shift::core::bias::EVIDENCE_WINDOW;
use navigating_shift::core::perturb::Perturbation;
use navigating_shift::corpus::{topic_by_key, World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineKind};
use navigating_shift::llm::GroundingMode;
use navigating_shift::metrics::{kendall_tau, mean_abs_rank_deviation};

fn main() {
    let world = Arc::new(World::generate(&WorldConfig::default_scale(), 42));
    let engines = AnswerEngines::build(Arc::clone(&world));
    let llm = engines.llm();

    for (label, topic_key, query, popular_only) in [
        ("POPULAR", "suvs", "best SUVs to buy in 2025", true),
        (
            "NICHE",
            "toronto-family-law",
            "top 10 family law firms in Toronto",
            false,
        ),
    ] {
        let (topic, _) = topic_by_key(topic_key).unwrap();
        let candidates: Vec<_> = world
            .entities_of_topic(topic)
            .iter()
            .copied()
            .filter(|e| !popular_only || world.entity(*e).is_popular())
            .collect();

        // Retrieval through the GPT-4o persona, as in the paper's setup.
        let answer = engines.answer(EngineKind::Gpt4o, query, 10, 1);
        let mut evidence = answer.snippets.to_vec();
        evidence.retain(|s| s.entities.iter().any(|(e, _)| candidates.contains(e)));
        evidence.truncate(EVIDENCE_WINDOW);

        println!("═══ {label}: {query:?}");
        println!(
            "    {} candidates, {} evidence snippets",
            candidates.len(),
            evidence.len()
        );

        let base = llm.rank_entities(&candidates, &evidence, GroundingMode::Normal, 0);
        println!("\n    one-shot ranking (normal grounding):");
        for (i, (e, support)) in base.ranking.iter().zip(&base.support).enumerate() {
            let prior = llm.prior(*e);
            println!(
                "      {:>2}. {:<28} prior {:.2}  {}",
                i + 1,
                world.entity(*e).name,
                prior.strength,
                if *support > 0.0 {
                    "evidence-backed"
                } else {
                    "PRIOR-ONLY (citation miss)"
                }
            );
        }

        for mode in [GroundingMode::Normal, GroundingMode::Strict] {
            let base = llm.rank_entities(&candidates, &evidence, mode, 0).ranking;
            for perturbation in [
                Perturbation::SnippetShuffle,
                Perturbation::EntitySwapInjection,
            ] {
                let mut total = 0.0;
                let runs = 10;
                for run in 1..=runs {
                    let perturbed_evidence = perturbation.apply(&evidence, run);
                    let perturbed = llm
                        .rank_entities(&candidates, &perturbed_evidence, mode, run)
                        .ranking;
                    total += mean_abs_rank_deviation(&base, &perturbed);
                }
                println!(
                    "    {:?} + {}: Δavg = {:.2}",
                    mode,
                    perturbation.abbrev(),
                    total / runs as f64
                );
            }
            let pairwise = llm.pairwise_ranking_for(&candidates, &evidence, mode, 0);
            let tau = kendall_tau(&base, &pairwise).unwrap_or(0.0);
            println!("    {:?} pairwise consistency: τ = {:.3}", mode, tau);
        }
        println!();
    }

    println!(
        "takeaway: popular rankings barely move (priors dominate); niche\n\
         rankings follow the evidence — and strict grounding stabilizes them."
    );
}
