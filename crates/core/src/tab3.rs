//! Table 3 — representative citation-miss rates on SUV ranking queries.
//!
//! Protocol (§3.2.2): pose many SUV ranking queries, generate rankings
//! under normal grounding, and log how often each ranked brand appears
//! *without* snippet support. Mainstream brands (Toyota, Honda) are almost
//! always evidence-backed; tail brands (Cadillac, Infiniti) surface from
//! priors.

use shift_corpus::{topic_by_key, EntityId};
use shift_engines::EngineKind;
use shift_llm::{CitationAudit, GroundingMode};

use crate::bias::EVIDENCE_WINDOW;
use crate::report::{f2, Table};
use crate::study::Study;

/// Result of the Table 3 experiment.
#[derive(Debug, Clone)]
pub struct Tab3Result {
    /// `(brand, miss rate)` for each SUV-roster brand, in roster
    /// (popularity-descending) order.
    pub rates: Vec<(String, f64)>,
    /// Overall fraction of ranked slots lacking support.
    pub overall: f64,
    /// Ranking runs performed.
    pub runs: usize,
}

impl Tab3Result {
    /// Miss rate for one brand.
    pub fn rate(&self, brand: &str) -> Option<f64> {
        self.rates.iter().find(|(b, _)| b == brand).map(|(_, r)| *r)
    }

    /// Renders the table in the paper's layout (entities as columns).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["entity", "miss rate"]);
        for (brand, rate) in &self.rates {
            t.row(vec![brand.clone(), f2(*rate)]);
        }
        format!(
            "Table 3 — citation-miss rates, SUV queries ({} runs, overall {:.1}%)\n{}",
            self.runs,
            100.0 * self.overall,
            t.render()
        )
    }
}

/// SUV query variants posed across runs.
const SUV_QUERIES: &[&str] = &[
    "best SUVs to buy in 2025",
    "top 10 most reliable SUVs",
    "top rated SUVs for families",
    "best SUVs overall this year",
    "most recommended SUVs right now",
];

/// Runs the Table 3 experiment.
pub fn run(study: &Study) -> Tab3Result {
    let world = study.world();
    let stack = study.engines();
    let llm = stack.llm();
    let (suv_topic, spec) = topic_by_key("suvs").expect("suvs topic exists");

    // Candidates: the popular SUV roster (10 brands, Table 3's universe).
    let candidates: Vec<EntityId> = world
        .entities_of_topic(suv_topic)
        .iter()
        .copied()
        .filter(|e| world.entity(*e).is_popular())
        .collect();

    let mut audit = CitationAudit::new();
    let runs = study.config().missrate_runs;
    let base_seed = study.stage_seed("tab3");
    for run in 0..runs {
        let query = SUV_QUERIES[run % SUV_QUERIES.len()];
        // Fresh retrieval per run (the retrieval seed perturbs the GPT-4o
        // persona's per-query citation jitter, yielding varied evidence).
        let answer = stack.answer(
            EngineKind::Gpt4o,
            query,
            study.config().top_k,
            base_seed.wrapping_add(run as u64),
        );
        let mut evidence = answer.snippets.to_vec();
        evidence.retain(|s| s.entities.iter().any(|(e, _)| candidates.contains(e)));
        // Each run sees a different slice of the relevant results — real
        // retrieval fluctuates run to run. Sample the window from the top
        // 2× retained results, seeded per run.
        evidence.truncate(2 * EVIDENCE_WINDOW);
        {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                base_seed.wrapping_add(0x5A5A).wrapping_add(run as u64),
            );
            evidence.shuffle(&mut rng);
        }
        evidence.truncate(EVIDENCE_WINDOW);
        let ranked = llm.rank_entities(
            &candidates,
            &evidence,
            GroundingMode::Normal,
            base_seed.wrapping_add((run as u64) << 20),
        );
        audit.record_top_k(&ranked, study.config().top_k);
    }

    // Report in roster order — the paper's column order (popularity
    // descending).
    let rates = spec
        .popular
        .iter()
        .filter_map(|(brand, _)| {
            let entity = candidates
                .iter()
                .find(|e| world.entity(**e).brand == *brand)?;
            Some((
                (*brand).to_string(),
                audit.miss_rate(*entity).unwrap_or(0.0),
            ))
        })
        .collect();

    Tab3Result {
        rates,
        overall: audit.overall_miss_rate(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn result() -> Tab3Result {
        let study = Study::generate(&StudyConfig::quick(), 65536);
        run(&study)
    }

    #[test]
    fn covers_the_paper_roster() {
        let r = result();
        for brand in [
            "Toyota",
            "Honda",
            "Kia",
            "Chevrolet",
            "Cadillac",
            "Infiniti",
        ] {
            assert!(r.rate(brand).is_some(), "missing {brand}");
        }
    }

    #[test]
    fn mainstream_brands_rarely_miss() {
        let r = result();
        assert!(
            r.rate("Toyota").unwrap() < 0.25,
            "Toyota miss rate {:.2}",
            r.rate("Toyota").unwrap()
        );
        assert!(r.rate("Honda").unwrap() < 0.3);
    }

    #[test]
    fn tail_brands_miss_more_than_head_brands() {
        let r = result();
        let head = (r.rate("Toyota").unwrap() + r.rate("Honda").unwrap()) / 2.0;
        let tail = (r.rate("Cadillac").unwrap() + r.rate("Infiniti").unwrap()) / 2.0;
        assert!(
            tail > head,
            "tail miss rate {tail:.2} must exceed head {head:.2}"
        );
    }

    #[test]
    fn rates_are_probabilities() {
        let r = result();
        for (brand, rate) in &r.rates {
            assert!((0.0..=1.0).contains(rate), "{brand}: {rate}");
        }
        assert!((0.0..=1.0).contains(&r.overall));
    }

    #[test]
    fn overall_rate_is_nontrivial() {
        // The paper reports 16 % of ranked entities lacking support.
        let r = result();
        assert!(
            r.overall > 0.02 && r.overall < 0.7,
            "overall miss rate {:.3} implausible",
            r.overall
        );
    }

    #[test]
    fn render_contains_brands() {
        let s = result().render();
        assert!(s.contains("Toyota"));
        assert!(s.contains("Infiniti"));
        assert!(s.contains("Table 3"));
    }
}
