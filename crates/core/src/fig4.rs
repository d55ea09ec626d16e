//! Figure 4 — article-age distributions by engine and vertical.
//!
//! Protocol (§2.3): curated ranking-style queries in two verticals
//! (consumer electronics, automotive); for each engine take up to ten
//! returned links per query, fetch the page, extract the publication date
//! **from the HTML** (meta / JSON-LD / `<time>` / body text — the full
//! `shift-freshness` pipeline, not the generator's ground truth), and
//! compute source age in days. Reports median ages and distributions.

use shift_corpus::Vertical;
use shift_engines::EngineKind;
use shift_freshness::extract_page_date;
use shift_metrics::{Histogram, Summary};
use shift_queries::vertical_queries;

use crate::report::{f2, Table};
use crate::study::Study;

/// Age statistics for one engine in one vertical.
#[derive(Debug, Clone)]
pub struct AgeStats {
    /// Full summary of extracted ages (days).
    pub summary: Summary,
    /// 12-bin histogram over 0–720 days (plus overflow).
    pub histogram: Histogram,
    /// Citations whose page yielded no extractable date (dropped, as the
    /// paper drops undatable pages).
    pub undatable: usize,
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// `(vertical, engine, stats)` for each cell.
    pub cells: Vec<(Vertical, EngineKind, AgeStats)>,
    /// Queries per vertical.
    pub queries_per_vertical: usize,
}

impl Fig4Result {
    /// Median age for one engine in one vertical.
    pub fn median(&self, vertical: Vertical, kind: EngineKind) -> Option<f64> {
        self.cells
            .iter()
            .find(|(v, k, _)| *v == vertical && *k == kind)
            .map(|(_, _, s)| s.summary.median)
    }

    /// Renders medians and sparkline distributions.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 4 — article age by engine and vertical ({} queries/vertical)\n\n",
            self.queries_per_vertical
        );
        for vertical in [Vertical::ConsumerElectronics, Vertical::Automotive] {
            let mut t = Table::new(vec![
                "engine",
                "median age (d)",
                "p25",
                "p75",
                "n",
                "distribution 0–720d",
            ]);
            for (v, kind, stats) in &self.cells {
                if *v != vertical {
                    continue;
                }
                t.row(vec![
                    kind.name().to_string(),
                    f2(stats.summary.median),
                    f2(stats.summary.p25),
                    f2(stats.summary.p75),
                    stats.summary.count.to_string(),
                    stats.histogram.ascii_sparkline(),
                ]);
            }
            out.push_str(&format!("{}:\n{}\n", vertical.label(), t.render()));
        }
        out
    }
}

/// Runs the Figure 4 experiment.
pub fn run(study: &Study) -> Fig4Result {
    let stack = study.engines();
    let world = study.world();
    let k = study.config().top_k;
    let n = study.config().vertical_queries;
    let now = world.now_date();
    let seed = study.stage_seed("fig4-run");

    let mut cells = Vec::new();
    for vertical in [Vertical::ConsumerElectronics, Vertical::Automotive] {
        let queries = vertical_queries(world, vertical, n, study.stage_seed("fig4-queries"));
        for kind in EngineKind::ALL {
            let mut ages: Vec<f64> = Vec::new();
            let mut undatable = 0usize;
            for q in &queries {
                let answer = stack.answer(kind, &q.text, k, seed);
                for c in answer.citations.iter() {
                    // Real extraction path: URL → page → rendered HTML →
                    // freshness pipeline.
                    let Some(pid) = world.page_by_url(&c.url) else {
                        undatable += 1;
                        continue;
                    };
                    let html = world.page_html(pid);
                    match extract_page_date(&html) {
                        Some(d) => ages.push(f64::from(d.age_days(now))),
                        None => undatable += 1,
                    }
                }
            }
            let mut histogram = Histogram::new(0.0, 720.0, 12);
            histogram.record_all(&ages);
            cells.push((
                vertical,
                kind,
                AgeStats {
                    summary: Summary::of(&ages),
                    histogram,
                    undatable,
                },
            ));
        }
    }

    Fig4Result {
        cells,
        queries_per_vertical: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn result() -> Fig4Result {
        let study = Study::generate(&StudyConfig::quick(), 1212);
        run(&study)
    }

    #[test]
    fn every_cell_has_observations() {
        let r = result();
        assert_eq!(r.cells.len(), 10); // 2 verticals × 5 engines
        for (v, k, stats) in &r.cells {
            assert!(
                stats.summary.count > 5,
                "{:?}/{:?} has only {} dated citations",
                v,
                k,
                stats.summary.count
            );
        }
    }

    #[test]
    fn ai_engines_cite_fresher_than_google() {
        let r = result();
        for vertical in [Vertical::ConsumerElectronics, Vertical::Automotive] {
            let google = r.median(vertical, EngineKind::Google).unwrap();
            for kind in [EngineKind::Claude, EngineKind::Gpt4o] {
                let m = r.median(vertical, kind).unwrap();
                assert!(
                    m < google,
                    "{kind:?} median {m:.0}d must beat Google {google:.0}d in {}",
                    vertical.label()
                );
            }
        }
    }

    #[test]
    fn automotive_ages_exceed_consumer_electronics() {
        let r = result();
        for kind in EngineKind::ALL {
            let ce = r.median(Vertical::ConsumerElectronics, kind).unwrap();
            let auto = r.median(Vertical::Automotive, kind).unwrap();
            assert!(
                auto > ce,
                "{kind:?}: automotive {auto:.0}d must exceed CE {ce:.0}d"
            );
        }
    }

    #[test]
    fn histograms_cover_observations() {
        let r = result();
        for (_, _, stats) in &r.cells {
            assert_eq!(stats.histogram.total(), stats.summary.count as u64);
        }
    }

    #[test]
    fn render_lists_both_verticals() {
        let s = result().render();
        assert!(s.contains("consumer-electronics"));
        assert!(s.contains("automotive"));
        assert!(s.contains("median age"));
    }
}
