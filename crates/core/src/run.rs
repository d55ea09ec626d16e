//! Whole-study execution: every figure and table in one call.
//!
//! [`Study::run`] executes the seven experiment runners on scoped
//! threads. Each runner derives its randomness from
//! [`Study::stage_seed`] with a stage-local label and reads the shared
//! [`Study`] immutably, so the parallel schedule cannot change any
//! result: [`Study::run`] and [`Study::run_serial`] render bit-identical
//! reports for the same seed (asserted by `parallel_run_matches_serial`).

use crate::fig1::{self, Fig1Result};
use crate::fig2::{self, Fig2Result};
use crate::fig3::{self, Fig3Result};
use crate::fig4::{self, Fig4Result};
use crate::study::Study;
use crate::tab1::{self, Tab1Result};
use crate::tab2::{self, Tab2Result};
use crate::tab3::{self, Tab3Result};

/// Every artifact of the paper, regenerated from one seed.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// Figure 1: domain overlap between engines.
    pub fig1: Fig1Result,
    /// Figure 2: popularity effects on comparison answers.
    pub fig2: Fig2Result,
    /// Figure 3: source typology by query intent.
    pub fig3: Fig3Result,
    /// Figure 4: freshness distributions per vertical.
    pub fig4: Fig4Result,
    /// Table 1: perturbation robustness (SS / ESI).
    pub tab1: Tab1Result,
    /// Table 2: pairwise consistency.
    pub tab2: Tab2Result,
    /// Table 3: citation-miss rates.
    pub tab3: Tab3Result,
}

impl StudyResults {
    /// Renders all artifacts in paper order, separated by blank lines.
    pub fn render(&self) -> String {
        [
            self.fig1.render(),
            self.fig2.render(),
            self.fig3.render(),
            self.fig4.render(),
            self.tab1.render(),
            self.tab2.render(),
            self.tab3.render(),
        ]
        .join("\n")
    }
}

impl Study {
    /// Runs every experiment concurrently on scoped threads.
    ///
    /// The seven runners are independent: they share `&self` read-only
    /// and each seeds its own RNG stream via [`Study::stage_seed`], so
    /// this is a pure wall-clock optimization with output identical to
    /// [`Study::run_serial`].
    pub fn run(&self) -> StudyResults {
        std::thread::scope(|s| {
            let f1 = s.spawn(|| fig1::run(self));
            let f2 = s.spawn(|| fig2::run(self));
            let f3 = s.spawn(|| fig3::run(self));
            let f4 = s.spawn(|| fig4::run(self));
            let t1 = s.spawn(|| tab1::run(self));
            let t2 = s.spawn(|| tab2::run(self));
            let t3 = s.spawn(|| tab3::run(self));
            StudyResults {
                fig1: f1.join().expect("fig1 runner panicked"),
                fig2: f2.join().expect("fig2 runner panicked"),
                fig3: f3.join().expect("fig3 runner panicked"),
                fig4: f4.join().expect("fig4 runner panicked"),
                tab1: t1.join().expect("tab1 runner panicked"),
                tab2: t2.join().expect("tab2 runner panicked"),
                tab3: t3.join().expect("tab3 runner panicked"),
            }
        })
    }

    /// Runs every experiment on the calling thread, in paper order.
    pub fn run_serial(&self) -> StudyResults {
        StudyResults {
            fig1: fig1::run(self),
            fig2: fig2::run(self),
            fig3: fig3::run(self),
            fig4: fig4::run(self),
            tab1: tab1::run(self),
            tab2: tab2::run(self),
            tab3: tab3::run(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::study::{Study, StudyConfig};

    #[test]
    fn parallel_run_matches_serial() {
        let study = Study::generate(&StudyConfig::quick(), 20251101);
        let parallel = study.run().render();
        let serial = study.run_serial().render();
        assert_eq!(parallel, serial, "parallel schedule changed results");
        assert!(
            parallel.contains("GPT-4o"),
            "report looks empty:\n{parallel}"
        );
    }
}
