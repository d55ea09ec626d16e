//! The paper study path: `Study::generate(StudyConfig::paper())` and the
//! seven runners, called serially in paper order the way `run_study`
//! calls them.
//!
//! The study is not a timed workload of its own. On the shared 2-vCPU
//! host its pass time drifted by up to 1.8× within minutes while the
//! serving workloads moved by 15–35% in the same phases, so its spread
//! between runs of the same code exceeded the widest bound the benchmark
//! allows. Every `serve_cold` run checks the study's output instead, and
//! its traced run times the runners as the `core` layer.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use shift_core::study::{Study, StudyConfig};
use shift_core::{fig1, fig2, fig3, fig4, tab1, tab2, tab3};

use crate::{Reference, Run};

/// The runners in paper order, with their per-layer metric names.
const RUNNERS: [&str; 7] = [
    "core.fig1_s",
    "core.fig2_s",
    "core.fig3_s",
    "core.fig4_s",
    "core.tab1_s",
    "core.tab2_s",
    "core.tab3_s",
];

/// FNV-1a over the `Debug` bytes of each artifact: every digit of every
/// number the study reports.
fn digest_of(h: &mut u64, artifact: &impl Debug) {
    for b in format!("{artifact:?}").bytes().chain([0]) {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs the seven runners once; returns each runner's wall time and the
/// digest of all seven artifacts.
fn run_runners(study: &Study) -> ([Duration; 7], u64) {
    let mut times = [Duration::ZERO; 7];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut timed = |i: usize, run: &dyn Fn() -> Box<dyn Debug>| {
        let t = Instant::now();
        let artifact = run();
        times[i] = t.elapsed();
        digest_of(&mut digest, &artifact);
    };
    timed(0, &|| Box::new(fig1::run(study)));
    timed(1, &|| Box::new(fig2::run(study)));
    timed(2, &|| Box::new(fig3::run(study)));
    timed(3, &|| Box::new(fig4::run(study)));
    timed(4, &|| Box::new(tab1::run(study)));
    timed(5, &|| Box::new(tab2::run(study)));
    timed(6, &|| Box::new(tab3::run(study)));
    (times, digest)
}

/// Checks the seven artifacts of the study at the reference seed against
/// the recorded digest. With `timed`, also runs the study of `seed` and
/// records each runner's wall time as its `core.*_s` metric.
pub fn check(seed: u64, reference: &Reference, timed: bool, run: &mut Run) {
    let config = StudyConfig::paper();
    let (_, digest) = run_runners(&Study::generate(&config, reference.study_seed));
    if digest != reference.study_digest {
        run.checks.push(format!(
            "study digest at seed {} is {digest:016x}, recorded {:016x}",
            reference.study_seed, reference.study_digest
        ));
    }
    if timed {
        let (times, _) = run_runners(&Study::generate(&config, seed));
        for (name, t) in RUNNERS.iter().zip(times) {
            run.metrics.insert((*name).into(), t.as_secs_f64());
        }
    }
}
