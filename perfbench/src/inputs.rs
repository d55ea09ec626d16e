//! Everything the program receives, generated from the workload seed:
//! the world, and the request sequences of the serving workloads.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shift_corpus::{Vertical, World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind, SerpCacheKey};
use shift_queries::{comparison_queries, intent_queries, ranking_queries, vertical_queries};
use shift_serve::{Request, Workload};

/// Answer depth of every served request (the study's top-10).
pub const TOP_K: usize = 10;

/// Paper-scale world for `seed` (the world `StudyConfig::paper` uses).
pub fn world(seed: u64) -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::default_scale(), seed))
}

/// A fresh world and engine stack, with the time it took to build.
pub fn stack(seed: u64) -> (Arc<AnswerEngines>, Duration) {
    let t = Instant::now();
    let engines = Arc::new(AnswerEngines::build(world(seed)));
    (engines, t.elapsed())
}

/// FNV-1a of a query text: the text-derived half of a request's decode
/// seed, so repeats of one query are identical (cacheable) requests.
fn text_seed(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The cold request sequence: every (engine, distinct query) pair over
/// the pooled output of all four query generators, in a seeded order.
///
/// Queries are distinct after the retrieval layer's own normalization
/// (the SERP-cache key), so no request can hit the answer cache or the
/// SERP cache of a fresh stack. Returns the requests and the number of
/// distinct queries.
pub fn cold_requests(world: &World, seed: u64) -> (Vec<Request>, usize) {
    let mut pool = ranking_queries(world, 8000, seed ^ 0x5261);
    pool.extend(comparison_queries(world, 1500, 1500, seed ^ 0x434f));
    pool.extend(intent_queries(world, 800, seed ^ 0x494e));
    for vertical in [
        Vertical::ConsumerElectronics,
        Vertical::Automotive,
        Vertical::Travel,
        Vertical::Finance,
    ] {
        pool.extend(vertical_queries(world, vertical, 400, seed ^ 0x5645));
    }
    let mut seen = HashSet::new();
    let texts: Vec<String> = pool
        .into_iter()
        .map(|q| q.text)
        .filter(|t| seen.insert(SerpCacheKey::new(t, 0, TOP_K)))
        .collect();
    let mut requests: Vec<Request> = texts
        .iter()
        .flat_map(|t| {
            EngineKind::ALL
                .iter()
                .map(move |&kind| Request::new(kind, t, TOP_K, text_seed(t) ^ seed))
        })
        .collect();
    requests.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x434f_4c44));
    (requests, texts.len())
}

/// The production traffic mix: `n` draws from `Workload::mixed` (Zipf
/// s = 1 over the pooled generators, all five engines), plus the
/// distinct requests among them, which the warm-up pass answers once.
/// Returns (sequence, warm-up set, pool size).
pub fn hot_requests(world: &World, seed: u64, n: usize) -> (Vec<Request>, Vec<Request>, usize) {
    let workload = Workload::mixed(world, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0048_4f54);
    let sequence: Vec<Request> = (0..n as u64)
        .map(|i| workload.request_at(&mut rng, i, &EngineKind::ALL, TOP_K))
        .collect();
    let mut seen = HashSet::new();
    let warm = sequence
        .iter()
        .filter(|r| seen.insert((r.engine, r.query.clone(), r.seed)))
        .cloned()
        .collect();
    (sequence, warm, workload.len())
}

/// Seeded Poisson arrival offsets at `rate` per second.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4f50_454e);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen_unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}
