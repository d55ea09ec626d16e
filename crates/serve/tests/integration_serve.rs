//! End-to-end service test: 1 000 mixed requests over 4 workers, with the
//! acceptance property of ISSUE-level importance — a cached service and an
//! uncached service produce byte-identical answers for the same seeds.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineAnswer, EngineKind};
use shift_serve::{run_load, AnswerService, CacheKey, LoadConfig, LoadMode, ServeConfig, Workload};

fn engines() -> Arc<AnswerEngines> {
    let world = Arc::new(World::generate(&WorldConfig::small(), 20251101));
    Arc::new(AnswerEngines::build(world))
}

/// Everything that makes an answer an answer, flattened for comparison.
fn fingerprint(answer: &EngineAnswer) -> String {
    let mut out = String::new();
    out.push_str(answer.engine.slug());
    out.push('\x1f');
    out.push_str(&answer.query);
    out.push('\x1f');
    out.push_str(&answer.text);
    for c in answer.citations.iter() {
        out.push('\x1f');
        out.push_str(&c.url);
    }
    for s in answer.snippets.iter() {
        out.push('\x1f');
        out.extend(s.text.pieces());
    }
    out
}

#[test]
fn thousand_mixed_requests_cached_equals_uncached() {
    let engines = engines();
    let world = engines.world_handle();
    let workload = Workload::mixed(&world, 77);
    let config = LoadConfig {
        requests: 1000,
        engines: EngineKind::ALL.to_vec(),
        top_k: 10,
        mode: LoadMode::Closed { clients: 4 },
        seed: 4242,
    };

    let cached = AnswerService::start(Arc::clone(&engines), ServeConfig::with_workers(4));
    let outcome = run_load(&cached, &workload, &config);
    assert_eq!(
        outcome.succeeded, 1000,
        "closed-loop must answer everything"
    );
    assert_eq!(outcome.total(), 1000);

    let uncached = AnswerService::start(
        Arc::clone(&engines),
        ServeConfig::with_workers(4).without_cache(),
    );
    let outcome_u = run_load(&uncached, &workload, &config);
    assert_eq!(outcome_u.succeeded, 1000);

    // Replay the unique requests of the sequence against both services
    // and demand byte-identical answers. The cached service serves these
    // from cache (the load run populated it); the uncached one recomputes.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut unique: HashMap<CacheKey, shift_serve::Request> = HashMap::new();
    for i in 0..config.requests {
        let req = workload.request_at(&mut rng, i, &config.engines, config.top_k);
        let key = CacheKey::new(req.engine, &req.query, req.top_k, req.seed);
        unique.entry(key).or_insert(req);
    }
    assert!(
        unique.len() < 1000,
        "a Zipfian mix of 1000 draws must contain repeats (got {} unique)",
        unique.len()
    );
    let mut compared = 0;
    for req in unique.values() {
        let warm = cached.answer(req.clone()).expect("cached service answers");
        let cold = uncached
            .answer(req.clone())
            .expect("uncached service answers");
        assert_eq!(
            fingerprint(&warm.answer),
            fingerprint(&cold.answer),
            "cached and uncached answers must be byte-identical for {:?} '{}'",
            req.engine,
            req.query,
        );
        compared += 1;
    }
    assert!(compared > 100, "expected a substantive unique-query set");

    let snap_cached = cached.shutdown();
    let snap_uncached = uncached.shutdown();
    assert!(
        snap_cached.cache.hits > 0,
        "Zipfian repeats must produce cache hits"
    );
    assert!(
        snap_cached.cache.hit_rate() > snap_uncached.cache.hit_rate(),
        "disabled cache must show a strictly lower hit rate"
    );
    assert_eq!(snap_cached.overloaded, 0, "closed loop cannot overload");
    assert_eq!(snap_cached.timed_out, 0);
    // Per-engine sample counts must cover all five engines.
    for engine in &snap_cached.engines {
        assert!(
            engine.summary.count > 0,
            "{} saw no traffic despite round-robin rotation",
            engine.kind.name()
        );
    }
}

#[test]
fn warm_cache_beats_cold_cache() {
    let engines = engines();
    let world = engines.world_handle();
    let workload = Workload::mixed(&world, 5);
    let config = LoadConfig {
        requests: 400,
        engines: EngineKind::ALL.to_vec(),
        top_k: 10,
        mode: LoadMode::Closed { clients: 4 },
        seed: 99,
    };
    let service = AnswerService::start(engines, ServeConfig::with_workers(4));
    run_load(&service, &workload, &config);
    let cold = service.snapshot();

    // Same sequence again: every request is now a repeat.
    run_load(&service, &workload, &config);
    let warm = service.snapshot();

    let cold_rate = cold.cache.hit_rate();
    let warm_rate = warm.cache.hit_rate();
    assert!(
        warm_rate > cold_rate,
        "second pass must raise the hit rate ({cold_rate:.3} → {warm_rate:.3})"
    );
    assert_eq!(
        warm.cache.misses, cold.cache.misses,
        "a fully warmed second pass must add no new misses"
    );
    service.shutdown();
}

/// Pins where key normalization is not idempotent: `İ` lowercases to
/// `i` plus a combining dot above (U+0307), which is not a word
/// character, so re-keying the normalized text splits the word.
#[test]
fn dotted_capital_i_key_is_not_idempotent() {
    let key = CacheKey::new(EngineKind::Claude, "İstanbul hotels", 10, 7);
    assert_eq!(key.normalized(), "i\u{307}stanbul hotels");
    let rekey = CacheKey::new(EngineKind::Claude, key.normalized(), 10, 7);
    assert_eq!(rekey.normalized(), "i stanbul hotels");
    assert_ne!(key, rekey);
}

proptest! {
    // Key normalization is idempotent on queries whose tokens lowercase
    // to word characters only: re-keying on the normalized text lands on
    // the same cache entry, whatever the original spelling. That covers
    // ASCII and every character `\PC` draws here (ASCII plus é ß λ Ж 中
    // 日 ✓ €), but not all of Unicode: a character whose lowercase adds
    // a non-word character (`İ` → `i` + U+0307) re-keys to a split
    // word, as `dotted_capital_i_key_is_not_idempotent` pins.
    #[test]
    fn cache_key_normalization_is_idempotent(raw in "\\PC{0,64}", top_k in 1usize..20) {
        let key = CacheKey::new(EngineKind::Claude, &raw, top_k, 7);
        let rekey = CacheKey::new(EngineKind::Claude, key.normalized(), top_k, 7);
        prop_assert_eq!(&key, &rekey);
        prop_assert_eq!(key.route_hash(), rekey.route_hash());
    }
}
