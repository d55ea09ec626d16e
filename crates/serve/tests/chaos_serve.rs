//! Deterministic chaos tests: the fault-injection + resilience subsystem
//! end to end. Every scenario is seeded — no test here can flake on
//! thread timing, because fault decisions live on seeds and phases, not
//! wall clocks.

use std::sync::Arc;

use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineAnswer, EngineKind, FaultDecision, QueryScratch};
use shift_serve::{
    run_chaos, AnswerService, BreakerState, CacheConfig, CacheKey, ChaosConfig, Degradation,
    EngineError, FallibleEngines, FaultInjector, FaultPlan, OutageWindow, Request,
    ResilienceConfig, ServeConfig, ServeError,
};

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

/// A plan that takes every engine fully down: only degradation can serve.
fn total_outage_plan() -> FaultPlan {
    FaultPlan {
        outages: EngineKind::ALL
            .iter()
            .map(|&engine| OutageWindow {
                engine,
                start: 0.0,
                end: 1.0,
            })
            .collect(),
        ..FaultPlan::zero(3)
    }
}

#[test]
fn same_seed_same_chaos_report() {
    let stack = engines();
    let mut config = ChaosConfig::standard(FaultPlan::standard(7));
    config.requests = 300;
    let first = run_chaos(&stack, &config);
    let second = run_chaos(&stack, &config);
    assert_eq!(
        first, second,
        "identical plan + seeds must reproduce the availability report bit for bit"
    );
    assert_eq!(first.resilient.total(), 300);
    assert_eq!(first.baseline.total(), 300);
}

#[test]
fn resilience_at_least_doubles_availability_under_standard_plan() {
    let stack = engines();
    let config = ChaosConfig::standard(FaultPlan::standard(1));
    let report = run_chaos(&stack, &config);

    // The ladder bottoms out at the local SERP, so the resilient run
    // answers everything the injector throws at it.
    assert!(
        report.availability_resilient() > 0.99,
        "resilient availability {:.3} should be ~1.0",
        report.availability_resilient()
    );
    // The fail-hard baseline eats the raw fault rates: ~50 % of
    // generative attempts fail and the Gemini outage takes out a fifth
    // of the rotation entirely.
    assert!(
        report.availability_baseline() < 0.60,
        "baseline availability {:.3} should reflect the injected faults",
        report.availability_baseline()
    );
    assert!(
        report.ratio() >= 2.0,
        "resilience must at least double availability, got {:.2}x",
        report.ratio()
    );
    // Both degradation rungs must actually fire under the standard plan:
    // stale serves for repeat queries whose retries all failed, SERP
    // fallbacks for (at least) the Gemini outage traffic.
    assert!(report.resilient.served_stale > 0, "stale rung never fired");
    assert!(
        report.resilient.served_degraded > report.resilient.served_stale,
        "SERP rung never fired"
    );
    // The baseline run has no ladder at all.
    assert_eq!(report.baseline.served_degraded, 0);
    assert_eq!(report.baseline.served_stale, 0);
}

#[test]
fn stale_fallback_returns_exact_cached_bytes() {
    let stack = engines();
    let query = "best laptops for students";
    let (engine, top_k, seed) = (EngineKind::Claude, 10, 21u64);
    // The answer we expect back, computed on the bare stack.
    let expected = stack.answer(engine, query, top_k, seed);

    let mut config = ServeConfig::with_workers(1);
    config.cache = CacheConfig::always_stale();
    config.resilience = ResilienceConfig {
        degrade_to_serp: false,
        ..ResilienceConfig::default()
    };
    let service = AnswerService::start_chaos(
        FaultInjector::new(Arc::clone(&stack), total_outage_plan()),
        config,
    );
    // Stock the (instantly stale) cache entry the degradation ladder
    // should find.
    let key = CacheKey::new(engine, query, top_k, seed);
    service.cache().insert(key, expected.clone());

    let served = service
        .answer(Request::new(engine, query, top_k, seed))
        .expect("stale rung must serve despite the total outage");
    assert_eq!(served.degradation, Degradation::Stale);
    assert_eq!(
        fingerprint(&served.answer),
        fingerprint(&expected),
        "a stale serve must return the exact cached bytes"
    );
    let snap = service.shutdown();
    assert_eq!(snap.served_stale, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.cache.stale_hits, 1);
}

#[test]
fn serp_fallback_when_no_stale_entry_exists() {
    let stack = engines();
    let service = AnswerService::start_chaos(
        FaultInjector::new(Arc::clone(&stack), total_outage_plan()),
        ServeConfig::with_workers(1).without_cache(),
    );
    let served = service
        .answer(Request::new(
            EngineKind::Gpt4o,
            "suv comparison 2025",
            10,
            4,
        ))
        .expect("SERP rung must serve despite the total outage");
    assert_eq!(served.degradation, Degradation::SerpFallback);
    assert_eq!(
        served.answer.engine,
        EngineKind::Google,
        "the last rung is the organic Google SERP"
    );
    assert!(
        !served.answer.citations.is_empty(),
        "a SERP fallback is a citation-only answer — it must carry citations"
    );
    let snap = service.shutdown();
    assert_eq!(snap.served_degraded, 1);
    assert_eq!(snap.served_stale, 0);
}

#[test]
fn degraded_unavailable_when_ladder_is_empty() {
    let stack = engines();
    let mut config = ServeConfig::with_workers(1);
    config.cache = CacheConfig::always_stale();
    config.resilience = ResilienceConfig {
        degrade_to_serp: false,
        ..ResilienceConfig::default()
    };
    let service = AnswerService::start_chaos(
        FaultInjector::new(Arc::clone(&stack), total_outage_plan()),
        config,
    );
    // Nothing was ever cached for this key, and SERP fallback is off.
    let err = service
        .answer(Request::new(
            EngineKind::Perplexity,
            "uncached query",
            10,
            8,
        ))
        .expect_err("an empty ladder must fail typed");
    assert_eq!(
        err,
        ServeError::DegradedUnavailable {
            engine: EngineKind::Perplexity
        }
    );
    let snap = service.shutdown();
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.completed, 0);
}

#[test]
fn breaker_walks_its_states_under_scripted_failures() {
    let stack = engines();
    let engine = EngineKind::Gpt4o;
    let mut config = ServeConfig::with_workers(1).without_cache();
    config.resilience = ResilienceConfig {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: 3,
        degrade_to_stale: false,
        degrade_to_serp: false,
        ..ResilienceConfig::default()
    };
    let plan = FaultPlan {
        outages: vec![OutageWindow {
            engine,
            start: 0.0,
            end: 1.0,
        }],
        ..FaultPlan::zero(5)
    };
    let service = AnswerService::start_chaos(FaultInjector::new(Arc::clone(&stack), plan), config);

    // threshold 2, cooldown 3, one failing attempt per request:
    // two engine failures trip the breaker, three rejections cool it
    // down, the half-open probe fails and re-trips it, and so on.
    let expected = [
        ServeError::EngineFailed { engine }, // failure 1 (closed)
        ServeError::EngineFailed { engine }, // failure 2 → trips open
        ServeError::BreakerOpen { engine },  // cooldown 3
        ServeError::BreakerOpen { engine },  // cooldown 2
        ServeError::BreakerOpen { engine },  // cooldown 1
        ServeError::EngineFailed { engine }, // half-open probe fails → re-trip
        ServeError::BreakerOpen { engine },
        ServeError::BreakerOpen { engine },
        ServeError::BreakerOpen { engine },
        ServeError::EngineFailed { engine }, // next probe
    ];
    for (i, want) in expected.iter().enumerate() {
        let got = service
            .answer(Request::new(
                engine,
                &format!("scripted query {i}"),
                10,
                i as u64,
            ))
            .expect_err("total outage with an empty ladder cannot serve");
        assert_eq!(got, *want, "request {i} took the wrong breaker path");
    }
    assert_eq!(service.breakers().of(engine).state(), BreakerState::Open);
    assert_eq!(
        service.breakers().of(EngineKind::Google).state(),
        BreakerState::Closed,
        "healthy engines keep closed breakers"
    );
    let snap = service.shutdown();
    assert_eq!(snap.engine_failures, 4);
    assert_eq!(snap.breaker_rejections, 6);
    assert_eq!(snap.retries, 0, "max_retries 0 must never retry");
}

/// A test double that fails the first attempt of every request and
/// succeeds on any retry — the shape that exposes double-counting bugs.
struct FlakyFirstAttempt {
    stack: Arc<AnswerEngines>,
}

impl FallibleEngines for FlakyFirstAttempt {
    fn stack(&self) -> &AnswerEngines {
        &self.stack
    }

    fn try_answer_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
        attempt: u32,
    ) -> Result<EngineAnswer, EngineError> {
        if attempt == 0 {
            Err(EngineError::Transient)
        } else {
            Ok(self.stack.answer_with(scratch, kind, query, k, seed))
        }
    }
}

#[test]
fn retried_then_successful_request_is_counted_once() {
    let stack = engines();
    let mut config = ServeConfig::with_workers(1).without_cache();
    // Keep the breaker out of the way: every request fails exactly once,
    // and consecutive first-attempt failures must not trip anything.
    config.resilience.breaker_threshold = 1_000;
    let service = AnswerService::start_fallible(
        Arc::clone(&stack),
        Arc::new(FlakyFirstAttempt {
            stack: Arc::clone(&stack),
        }),
        config,
    );
    let n = 10u64;
    for i in 0..n {
        let served = service
            .answer(Request::new(
                EngineKind::Claude,
                &format!("flaky query {i}"),
                10,
                i,
            ))
            .expect("one retry suffices");
        assert_eq!(served.degradation, Degradation::None);
    }
    let snap = service.shutdown();
    assert_eq!(
        snap.completed, n,
        "a retried-then-successful request must be served exactly once"
    );
    assert_eq!(snap.retries, n, "each request took exactly one retry");
    assert_eq!(snap.engine_failures, n);
    assert_eq!(snap.served_degraded, 0);
    assert_eq!(snap.failed, 0);
}

#[test]
fn backoff_that_exceeds_the_budget_means_no_retry() {
    let stack = engines();
    let mut config = ServeConfig::with_workers(1).without_cache();
    // A retry would succeed (FlakyFirstAttempt), but the backoff can
    // never fit the deadline budget — so no retry may ever be taken.
    config.resilience = ResilienceConfig {
        base_backoff: std::time::Duration::from_secs(3600),
        max_backoff: std::time::Duration::from_secs(7200),
        breaker_threshold: 1_000,
        degrade_to_stale: false,
        degrade_to_serp: false,
        ..ResilienceConfig::default()
    };
    let service = AnswerService::start_fallible(
        Arc::clone(&stack),
        Arc::new(FlakyFirstAttempt {
            stack: Arc::clone(&stack),
        }),
        config,
    );
    for i in 0..5u64 {
        let err = service
            .answer(Request::new(
                EngineKind::Gemini,
                &format!("budgetless query {i}"),
                10,
                i,
            ))
            .expect_err("without a retry the first attempt's failure is final");
        assert_eq!(
            err,
            ServeError::EngineFailed {
                engine: EngineKind::Gemini
            }
        );
    }
    let snap = service.shutdown();
    assert_eq!(
        snap.retries, 0,
        "a backoff that exceeds the remaining budget must never be taken"
    );
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.failed, 5);
}

#[test]
fn zero_fault_plan_is_byte_identical_to_the_non_resilient_path() {
    let stack = engines();
    // Resilience armed behind a zero-fault injector...
    let chaos = AnswerService::start_chaos(
        FaultInjector::new(Arc::clone(&stack), FaultPlan::zero(9)),
        ServeConfig::with_workers(1).without_cache(),
    );
    // ...versus the bare fail-hard path with no injector at all.
    let plain = AnswerService::start(
        Arc::clone(&stack),
        ServeConfig::with_workers(1)
            .without_cache()
            .without_resilience(),
    );
    for i in 0..25u64 {
        let engine = EngineKind::ALL[(i % 5) as usize];
        let req = Request::new(engine, &format!("identity probe {i}"), 10, i);
        let a = chaos.answer(req.clone()).expect("zero plan cannot fail");
        let b = plain.answer(req).expect("infallible stack");
        assert_eq!(a.degradation, Degradation::None);
        assert_eq!(
            fingerprint(&a.answer),
            fingerprint(&b.answer),
            "zero-fault resilient serving must not perturb answer bytes ({engine:?})"
        );
    }
    let snap = chaos.shutdown();
    assert_eq!(snap.retries, 0);
    assert_eq!(snap.engine_failures, 0);
    assert_eq!(snap.served_degraded, 0);
    plain.shutdown();
}

#[test]
fn injected_panics_fail_once_each_and_both_paths_keep_serving() {
    let stack = engines();
    let plan = FaultPlan {
        panic_rate: 0.25,
        ..FaultPlan::zero(9)
    };
    let service = AnswerService::start_chaos(
        FaultInjector::new(Arc::clone(&stack), plan.clone()),
        ServeConfig::with_workers(2).without_cache(),
    );
    let request = |i: u64| {
        Request::new(
            EngineKind::ALL[(i % 5) as usize],
            &format!("best phone under {}", 100 + 10 * i),
            10,
            i,
        )
    };
    // Without a cache every request makes exactly one attempt, and a
    // panic is never retried: it draws a panic iff attempt 0 does.
    let panics = |r: &Request| plan.decide(r.engine, r.seed, 0) == FaultDecision::Panic;
    let queued: Vec<Request> = (0..40).map(request).collect();
    let inline: Vec<Request> = (40..80).map(request).collect();
    let drawn = |rs: &[Request]| rs.iter().filter(|r| panics(r)).count() as u64;
    assert!(
        drawn(&queued) > 0 && drawn(&inline) > 0,
        "both paths draw panics"
    );

    // The queued half runs on the pool while the inline half runs on this
    // thread.
    let pending: Vec<_> = queued
        .iter()
        .map(|r| service.submit(r.clone()).expect("the queue fits 40"))
        .collect();
    for r in &inline {
        match service.answer(r.clone()) {
            Ok(served) => assert!(!panics(r) && served.degradation == Degradation::None),
            Err(err) => assert!(panics(r) && err == ServeError::WorkerLost, "{err}"),
        }
    }
    for (r, p) in queued.iter().zip(pending) {
        match p.wait() {
            Ok(served) => assert!(!panics(r) && served.degradation == Degradation::None),
            Err(err) => assert!(panics(r) && err == ServeError::WorkerLost, "{err}"),
        }
    }
    let expected = drawn(&queued) + drawn(&inline);
    let snap = service.snapshot();
    assert_eq!(snap.worker_panics, expected, "one panic per panic draw");
    assert_eq!(snap.failed, expected, "each panic fails its request once");
    assert_eq!(snap.completed, 80 - expected, "one outcome per request");
    assert_eq!(snap.timed_out, 0);

    // The pool and the calling thread both still serve.
    let clean = (1000..)
        .map(request)
        .find(|r| !panics(r))
        .expect("a request without a panic draw");
    service
        .submit(clean.clone())
        .expect("the queue has room")
        .wait()
        .expect("the pool still serves");
    service
        .answer(clean)
        .expect("the calling thread still serves");
    let snap = service.shutdown();
    assert_eq!(snap.completed, 82 - expected);
    assert_eq!(snap.kernel.scratch_fallbacks, 0);
}
