//! Integration tests of the replicated serving tier: same-seed
//! byte-identity, 1-replica equivalence with the direct threaded path,
//! and failover exactness under a scripted replica outage.

use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};
use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineAnswer, EngineKind, FaultInjector, FaultPlan};
use shift_serve::{
    open_loop_arrivals, run_replicated, AnswerMemo, AnswerService, CacheConfig, Offer, Replica,
    ReplicaConfig, ReplicatedConfig, Request, ResilienceConfig, RoutePolicy, ServeConfig,
    ServeError, TickWindow, Workload, TICKS_PER_SEC,
};

fn stack() -> Arc<AnswerEngines> {
    let world = Arc::new(World::generate(&WorldConfig::small(), 97));
    Arc::new(AnswerEngines::build(world))
}

/// Everything observable about an answer, flattened for comparison.
fn fingerprint(answer: &EngineAnswer) -> String {
    let mut parts = vec![
        answer.engine.slug().to_string(),
        answer.query.to_string(),
        answer.text.to_string(),
    ];
    for c in answer.citations.iter() {
        parts.push(c.url.to_string());
    }
    for s in answer.snippets.iter() {
        parts.push(s.text.to_string());
    }
    parts.join("\x1f")
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let stack = stack();
    let config = ReplicatedConfig::uniform(3, RoutePolicy::PowerOfTwoChoices, 600.0)
        .with_plan(FaultPlan::standard(4242))
        .with_outage(
            0,
            TickWindow {
                start: TICKS_PER_SEC / 2,
                end: 3 * TICKS_PER_SEC / 2,
            },
        );
    let memo_a = Arc::new(AnswerMemo::new());
    let a = run_replicated(&stack, &config, &memo_a);
    let memo_b = Arc::new(AnswerMemo::new());
    let b = run_replicated(&stack, &config, &memo_b);
    let json_a = shift_freshness::json::to_string(&a.to_json());
    let json_b = shift_freshness::json::to_string(&b.to_json());
    assert_eq!(json_a, json_b, "same-seed tier runs must be byte-identical");
    // A pre-warmed memo cannot change a single byte: answers are pure
    // functions of (engine, query, k, seed).
    let c = run_replicated(&stack, &config, &memo_a);
    assert_eq!(
        json_a,
        shift_freshness::json::to_string(&c.to_json()),
        "sharing the answer memo must not perturb the report"
    );
    assert!(a.arrivals > 500, "the cell must actually exercise the tier");
    assert!(a.failovers > 0, "the scripted outage must cause failovers");
}

#[test]
fn one_replica_tier_matches_the_direct_path() {
    let stack = stack();
    let plan = FaultPlan::standard(4242);
    let requests = 300_u64;

    // The shared request sequence (the chaos harness shape).
    let workload = Workload::mixed(stack.world(), 77);
    let mut rng = StdRng::seed_from_u64(4242);
    let sequence: Vec<Request> = (0..requests)
        .map(|i| workload.request_at(&mut rng, i, &EngineKind::ALL, 10))
        .collect();

    // Direct path: serial threaded service under the fault injector.
    let injector = FaultInjector::new(Arc::clone(&stack), plan.clone());
    let serve = ServeConfig {
        workers: 1,
        queue_depth: 4,
        deadline: Duration::from_secs(30),
        batch_max: ServeConfig::default().batch_max,
        cache: CacheConfig::always_stale(),
        resilience: ResilienceConfig::default(),
    };
    let service = AnswerService::start_chaos(injector, serve);
    let direct: Vec<Result<(String, String), ServeError>> = sequence
        .iter()
        .map(|request| {
            service.answer(request.clone()).map(|served| {
                (
                    fingerprint(&served.answer),
                    format!("{:?}", served.degradation),
                )
            })
        })
        .collect();
    service.shutdown();

    // Routed path: one simulated replica, same plan (`for_replica(0)` is
    // the identity), widely spaced arrivals so queueing never interferes.
    let memo = Arc::new(AnswerMemo::new());
    let mut config = ReplicaConfig::standard();
    config.workers = 1;
    config.queue_depth = 4;
    config.plan = plan.for_replica(0);
    let mut replica = Replica::new(0, Arc::clone(&stack), memo, config);
    let routed: Vec<Result<(String, String), ServeError>> = sequence
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let arrival = i as u64 * TICKS_PER_SEC;
            match replica.offer(request, arrival, arrival, arrival + 30 * TICKS_PER_SEC) {
                Ok(Offer::Served(s)) => {
                    Ok((fingerprint(&s.answer), format!("{:?}", s.degradation)))
                }
                Ok(Offer::TimedOut) => Err(ServeError::TimedOut),
                Ok(Offer::Failed(err)) => Err(err),
                Err(rejected) => panic!("spaced arrivals must always start: {rejected:?}"),
            }
        })
        .collect();

    assert_eq!(
        direct, routed,
        "1-replica tier must reproduce the direct path answer-for-answer"
    );
}

#[test]
fn scripted_outage_fails_over_with_zero_failures() {
    let stack = stack();
    let window = TickWindow {
        start: TICKS_PER_SEC / 2,
        end: 3 * TICKS_PER_SEC / 2,
    };
    // Healthy engines (zero fault plan) so the only obstacle is the
    // scripted replica-0 outage; modest rate so queues never fill.
    let config =
        ReplicatedConfig::uniform(3, RoutePolicy::RoundRobin, 300.0).with_outage(0, window);
    let memo = Arc::new(AnswerMemo::new());
    let run = run_replicated(&stack, &config, &memo);

    // Zero failed requests while two replicas stay healthy.
    assert_eq!(run.outcome.total(), run.arrivals);
    assert_eq!(
        run.outcome.total() - run.outcome.succeeded,
        0,
        "failover must absorb the outage completely"
    );
    assert!((run.availability() - 1.0).abs() < 1e-12);
    assert_eq!(run.unrouteable, 0);

    // The failover counter matches the window's request span *exactly*:
    // round-robin sends request i to replica i % 3 first, so the
    // failovers are precisely the window-covered arrivals with i % 3 == 0.
    let workload = Workload::mixed(stack.world(), config.workload_seed);
    let arrivals = open_loop_arrivals(&workload, &config.open_loop);
    let expected: u64 = arrivals
        .iter()
        .enumerate()
        .filter(|(i, arrival)| i % 3 == 0 && window.covers(arrival.at))
        .count() as u64;
    assert!(expected > 0, "the window must cover some first-choice hits");
    assert_eq!(run.failovers, expected);
    assert_eq!(run.per_replica[0].failovers_away, expected);
    assert_eq!(run.per_replica[1].failovers_away, 0);
    assert_eq!(run.per_replica[2].failovers_away, 0);

    // Replica 0 still serves outside the window.
    assert!(run.per_replica[0].served > 0);

    // The no-failover baseline on the identical cell fails exactly those
    // requests instead.
    let baseline = run_replicated(&stack, &config.clone().without_failover(), &memo);
    assert_eq!(baseline.outcome.failed, expected);
    assert!(baseline.availability() < run.availability());
}
