//! Service configuration.

use std::time::Duration;

use shift_engines::EngineKind;

use crate::cache::CacheConfig;
use crate::loadgen::{DiurnalCurve, OpenLoopConfig};
use crate::replica::{ReplicaConfig, TickWindow, TICKS_PER_SEC};
use crate::resilience::ResilienceConfig;
use crate::router::{RoutePolicy, RouterConfig};

/// Tunables for one [`crate::AnswerService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving the misses queued by
    /// [`crate::AnswerService::submit`] and the stale-while-revalidate
    /// refreshes. A miss of the blocking
    /// [`crate::AnswerService::answer`] runs on its caller's thread
    /// instead, so each synchronous caller adds at most one miss in
    /// flight beyond the pool's.
    pub workers: usize,
    /// Bounded depth of the admission queue behind
    /// [`crate::AnswerService::submit`]; a full queue rejects with
    /// [`crate::ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Per-request deadline, measured from admission.
    pub deadline: Duration,
    /// Upper bound on the micro-batch a worker drains from the
    /// admission queue in one go (1 disables batching). Batching is
    /// deadline-safe by construction: a worker only *takes* jobs that
    /// are already queued — it never waits for the batch to fill — so
    /// no job is served later than it would have been unbatched.
    pub batch_max: usize,
    /// Answer-cache geometry; `CacheConfig::disabled()` turns caching off.
    pub cache: CacheConfig,
    /// Retry / breaker / degradation policy;
    /// `ResilienceConfig::disabled()` restores the fail-hard behaviour.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            batch_max: 8,
            cache: CacheConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    /// Same configuration with the cache turned off (every request is
    /// computed; used for cold-path baselines and identity tests).
    pub fn without_cache(mut self) -> ServeConfig {
        self.cache = CacheConfig::disabled();
        self
    }

    /// Same configuration with resilience turned off: one attempt per
    /// request, no breaker, no degradation.
    pub fn without_resilience(mut self) -> ServeConfig {
        self.resilience = ResilienceConfig::disabled();
        self
    }

    /// Same configuration with micro-batching turned off: workers take
    /// exactly one job per queue pop.
    pub fn without_batching(mut self) -> ServeConfig {
        self.batch_max = 1;
        self
    }
}

/// One replicated-tier experiment cell: router policy, replica fleet,
/// and the open-loop arrival process that drives them.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Routing policy, failover switch, deadline, sampler seed.
    pub router: RouterConfig,
    /// The fleet, in replica-id order.
    pub replicas: Vec<ReplicaConfig>,
    /// Arrival process on the virtual clock.
    pub open_loop: OpenLoopConfig,
    /// Seed of the Zipfian query pool.
    pub workload_seed: u64,
}

impl ReplicatedConfig {
    /// A uniform fleet of `n` standard replicas under `policy` at
    /// `peak_rate` arrivals per virtual second over a 2-virtual-second
    /// horizon with the standard diurnal curve (trough 0.4). Each
    /// replica's fault stream is re-keyed with
    /// [`shift_engines::FaultPlan::for_replica`], so replica 0
    /// reproduces the single-process stream exactly and the rest draw
    /// independently.
    pub fn uniform(n: usize, policy: RoutePolicy, peak_rate: f64) -> ReplicatedConfig {
        let horizon_ticks = 2 * TICKS_PER_SEC;
        let template = ReplicaConfig::standard();
        let replicas = (0..n)
            .map(|i| {
                let mut cfg = template.clone();
                cfg.plan = template.plan.for_replica(i);
                cfg
            })
            .collect();
        ReplicatedConfig {
            router: RouterConfig {
                policy,
                ..RouterConfig::default()
            },
            replicas,
            open_loop: OpenLoopConfig {
                peak_rate_per_sec: peak_rate,
                horizon_ticks,
                diurnal: DiurnalCurve {
                    period_ticks: horizon_ticks,
                    trough: 0.4,
                },
                engines: EngineKind::ALL.to_vec(),
                top_k: 10,
                seed: 0x4152_5249_5645,
            },
            workload_seed: 77,
        }
    }

    /// Same cell with every replica's engine-fault plan derived from
    /// `plan` via [`shift_engines::FaultPlan::for_replica`].
    pub fn with_plan(mut self, plan: shift_engines::FaultPlan) -> ReplicatedConfig {
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            replica.plan = plan.for_replica(i);
        }
        self
    }

    /// Same cell with a scripted hard-down window on one replica.
    pub fn with_outage(mut self, replica: usize, window: TickWindow) -> ReplicatedConfig {
        self.replicas[replica].outages.push(window);
        self
    }

    /// Same cell with one replica's service time scaled by `speed`
    /// (the skewed-fleet scenario behind the p99-skew gate).
    pub fn with_speed(mut self, replica: usize, speed: f64) -> ReplicatedConfig {
        self.replicas[replica].speed = speed;
        self
    }

    /// Same cell with failover disabled (the baseline the failover gate
    /// compares against).
    pub fn without_failover(mut self) -> ReplicatedConfig {
        self.router.failover = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::{ReplicatedConfig, ServeConfig};
    use crate::replica::{TickWindow, TICKS_PER_SEC};
    use crate::router::RoutePolicy;

    #[test]
    fn default_is_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= c.workers);
        assert!(c.cache.capacity_per_shard > 0);
        assert!(c.batch_max >= 1);
    }

    #[test]
    fn without_batching_takes_one_job_per_pop() {
        let c = ServeConfig::default().without_batching();
        assert_eq!(c.batch_max, 1);
        assert!(ServeConfig::default().batch_max > 1);
    }

    #[test]
    fn without_cache_disables() {
        let c = ServeConfig::with_workers(2).without_cache();
        assert_eq!(c.workers, 2);
        assert_eq!(c.cache.capacity_per_shard, 0);
    }

    #[test]
    fn without_resilience_disables() {
        let c = ServeConfig::default().without_resilience();
        assert!(!c.resilience.enabled);
        assert!(ServeConfig::default().resilience.enabled);
    }

    #[test]
    fn uniform_fleet_rekeys_fault_plans_per_replica() {
        let c = ReplicatedConfig::uniform(3, RoutePolicy::RoundRobin, 500.0);
        assert_eq!(c.replicas.len(), 3);
        assert_eq!(c.router.policy, RoutePolicy::RoundRobin);
        assert!(c.router.failover);
        assert_eq!(c.open_loop.horizon_ticks, 2 * TICKS_PER_SEC);
        assert_eq!(c.open_loop.diurnal.period_ticks, c.open_loop.horizon_ticks);
        // Replica 0 keeps the template epoch (identity re-key); the rest
        // draw from distinct fault streams.
        let epochs: Vec<u64> = c.replicas.iter().map(|r| r.plan.epoch).collect();
        assert_eq!(epochs[0], c.replicas[0].plan.for_replica(0).epoch);
        assert_ne!(epochs[0], epochs[1]);
        assert_ne!(epochs[1], epochs[2]);
    }

    #[test]
    fn cell_builders_touch_only_their_target() {
        let window = TickWindow {
            start: 0,
            end: TICKS_PER_SEC,
        };
        let c = ReplicatedConfig::uniform(3, RoutePolicy::PowerOfTwoChoices, 500.0)
            .with_outage(1, window)
            .with_speed(2, 3.0)
            .without_failover();
        assert!(c.replicas[0].outages.is_empty());
        assert_eq!(c.replicas[1].outages, vec![window]);
        assert_eq!(c.replicas[2].speed, 3.0);
        assert_eq!(c.replicas[0].speed, 1.0);
        assert!(!c.router.failover);
    }
}
