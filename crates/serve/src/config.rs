//! Service configuration.

use std::time::Duration;

use crate::cache::CacheConfig;
use crate::resilience::ResilienceConfig;

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

#[cfg(test)]
mod tests {
    use super::ServeConfig;

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
}
