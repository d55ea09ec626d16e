//! Single-flight collapse of concurrent identical SERP-cache misses.
//!
//! The serving workload is heavily head-dominated (the Zipfian replay
//! in `run_serve` sends the same few queries over and over), so when a
//! popular key is cold, several workers tend to miss the
//! [`crate::SerpCache`] *at the same instant* and each re-run the
//! retrieval kernel for the same answer. The [`SingleFlight`] layer
//! sits under the cache: the first worker to register a key becomes
//! the **leader** and computes; every other worker arriving while the
//! flight is open becomes a **waiter**, blocks on the flight's
//! condvar, and receives the leader's shared result — byte-identical
//! to what its own kernel run would have produced (same normalized key
//! ⇒ same terms, params fingerprint and k ⇒ identical result list; the
//! raw-query echo is the leader's, exactly as on a
//! [`crate::SerpCache::get`] hit).
//!
//! Built on `std::sync::{Mutex, Condvar}` only — the flight table is
//! `Send + Sync` by construction, which the `AnswerEngines`
//! compile-time assertion requires. A leader holds no lock while
//! computing, so flights never serialize *distinct* keys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use shift_search::Serp;

use crate::serp_cache::SerpCacheKey;

/// One in-progress computation: the published result slot and the
/// condvar waiters sleep on until the leader publishes.
struct Flight {
    result: Mutex<Option<Arc<Serp>>>,
    cv: Condvar,
}

/// Monotonic counters describing collapse behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleFlightStats {
    /// Computations actually run (one per flight).
    pub leaders: u64,
    /// Requests that joined an open flight instead of computing.
    pub waiters: u64,
}

impl SingleFlightStats {
    /// Waiters as a fraction of all single-flight entries (0.0 when
    /// idle) — the dedup hit rate under concurrent identical misses.
    pub fn collapse_rate(&self) -> f64 {
        let total = self.leaders + self.waiters;
        if total == 0 {
            0.0
        } else {
            self.waiters as f64 / total as f64
        }
    }
}

/// The flight table: at most one in-progress computation per
/// [`SerpCacheKey`] at any instant.
pub struct SingleFlight {
    flights: Mutex<HashMap<SerpCacheKey, Arc<Flight>>>,
    leaders: AtomicU64,
    waiters: AtomicU64,
}

impl Default for SingleFlight {
    fn default() -> SingleFlight {
        SingleFlight::new()
    }
}

impl SingleFlight {
    /// An empty flight table.
    pub fn new() -> SingleFlight {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
        }
    }

    /// Runs `compute` under single-flight for `key`: the first caller
    /// to register the key computes (and is expected to populate the
    /// SERP cache inside `compute`, so latecomers hit the cache before
    /// ever reaching this table); concurrent callers with the same key
    /// block until the leader publishes and share its result.
    ///
    /// `compute` must not re-enter [`SingleFlight::run`] with the same
    /// key, and must not panic (a panicking leader would strand its
    /// waiters; kernel runs in this workspace do not panic).
    pub fn run(&self, key: &SerpCacheKey, compute: impl FnOnce() -> Arc<Serp>) -> Arc<Serp> {
        enum Role {
            Leader(Arc<Flight>),
            Waiter(Arc<Flight>),
        }
        let role = {
            let mut map = lock(&self.flights);
            match map.get(key) {
                Some(flight) => {
                    // Count the waiter at registration time, *before*
                    // blocking — so a leader (or test) can observe how
                    // many callers have joined the flight.
                    self.waiters.fetch_add(1, Ordering::Relaxed);
                    Role::Waiter(Arc::clone(flight))
                }
                None => {
                    let flight = Arc::new(Flight {
                        result: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    map.insert(key.clone(), Arc::clone(&flight));
                    self.leaders.fetch_add(1, Ordering::Relaxed);
                    Role::Leader(flight)
                }
            }
        };
        match role {
            Role::Leader(flight) => {
                let serp = compute();
                *lock(&flight.result) = Some(Arc::clone(&serp));
                flight.cv.notify_all();
                // Deregister: only the leader removes its key, and a
                // new leader can register only after this removal, so
                // the entry removed is always this flight's own.
                lock(&self.flights).remove(key);
                serp
            }
            Role::Waiter(flight) => {
                let mut slot = lock(&flight.result);
                while slot.is_none() {
                    slot = flight
                        .cv
                        .wait(slot)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                slot.clone().expect("leader published before notify")
            }
        }
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> SingleFlightStats {
        SingleFlightStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            waiters: self.waiters.load(Ordering::Relaxed),
        }
    }
}

/// Locks a mutex, recovering from poisoning (a panicked holder leaves
/// plain data we can still read).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn serp(query: &str, url: &str) -> Arc<Serp> {
        Arc::new(Serp {
            query: query.to_string(),
            results: vec![shift_search::SerpResult {
                page: shift_corpus::PageId(1),
                url: url.to_string(),
                host: "example.com".to_string(),
                score: 1.25,
                title: "t".to_string(),
                snippet: "s".to_string(),
                source_type: shift_corpus::SourceType::Earned,
                age_days: 3.0,
            }],
        })
    }

    #[test]
    fn concurrent_identical_misses_compute_exactly_once() {
        const N: usize = 8;
        let sf = Arc::new(SingleFlight::new());
        let key = SerpCacheKey::new("best laptops", 1, 10);
        let computed = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(N));
        let mut handles = Vec::new();
        for i in 0..N {
            let (sf, key, computed, barrier) = (
                Arc::clone(&sf),
                key.clone(),
                Arc::clone(&computed),
                Arc::clone(&barrier),
            );
            handles.push(std::thread::spawn(move || {
                let raw = format!("Best LAPTOPS #{i}");
                barrier.wait();
                sf.run(&key, || {
                    // The leader parks until every other thread has
                    // registered as a waiter — which makes the
                    // leader/waiter split deterministic, not a race.
                    while sf.stats().waiters < (N as u64 - 1) {
                        std::thread::yield_now();
                    }
                    computed.fetch_add(1, Ordering::Relaxed);
                    serp(&raw, "https://example.com/a")
                })
            }));
        }
        let results: Vec<Arc<Serp>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1, "kernel ran once");
        let stats = sf.stats();
        assert_eq!(stats.leaders, 1);
        assert_eq!(stats.waiters, N as u64 - 1);
        assert!((stats.collapse_rate() - (N as f64 - 1.0) / N as f64).abs() < 1e-12);
        // Every caller shares the leader's one result, echo included.
        for r in &results {
            assert!(Arc::ptr_eq(r, &results[0]));
        }
        assert_eq!(results[0].results[0].url, "https://example.com/a");
        assert_eq!(results[0].results[0].score.to_bits(), 1.25f64.to_bits());
    }

    #[test]
    fn sequential_runs_start_fresh_flights() {
        let sf = SingleFlight::new();
        let key = SerpCacheKey::new("alpha", 0, 10);
        let a = sf.run(&key, || serp("alpha", "https://a.example/1"));
        let b = sf.run(&key, || serp("alpha", "https://a.example/2"));
        // No flight open between the calls: both computed.
        assert_eq!(sf.stats().leaders, 2);
        assert_eq!(sf.stats().waiters, 0);
        assert_eq!(a.results[0].url, "https://a.example/1");
        assert_eq!(b.results[0].url, "https://a.example/2");
    }

    #[test]
    fn distinct_keys_never_collapse() {
        let sf = SingleFlight::new();
        let a = SerpCacheKey::new("alpha", 0, 10);
        let b = SerpCacheKey::new("beta", 0, 10);
        let _ = sf.run(&a, || serp("alpha", "https://a.example/1"));
        let _ = sf.run(&b, || serp("beta", "https://b.example/1"));
        assert_eq!(sf.stats().leaders, 2);
        assert_eq!(sf.stats().waiters, 0);
    }
}
