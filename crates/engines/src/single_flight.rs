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

use crate::route_hash::RouteHashed;
use crate::serp_cache::SerpCacheKey;

/// One in-progress computation: the published outcome and the condvar
/// waiters sleep on until the leader publishes.
struct Flight {
    outcome: Mutex<Outcome>,
    cv: Condvar,
}

/// What a flight's leader has published so far.
enum Outcome {
    /// The leader is still computing.
    Pending,
    /// The leader's result, shared by every waiter.
    Done(Arc<Serp>),
    /// The leader unwound out of its computation; waiters register
    /// again, and one of them leads a fresh flight.
    Abandoned,
}

/// A leader's obligation to land its flight: dropping it publishes the
/// outcome, wakes the waiters and deregisters the key. It is dropped on
/// the normal return and on unwinding alike, so a panicking `compute`
/// publishes [`Outcome::Abandoned`] instead of stranding its waiters
/// and leaking the key.
struct Landing<'a> {
    table: &'a SingleFlight,
    key: &'a SerpCacheKey,
    flight: Arc<Flight>,
    outcome: Outcome,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        *lock(&self.flight.outcome) = std::mem::replace(&mut self.outcome, Outcome::Abandoned);
        self.flight.cv.notify_all();
        // Deregister: only the leader removes its key, and a new leader
        // can register only after this removal, so the entry removed is
        // always this flight's own.
        lock(&self.table.flights).remove(self.key);
    }
}

/// Monotonic counters describing collapse behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleFlightStats {
    /// Computations actually run (one per flight).
    pub leaders: u64,
    /// Requests that joined an open flight instead of computing (a
    /// waiter of an abandoned flight counts again when it registers
    /// anew).
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

/// A caller's part in a flight.
enum Role {
    Leader(Arc<Flight>),
    Waiter(Arc<Flight>),
}

/// The flight table: at most one in-progress computation per
/// [`SerpCacheKey`] at any instant.
pub struct SingleFlight {
    flights: Mutex<HashMap<SerpCacheKey, Arc<Flight>, RouteHashed>>,
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
            flights: Mutex::new(HashMap::with_hasher(RouteHashed)),
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
    /// If `compute` panics, the panic propagates to the leader's caller
    /// and the flight is abandoned: its waiters register again, one of
    /// them computes as the new leader, and the key stays usable.
    /// `compute` must not re-enter [`SingleFlight::run`] with the same
    /// key.
    pub fn run(&self, key: &SerpCacheKey, compute: impl FnOnce() -> Arc<Serp>) -> Arc<Serp> {
        let flight = loop {
            match self.register(key) {
                Role::Leader(flight) => break flight,
                Role::Waiter(flight) => {
                    let mut outcome = lock(&flight.outcome);
                    loop {
                        match &*outcome {
                            Outcome::Pending => {
                                outcome = flight
                                    .cv
                                    .wait(outcome)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                            }
                            Outcome::Done(serp) => return Arc::clone(serp),
                            Outcome::Abandoned => break,
                        }
                    }
                }
            }
        };
        let mut landing = Landing {
            table: self,
            key,
            flight,
            outcome: Outcome::Abandoned,
        };
        let serp = compute();
        landing.outcome = Outcome::Done(Arc::clone(&serp));
        serp
    }

    /// Joins the open flight for `key`, or opens one and leads it.
    fn register(&self, key: &SerpCacheKey) -> Role {
        let mut map = lock(&self.flights);
        match map.get(key) {
            Some(flight) => {
                // Count the waiter at registration time, *before*
                // blocking — so a leader (or test) can observe how many
                // callers have joined the flight.
                self.waiters.fetch_add(1, Ordering::Relaxed);
                Role::Waiter(Arc::clone(flight))
            }
            None => {
                let flight = Arc::new(Flight {
                    outcome: Mutex::new(Outcome::Pending),
                    cv: Condvar::new(),
                });
                map.insert(key.clone(), Arc::clone(&flight));
                self.leaders.fetch_add(1, Ordering::Relaxed);
                Role::Leader(flight)
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
/// plain data we can still read). The SERP cache's shards lock through
/// it too.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    fn serp(query: &str, url: &str) -> Arc<Serp> {
        Arc::new(Serp {
            query: query.to_string(),
            results: vec![shift_search::SerpResult {
                page: shift_corpus::PageId(1),
                url: url.into(),
                host: "example.com".into(),
                score: 1.25,
                title: "t".into(),
                snippet: "s".into(),
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
        assert_eq!(&*results[0].results[0].url, "https://example.com/a");
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
        assert_eq!(&*a.results[0].url, "https://a.example/1");
        assert_eq!(&*b.results[0].url, "https://a.example/2");
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

    #[test]
    fn a_panicking_leader_hands_its_key_to_a_waiter() {
        const WAITERS: usize = 4;
        const PATIENCE: Duration = Duration::from_secs(20);
        let sf = Arc::new(SingleFlight::new());
        let key = SerpCacheKey::new("best laptops", 1, 10);
        let leader = {
            let (sf, key) = (Arc::clone(&sf), key.clone());
            std::thread::spawn(move || {
                sf.run(&key, || {
                    // Panic only once every waiter has joined the flight.
                    while sf.stats().waiters < WAITERS as u64 {
                        std::thread::yield_now();
                    }
                    panic!("leader fails mid-computation");
                })
            })
        };
        while sf.stats().leaders == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        let waiters: Vec<_> = (0..WAITERS)
            .map(|i| {
                let (sf, key, tx) = (Arc::clone(&sf), key.clone(), tx.clone());
                std::thread::spawn(move || {
                    let url = format!("https://example.com/{i}");
                    let _ = tx.send(sf.run(&key, || serp("best laptops", &url)));
                })
            })
            .collect();
        // A stranded waiter never sends: time out instead of hanging.
        let served: Vec<Arc<Serp>> = (0..WAITERS)
            .map(|_| {
                rx.recv_timeout(PATIENCE)
                    .expect("every waiter of a failed flight gets a result")
            })
            .collect();
        for waiter in waiters {
            waiter.join().expect("a waiter returns normally");
        }
        assert!(
            leader.join().is_err(),
            "the leader's panic reaches its caller"
        );
        assert!(served.iter().all(|s| s.results.len() == 1));
        // The key is free again: a later caller leads its own flight.
        let later = {
            let (sf, key, tx) = (Arc::clone(&sf), key.clone(), tx.clone());
            std::thread::spawn(move || {
                let url = "https://example.com/later";
                let _ = tx.send(sf.run(&key, || serp("best laptops", url)));
            })
        };
        let got = rx
            .recv_timeout(PATIENCE)
            .expect("a later caller of the key gets a result");
        later.join().unwrap();
        assert_eq!(&*got.results[0].url, "https://example.com/later");
        // The failed flight, at least one retried flight, the later one.
        assert!(sf.stats().leaders >= 3);
    }
}
