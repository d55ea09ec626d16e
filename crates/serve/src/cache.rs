//! Sharded, TTL-aware LRU answer cache.
//!
//! Keys normalize the query through [`shift_textkit::normalize_query`]
//! (the lowercased tokens of [`shift_textkit::tokenize`] joined with
//! single spaces, written in one pass into one string), so
//! `"Best Laptops  2025?"` and `"best laptops 2025"` share an entry. A
//! key is hashed once, when it is built: the shard routing and the
//! shard's map both read that one FNV-1a hash
//! ([`shift_engines::route_hash`]). Each shard is an independent
//! `std::sync::Mutex` around a slab-backed intrusive LRU list, so
//! concurrent lookups on different shards never contend. A shard lock
//! never counts as poisoned: a worker panic caught while it held one
//! leaves the cache usable.
//!
//! A lookup takes the caller's clock reading instead of reading its own:
//! the service reads the clock once at admission, and that one reading
//! serves both the TTL check and the request's latency. Expiry is lazy:
//! an entry past its TTL is treated as a miss (and reclaimed) the next
//! time it is touched.
//!
//! An [`EngineAnswer`] is an immutable shared value, so a hit hands out
//! a clone that shares the resident answer's query, text, citations and
//! snippets: a few refcount bumps under the shard lock, no allocation.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use shift_engines::{EngineAnswer, EngineKind, Fnv1a, RouteHashed};
use shift_textkit::normalize_query;

/// Geometry and policy of one [`AnswerCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1).
    pub shards: usize,
    /// LRU capacity of each shard; 0 disables the cache entirely.
    pub capacity_per_shard: usize,
    /// Time-to-live of an entry; `None` means entries never expire.
    pub ttl: Option<Duration>,
    /// Keep expired entries resident (still reported as misses by
    /// [`AnswerCache::get`]) so the resilience layer can serve them via
    /// [`AnswerCache::get_stale`] when the engine is down.
    pub keep_stale: bool,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 512,
            ttl: Some(Duration::from_secs(300)),
            keep_stale: false,
        }
    }
}

impl CacheConfig {
    /// A configuration that caches nothing.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            shards: 1,
            capacity_per_shard: 0,
            ttl: None,
            keep_stale: false,
        }
    }

    /// Every entry is stale the instant it is inserted, but stays
    /// resident for stale serving. Used by the chaos harness: the fresh
    /// fast path never fires (so every request exercises the engine and
    /// its fault injector), while the stale-degradation ladder stays
    /// fully stocked — and no wall-clock TTL race can perturb the run.
    pub fn always_stale() -> CacheConfig {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 512,
            ttl: Some(Duration::ZERO),
            keep_stale: true,
        }
    }
}

/// Identity of a cacheable answer: engine, answer depth, seed, and the
/// token-normalized query text.
///
/// The key hashes its fields once, when it is built, and keeps the hash
/// (see [`shift_engines::route_hash`]); its fields are read-only so that
/// hash cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    // First, so that comparing two keys rejects on it first.
    hash: u64,
    engine: EngineKind,
    top_k: usize,
    seed: u64,
    normalized: String,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheKey {
    /// Build a key, normalizing `query` through [`normalize_query`]:
    /// one allocation for an ASCII query, which is all a cache hit
    /// allocates on the client thread.
    pub fn new(engine: EngineKind, query: &str, top_k: usize, seed: u64) -> CacheKey {
        let normalized = normalize_query(query);
        let hash = Fnv1a::new()
            .eat(&[engine.index() as u8])
            .eat(&(top_k as u64).to_le_bytes())
            .eat(&seed.to_le_bytes())
            .eat(normalized.as_bytes())
            .finish();
        CacheKey {
            hash,
            engine,
            top_k,
            seed,
            normalized,
        }
    }

    /// Which engine answered.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Requested answer depth (top-k).
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Decode/persona seed the answer was produced with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Query text after [`normalize_query`]: the lowercased tokens
    /// joined with single spaces (punctuation and whitespace collapsed).
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// FNV-1a hash over the engine index byte, the little-endian bytes
    /// of `top_k` and `seed`, then the normalized text, computed once in
    /// [`CacheKey::new`]: it routes the key to its shard and keys the
    /// shard's map.
    pub fn route_hash(&self) -> u64 {
        self.hash
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries reclaimed because their TTL elapsed.
    pub expirations: u64,
    /// Successful inserts (including overwrites of an existing key).
    pub inserts: u64,
    /// Expired entries served anyway through [`AnswerCache::get_stale`]
    /// (the stale-while-revalidate degradation path).
    pub stale_hits: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    answer: EngineAnswer,
    inserted: Instant,
    prev: usize,
    next: usize,
}

/// One shard: a slab of entries threaded onto an intrusive MRU→LRU list,
/// plus a key→slot map. All list surgery is O(1).
struct Shard {
    map: HashMap<CacheKey, usize, RouteHashed>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::with_capacity_and_hasher(capacity, RouteHashed),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn remove_slot(&mut self, slot: usize) {
        self.unlink(slot);
        self.map.remove(&self.slab[slot].key);
        self.free.push(slot);
    }
}

/// Locks a shard. The lock never counts as poisoned, so a caught worker
/// panic cannot disable the shard. Taking the data as a panicked holder
/// left it is sound because nothing under a guard panics between two
/// list updates: they are index writes to slots the shard owns.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded TTL LRU mapping [`CacheKey`]s to [`EngineAnswer`]s.
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    ttl: Option<Duration>,
    keep_stale: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    inserts: AtomicU64,
    stale_hits: AtomicU64,
}

impl AnswerCache {
    /// Build a cache with the given geometry.
    pub fn new(config: &CacheConfig) -> AnswerCache {
        let shards = config.shards.max(1);
        AnswerCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(config.capacity_per_shard)))
                .collect(),
            capacity_per_shard: config.capacity_per_shard,
            ttl: config.ttl,
            keep_stale: config.keep_stale,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
        }
    }

    /// True when the cache stores nothing (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.capacity_per_shard == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key routes to.
    pub fn shard_for(&self, key: &CacheKey) -> usize {
        (key.route_hash() % self.shards.len() as u64) as usize
    }

    /// Live entries across all shards (expired-but-unreclaimed entries
    /// still count; they are reclaimed lazily on touch).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a key as of the caller's `now`, refreshing its recency on
    /// hit. A hit shares the resident answer rather than copying it.
    ///
    /// An entry is fresh while less than the TTL has passed between its
    /// insert and `now`. An entry inserted after `now` (by another
    /// thread, after this caller read its clock) counts as just
    /// inserted, so it is fresh unless the TTL is zero.
    pub fn get(&self, key: &CacheKey, now: Instant) -> Option<EngineAnswer> {
        if self.is_disabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = lock(&self.shards[self.shard_for(key)]);
        let Some(&slot) = shard.map.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if let Some(ttl) = self.ttl {
            if now.saturating_duration_since(shard.slab[slot].inserted) >= ttl {
                if self.keep_stale {
                    // A miss for the fresh path, but the entry stays
                    // resident for `get_stale`.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                shard.remove_slot(slot);
                self.expirations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        shard.unlink(slot);
        shard.push_front(slot);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(shard.slab[slot].answer.clone())
    }

    /// Look up a key ignoring TTL — the stale-serving degradation path.
    ///
    /// Returns whatever is resident, fresh or expired, refreshing its
    /// recency so a repeatedly stale-served entry is not the next LRU
    /// victim. Counts a `stale_hits` stat instead of a regular hit.
    pub fn get_stale(&self, key: &CacheKey) -> Option<EngineAnswer> {
        if self.is_disabled() {
            return None;
        }
        let mut shard = lock(&self.shards[self.shard_for(key)]);
        let &slot = shard.map.get(key)?;
        shard.unlink(slot);
        shard.push_front(slot);
        self.stale_hits.fetch_add(1, Ordering::Relaxed);
        Some(shard.slab[slot].answer.clone())
    }

    /// Insert (or overwrite) an answer, evicting the least-recently-used
    /// entry of the target shard if it is full.
    pub fn insert(&self, key: CacheKey, answer: EngineAnswer) {
        if self.is_disabled() {
            return;
        }
        let shard_idx = self.shard_for(&key);
        let mut shard = lock(&self.shards[shard_idx]);
        if let Some(&slot) = shard.map.get(&key) {
            shard.slab[slot].answer = answer;
            shard.slab[slot].inserted = Instant::now();
            shard.unlink(slot);
            shard.push_front(slot);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if shard.map.len() >= self.capacity_per_shard {
            let victim = shard.tail;
            debug_assert_ne!(victim, NIL);
            shard.remove_slot(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Entry {
            key: key.clone(),
            answer,
            inserted: Instant::now(),
            prev: NIL,
            next: NIL,
        };
        let slot = match shard.free.pop() {
            Some(slot) => {
                shard.slab[slot] = entry;
                slot
            }
            None => {
                shard.slab.push(entry);
                shard.slab.len() - 1
            }
        };
        shard.map.insert(key, slot);
        shard.push_front(slot);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
        }
    }

    /// Keys currently resident in one shard, MRU first (test support).
    pub fn shard_keys(&self, shard: usize) -> Vec<CacheKey> {
        let shard = lock(&self.shards[shard]);
        let mut keys = Vec::with_capacity(shard.map.len());
        let mut slot = shard.head;
        while slot != NIL {
            keys.push(shard.slab[slot].key.clone());
            slot = shard.slab[slot].next;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn answer(text: &str) -> EngineAnswer {
        EngineAnswer {
            engine: EngineKind::Google,
            query: text.into(),
            citations: Arc::new([]),
            snippets: Arc::new([]),
            text: text.into(),
        }
    }

    fn single_shard(capacity: usize) -> AnswerCache {
        AnswerCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: capacity,
            ttl: None,
            keep_stale: false,
        })
    }

    #[test]
    fn key_normalizes_case_and_punctuation() {
        let a = CacheKey::new(EngineKind::Gpt4o, "Best Laptops,  2025!?", 10, 1);
        let b = CacheKey::new(EngineKind::Gpt4o, "best laptops 2025", 10, 1);
        assert_eq!(a, b);
        let c = CacheKey::new(EngineKind::Claude, "best laptops 2025", 10, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = single_shard(2);
        let k1 = CacheKey::new(EngineKind::Google, "alpha", 10, 0);
        let k2 = CacheKey::new(EngineKind::Google, "beta", 10, 0);
        let k3 = CacheKey::new(EngineKind::Google, "gamma", 10, 0);
        cache.insert(k1.clone(), answer("a"));
        cache.insert(k2.clone(), answer("b"));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1, Instant::now()).is_some());
        cache.insert(k3.clone(), answer("c"));
        assert!(cache.get(&k1, Instant::now()).is_some());
        assert!(
            cache.get(&k2, Instant::now()).is_none(),
            "k2 should have been evicted"
        );
        assert!(cache.get(&k3, Instant::now()).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_panic_under_a_shard_lock_leaves_the_cache_usable() {
        let cache = single_shard(4);
        let k1 = CacheKey::new(EngineKind::Google, "alpha", 10, 0);
        let k2 = CacheKey::new(EngineKind::Google, "beta", 10, 0);
        cache.insert(k1.clone(), answer("a"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _shard = lock(&cache.shards[cache.shard_for(&k1)]);
            panic!("worker panic under the shard lock");
        }));
        assert!(caught.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert_eq!(&*cache.get(&k1, Instant::now()).unwrap().text, "a");
        cache.insert(k2.clone(), answer("b"));
        assert!(cache.get_stale(&k2).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.shard_keys(0), vec![k2, k1]);
    }

    #[test]
    fn overwrite_does_not_grow() {
        let cache = single_shard(4);
        let k = CacheKey::new(EngineKind::Gemini, "same query", 10, 7);
        cache.insert(k.clone(), answer("v1"));
        cache.insert(k.clone(), answer("v2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(&*cache.get(&k, Instant::now()).unwrap().text, "v2");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = AnswerCache::new(&CacheConfig::disabled());
        let k = CacheKey::new(EngineKind::Google, "anything", 10, 0);
        cache.insert(k.clone(), answer("x"));
        assert!(cache.get(&k, Instant::now()).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = AnswerCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: 8,
            ttl: Some(Duration::from_millis(20)),
            keep_stale: false,
        });
        let k = CacheKey::new(EngineKind::Perplexity, "ephemeral", 10, 3);
        cache.insert(k.clone(), answer("x"));
        assert!(cache.get(&k, Instant::now()).is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get(&k, Instant::now()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.expirations, 1);
        assert!(cache.is_empty(), "expired entry must be reclaimed");
    }

    #[test]
    fn freshness_is_judged_at_the_callers_now() {
        let cache = AnswerCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: 8,
            ttl: Some(Duration::from_secs(300)),
            keep_stale: false,
        });
        let k = CacheKey::new(EngineKind::Gemini, "read before the insert", 10, 1);
        // The caller read its clock, then another thread inserted.
        let now = Instant::now();
        cache.insert(k.clone(), answer("x"));
        assert!(cache.get(&k, now).is_some(), "inserted after now is fresh");
        assert!(cache.get(&k, now + Duration::from_secs(299)).is_some());
        assert!(cache.get(&k, now + Duration::from_secs(301)).is_none());
        assert_eq!(cache.stats().expirations, 1);

        let zero = AnswerCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: 8,
            ttl: Some(Duration::ZERO),
            keep_stale: false,
        });
        let now = Instant::now();
        zero.insert(k.clone(), answer("x"));
        assert!(zero.get(&k, now).is_none(), "a zero TTL never serves fresh");
        zero.insert(k.clone(), answer("x"));
        assert!(zero.get(&k, Instant::now()).is_none());
        assert_eq!(zero.stats().hits, 0);
    }

    /// 64-bit FNV-1a written out byte by byte, as shard routing has
    /// always defined it.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn route_hash_is_fnv1a_over_engine_top_k_seed_and_text() {
        for (engine, query, top_k, seed) in [
            (EngineKind::Google, "Best Laptops,  2025!?", 10, 7),
            (EngineKind::Perplexity, "", 0, 0),
            (EngineKind::Claude, "ΟΔΟΣ Café -wi-fi-", 60, u64::MAX),
        ] {
            let key = CacheKey::new(engine, query, top_k, seed);
            let mut bytes = vec![engine.index() as u8];
            bytes.extend_from_slice(&(top_k as u64).to_le_bytes());
            bytes.extend_from_slice(&seed.to_le_bytes());
            bytes.extend_from_slice(key.normalized().as_bytes());
            assert_eq!(key.route_hash(), fnv1a(&bytes), "{query:?}");
            assert_eq!(
                (key.engine(), key.top_k(), key.seed()),
                (engine, top_k, seed)
            );
        }
        let key = CacheKey::new(EngineKind::Google, "Best Laptops,  2025!?", 10, 7);
        assert_eq!(key.normalized(), "best laptops 2025");
    }

    #[test]
    fn keys_route_to_stable_shards() {
        let cache = AnswerCache::new(&CacheConfig {
            shards: 8,
            capacity_per_shard: 64,
            ttl: None,
            keep_stale: false,
        });
        assert_eq!(cache.shard_count(), 8);
        let keys: Vec<CacheKey> = (0..64)
            .map(|i| CacheKey::new(EngineKind::Gpt4o, &format!("query number {i}"), 10, 0))
            .collect();
        for k in &keys {
            cache.insert(k.clone(), answer("x"));
        }
        let mut used = std::collections::HashSet::new();
        for k in &keys {
            let shard = cache.shard_for(k);
            assert_eq!(shard, cache.shard_for(k), "routing must be stable");
            assert!(
                cache.shard_keys(shard).contains(k),
                "key must live in the shard it routes to"
            );
            used.insert(shard);
        }
        assert!(
            used.len() > 1,
            "64 distinct keys must spread over more than one of 8 shards"
        );
        let resident: usize = (0..8).map(|s| cache.shard_keys(s).len()).sum();
        assert_eq!(resident, 64);
    }

    #[test]
    fn keep_stale_entries_survive_expiry_for_stale_serving() {
        let cache = AnswerCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: 8,
            ttl: Some(Duration::ZERO),
            keep_stale: true,
        });
        let k = CacheKey::new(EngineKind::Claude, "stale but useful", 10, 5);
        cache.insert(k.clone(), answer("the cached bytes"));
        // Zero TTL: the fresh path always misses…
        assert!(cache.get(&k, Instant::now()).is_none());
        assert!(cache.get(&k, Instant::now()).is_none());
        // …but the entry stays resident and stale-servable, bytes intact.
        assert_eq!(&*cache.get_stale(&k).unwrap().text, "the cached bytes");
        let stats = cache.stats();
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.expirations, 0, "keep_stale must not reclaim");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_stale_misses_on_absent_key() {
        let cache = AnswerCache::new(&CacheConfig::always_stale());
        let k = CacheKey::new(EngineKind::Gemini, "never inserted", 10, 0);
        assert!(cache.get_stale(&k).is_none());
        assert_eq!(cache.stats().stale_hits, 0);
    }

    #[test]
    fn get_stale_refreshes_recency() {
        let cache = single_shard(2);
        let k1 = CacheKey::new(EngineKind::Google, "alpha", 10, 0);
        let k2 = CacheKey::new(EngineKind::Google, "beta", 10, 0);
        let k3 = CacheKey::new(EngineKind::Google, "gamma", 10, 0);
        cache.insert(k1.clone(), answer("a"));
        cache.insert(k2.clone(), answer("b"));
        // Stale-touch k1 so k2 becomes the LRU victim.
        assert!(cache.get_stale(&k1).is_some());
        cache.insert(k3, answer("c"));
        assert!(cache.get(&k1, Instant::now()).is_some());
        assert!(
            cache.get(&k2, Instant::now()).is_none(),
            "k2 should have been evicted"
        );
    }

    #[test]
    fn hit_rate_counts() {
        let cache = single_shard(8);
        let k = CacheKey::new(EngineKind::Google, "q", 10, 0);
        assert!(cache.get(&k, Instant::now()).is_none());
        cache.insert(k.clone(), answer("x"));
        assert!(cache.get(&k, Instant::now()).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }
}
