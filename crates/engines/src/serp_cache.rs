//! SERP-level retrieval cache.
//!
//! The five personas re-run near-identical retrievals for every study
//! query (Gemini even grounds through Google's own ranking), and the
//! serving layer replays popular queries endlessly — so the stack puts
//! a small sharded LRU *in front of the retrieval kernel*, keyed on
//! `(analyzed query, RankingParams fingerprint, k)`.
//!
//! The key normalizes the query through [`shift_textkit::analyze`] —
//! the exact pipeline [`shift_search::SearchEngine`] feeds the kernel —
//! so two raw queries share an entry precisely when the kernel would
//! see identical term lists. Entries are shared [`Arc<Serp>`]s, so a
//! miss hands the kernel's result list to the cache without copying
//! it. The one field of a [`Serp`] that depends on the *raw* text (its
//! `query` echo) is the entry's first query; a caller that hands out an
//! owned SERP patches in its own, and the answer path never reads it,
//! which keeps the cache perfectly transparent: a hit yields the same
//! bytes a kernel run would have.
//!
//! A key hashes its fields once, when it is built; the shard routing
//! and the shard's map both read that hash ([`crate::route_hash`]).
//! Each shard is an independent `std::sync::Mutex` around a
//! slab-backed intrusive LRU list (the same shape as `shift-serve`'s
//! answer cache), so concurrent lookups on different shards never
//! contend, and a caught panic under a shard lock does not poison it
//! (nothing under a guard panics between two list updates: they are
//! index writes to slots the shard owns).
//! Counters are relaxed atomics surfaced through [`SerpCache::stats`]
//! into the serving metrics → report JSON path.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shift_search::Serp;
use shift_textkit::{analyze_token, token_spans};

use crate::route_hash::{Fnv1a, RouteHashed};
use crate::single_flight::lock;

/// Geometry of one [`SerpCache`].
#[derive(Debug, Clone)]
pub struct SerpCacheConfig {
    /// Number of independent shards (rounded up to at least 1).
    pub shards: usize,
    /// LRU capacity of each shard; 0 disables the cache entirely.
    pub capacity_per_shard: usize,
}

impl Default for SerpCacheConfig {
    fn default() -> SerpCacheConfig {
        SerpCacheConfig {
            shards: 8,
            capacity_per_shard: 256,
        }
    }
}

impl SerpCacheConfig {
    /// A configuration that caches nothing.
    pub fn disabled() -> SerpCacheConfig {
        SerpCacheConfig {
            shards: 1,
            capacity_per_shard: 0,
        }
    }
}

/// Identity of a cacheable SERP: the kernel-normalized query terms, the
/// exact ranking parameterization (by bit-level fingerprint) and the
/// requested depth.
///
/// The key hashes its fields once, when it is built, and keeps the hash
/// (see [`crate::route_hash`]); its fields are read-only so that hash
/// cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerpCacheKey {
    // First, so that comparing two keys rejects on it first.
    hash: u64,
    normalized: String,
    params_fingerprint: u64,
    k: usize,
}

impl Hash for SerpCacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl SerpCacheKey {
    /// Builds a key, normalizing `query` through the retrieval
    /// analyzer: each [`analyze_token`] term is appended to one string,
    /// the bytes of `analyze(query).join(" ")`.
    pub fn new(query: &str, params_fingerprint: u64, k: usize) -> SerpCacheKey {
        let mut normalized = String::with_capacity(query.len());
        let terms = token_spans(query).filter_map(|(start, end)| analyze_token(&query[start..end]));
        for (i, term) in terms.enumerate() {
            if i > 0 {
                normalized.push(' ');
            }
            normalized.push_str(&term);
        }
        let hash = Fnv1a::new()
            .eat(&params_fingerprint.to_le_bytes())
            .eat(&(k as u64).to_le_bytes())
            .eat(normalized.as_bytes())
            .finish();
        SerpCacheKey {
            hash,
            normalized,
            params_fingerprint,
            k,
        }
    }

    /// Query text after [`shift_textkit::analyze`] (the terms the
    /// kernel scores), joined with single spaces.
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// The analyzed terms of the query, in order: the list
    /// [`shift_textkit::analyze`] gives, read back from the normalized
    /// text. No term is empty or holds whitespace (an analyzed term is
    /// a non-empty run of lowercased word characters), so splitting at
    /// the joining spaces recovers each one.
    pub fn terms(&self) -> impl Iterator<Item = &str> + '_ {
        self.normalized.split_ascii_whitespace()
    }

    /// [`shift_search::RankingParams::fingerprint`] of the engine the
    /// SERP came from.
    pub fn params_fingerprint(&self) -> u64 {
        self.params_fingerprint
    }

    /// Requested result-list depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// FNV-1a hash over the fingerprint's and `k`'s little-endian bytes,
    /// then the normalized text, computed once in [`SerpCacheKey::new`]:
    /// it routes the key to its shard and keys the shard's map.
    pub fn route_hash(&self) -> u64 {
        self.hash
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerpCacheStats {
    /// Lookups that returned a resident SERP.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Successful inserts (including overwrites of an existing key).
    pub inserts: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl SerpCacheStats {
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
    key: SerpCacheKey,
    serp: Arc<Serp>,
    prev: usize,
    next: usize,
}

/// One shard: a slab of entries threaded onto an intrusive MRU→LRU
/// list, plus a key→slot map. All list surgery is O(1).
struct Shard {
    map: HashMap<SerpCacheKey, usize, RouteHashed>,
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

/// A sharded LRU mapping [`SerpCacheKey`]s to [`Serp`]s. No TTL: the
/// index is immutable for the lifetime of a stack, so a cached SERP
/// never goes stale.
pub struct SerpCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl SerpCache {
    /// Builds a cache with the given geometry.
    pub fn new(config: &SerpCacheConfig) -> SerpCache {
        SerpCache {
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(Shard::new(config.capacity_per_shard)))
                .collect(),
            capacity_per_shard: config.capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// True when the cache stores nothing (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.capacity_per_shard == 0
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a key, refreshing its recency on hit. The returned SERP
    /// is the shared entry: its `query` echo is the raw query that
    /// populated it, not necessarily this caller's.
    pub fn get(&self, key: &SerpCacheKey) -> Option<Arc<Serp>> {
        if self.is_disabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = lock(&self.shards[self.shard_for(key)]);
        let Some(&slot) = shard.map.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        shard.unlink(slot);
        shard.push_front(slot);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&shard.slab[slot].serp))
    }

    /// Inserts (or overwrites) a SERP, evicting the least-recently-used
    /// entry of the target shard if it is full.
    pub fn insert(&self, key: SerpCacheKey, serp: Arc<Serp>) {
        if self.is_disabled() {
            return;
        }
        let mut shard = lock(&self.shards[self.shard_for(&key)]);
        if let Some(&slot) = shard.map.get(&key) {
            shard.slab[slot].serp = serp;
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
            serp,
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

    /// Snapshots the counters.
    pub fn stats(&self) -> SerpCacheStats {
        SerpCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn shard_for(&self, key: &SerpCacheKey) -> usize {
        (key.route_hash() % self.shards.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shift_textkit::analyze;

    /// Words, stopwords, joiners and separators, and characters whose
    /// lowercase changes length or case class or splits a word.
    const PIECES: &[&str] = &[
        "İ",
        "Σ",
        "ẞ",
        "ǅ",
        "\u{212A}",
        "ı",
        "\u{301}",
        "Ａ",
        "\u{a0}",
        "The",
        "of",
        "Best",
        "LAPTOPS",
        "batteries",
        "s",
        "Wi-Fi",
        "don't",
        "2025",
        " ",
        "-",
        "'",
        ",",
        "?",
        "\t",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The terms a key hands the kernel are the analysis of its query.
        #[test]
        fn key_terms_are_the_analyzed_query(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..24),
        ) {
            let text: String = picks.into_iter().map(|i| PIECES[i]).collect();
            let key = SerpCacheKey::new(&text, 1, 10);
            prop_assert_eq!(key.terms().collect::<Vec<_>>(), analyze(&text), "text {:?}", text);
        }

        #[test]
        fn key_terms_match_on_printable_text(text in "\\PC{0,48}") {
            let key = SerpCacheKey::new(&text, 1, 10);
            prop_assert_eq!(key.terms().collect::<Vec<_>>(), analyze(&text), "text {:?}", text);
        }
    }

    fn serp(query: &str) -> Arc<Serp> {
        Arc::new(Serp {
            query: query.to_string(),
            results: Vec::new(),
        })
    }

    fn single_shard(capacity: usize) -> SerpCache {
        SerpCache::new(&SerpCacheConfig {
            shards: 1,
            capacity_per_shard: capacity,
        })
    }

    #[test]
    fn key_normalizes_through_the_retrieval_analyzer() {
        let a = SerpCacheKey::new("Best Laptops,  2025!?", 1, 10);
        let b = SerpCacheKey::new("best laptops 2025", 1, 10);
        assert_eq!(a, b);
        // Different params or k are different entries.
        assert_ne!(a, SerpCacheKey::new("best laptops 2025", 2, 10));
        assert_ne!(a, SerpCacheKey::new("best laptops 2025", 1, 20));
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
    fn route_hash_is_fnv1a_over_fingerprint_k_and_text() {
        for (query, fingerprint, k) in [
            ("Best Laptops 2025", 0x5eed, 10),
            ("", 0, 0),
            ("the running batteries of Wi-Fi", u64::MAX, 60),
        ] {
            let key = SerpCacheKey::new(query, fingerprint, k);
            let mut bytes = fingerprint.to_le_bytes().to_vec();
            bytes.extend_from_slice(&(k as u64).to_le_bytes());
            bytes.extend_from_slice(key.normalized().as_bytes());
            assert_eq!(key.route_hash(), fnv1a(&bytes), "{query:?}");
            assert_eq!(key.params_fingerprint(), fingerprint);
            assert_eq!(key.k(), k);
        }
        assert_eq!(
            SerpCacheKey::new("Best Laptops 2025", 0x5eed, 10).normalized(),
            "best laptop 2025"
        );
    }

    #[test]
    fn a_panic_under_a_shard_lock_leaves_the_cache_usable() {
        let cache = single_shard(4);
        let k1 = SerpCacheKey::new("alpha", 1, 10);
        let k2 = SerpCacheKey::new("beta", 1, 10);
        cache.insert(k1.clone(), serp("alpha"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _shard = lock(&cache.shards[cache.shard_for(&k1)]);
            panic!("worker panic under the shard lock");
        }));
        assert!(caught.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert_eq!(cache.get(&k1).unwrap().query, "alpha");
        cache.insert(k2.clone(), serp("beta"));
        assert!(cache.get(&k2).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_shares_the_entry() {
        let cache = single_shard(4);
        let key = SerpCacheKey::new("Best Laptops", 9, 10);
        let entry = serp("Best Laptops");
        cache.insert(key.clone(), Arc::clone(&entry));
        // A differently-cased raw query normalizing to the same key hits
        // the same allocation, echo included.
        let hit = cache
            .get(&SerpCacheKey::new("best LAPTOPS", 9, 10))
            .expect("hit");
        assert!(Arc::ptr_eq(&hit, &entry));
        assert_eq!(hit.query, "Best Laptops");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = single_shard(2);
        let k1 = SerpCacheKey::new("alpha", 0, 10);
        let k2 = SerpCacheKey::new("beta", 0, 10);
        let k3 = SerpCacheKey::new("gamma", 0, 10);
        cache.insert(k1.clone(), serp("alpha"));
        cache.insert(k2.clone(), serp("beta"));
        assert!(cache.get(&k1).is_some()); // k2 becomes LRU
        cache.insert(k3.clone(), serp("gamma"));
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none(), "k2 must be evicted");
        assert!(cache.get(&k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = SerpCache::new(&SerpCacheConfig::disabled());
        let k = SerpCacheKey::new("anything", 0, 10);
        cache.insert(k.clone(), serp("anything"));
        assert!(cache.get(&k).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn overwrite_does_not_grow() {
        let cache = single_shard(4);
        let k = SerpCacheKey::new("same query", 3, 10);
        cache.insert(k.clone(), serp("same query"));
        cache.insert(k.clone(), serp("same query"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&k).is_some());
        assert_eq!(cache.stats().inserts, 2);
        assert_eq!(cache.stats().evictions, 0);
    }
}
