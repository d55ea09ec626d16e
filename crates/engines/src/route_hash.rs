//! One hash per cache key.
//!
//! A cache key hashes its fields once, when it is built, with 64-bit
//! FNV-1a ([`Fnv1a`]) and keeps the result. Shard routing reads that
//! hash, and the shard's map hashes the key through [`RouteHashed`],
//! which passes the stored hash through instead of hashing the key's
//! bytes again. The answer cache, the SERP cache and the single-flight
//! table all key their maps this way.
//!
//! FNV-1a is not keyed, so a client could craft queries whose hashes
//! collide. Each map it feeds is bounded — a cache shard by its LRU
//! capacity, the flight table by the requests in flight — so a crafted
//! collision costs at most a probe over that many entries.

use std::hash::{BuildHasher, Hasher};

/// Incremental 64-bit FNV-1a: each byte is XORed into the state, which
/// is then multiplied by the FNV prime.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`, in order.
    pub fn eat(mut self, bytes: &[u8]) -> Fnv1a {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`] of a map whose keys carry their own hash and
/// write only it, as one `u64`, from their `Hash` impl.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteHashed;

impl BuildHasher for RouteHashed {
    type Hasher = PassThrough;

    fn build_hasher(&self) -> PassThrough {
        PassThrough(0)
    }
}

/// The [`Hasher`] of [`RouteHashed`]: it takes the key's stored hash and
/// folds its high half into its low half. The low bits alone already
/// chose the key's shard, so within one shard they barely vary, and the
/// map indexes its buckets by the low bits.
#[derive(Debug, Clone, Copy)]
pub struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash ^ (hash >> 32);
    }

    fn write(&mut self, _bytes: &[u8]) {
        panic!("a route-hashed key writes only its stored u64 hash");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_its_published_test_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().eat(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::new().eat(b"foobar").finish(), 0x8594_4171_f739_67e8);
        assert_eq!(
            Fnv1a::new().eat(b"foo").eat(b"bar").finish(),
            Fnv1a::new().eat(b"foobar").finish()
        );
    }

    #[test]
    fn pass_through_folds_the_high_half_into_the_low() {
        let mut h = RouteHashed.build_hasher();
        h.write_u64(0x0000_0001_0000_0008);
        assert_eq!(h.finish(), 0x0000_0001_0000_0009);
    }
}
