//! Hashing for engine-assigned ids.
//!
//! Every map and set in the engine is keyed by an id the engine hands out
//! itself (`PageId`, `TxnId`, `Oid`, lock `Resource`, client and cache
//! keys), never by a string an outside party chooses. Such maps gain
//! nothing from std's HashDoS-resistant SipHash and pay for it on every
//! probe, so they use [`IdMap`] / [`IdSet`] with the multiply-rotate
//! [`IdHasher`] instead. The workspace `clippy.toml` disallows the std
//! `HashMap`/`HashSet` types so new code lands on these aliases.
//!
//! This module also owns the Fibonacci multiplier that shard and worker
//! routing use ([`fib`]).

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio, rounded to odd: multiplying by it
/// spreads consecutive integers evenly across the high bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci multiply. Routing takes the high bits of the product
/// (`fib(x) >> 32`), which is where the multiply mixes best.
#[inline]
pub fn fib(x: u64) -> u64 {
    x.wrapping_mul(FIB)
}

/// Multiply-rotate hasher for integer ids: one rotate, xor and multiply per
/// integer written. `finish` folds the well-mixed high bits into the low
/// ones, because the table picks buckets from the low bits: without the
/// fold, keys strided by a power of two share a handful of buckets. The
/// fold is a rotate xored with the unrotated value; the rotate alone maps
/// an `Oid` grid (the last multiply is linear in the slot) onto a lattice
/// that fills as few as a quarter of the buckets.
#[derive(Default, Clone, Copy)]
pub struct IdHasher {
    h: u64,
}

impl IdHasher {
    #[inline]
    fn step(&mut self, x: u64) {
        self.h = fib(self.h.rotate_left(5) ^ x);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("chunk of 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.step(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.step(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.step(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.step(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.step(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.step(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.h ^ self.h.rotate_left(26)
    }
}

/// `HashMap` keyed by engine-assigned ids.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` of engine-assigned ids.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, PageId, TxnId};
    use std::hash::{BuildHasher, Hash};

    const BUCKET_BITS: u32 = 12;

    /// Buckets filled when 4,096 keys land in 4,096 buckets chosen by the
    /// low 12 bits of the hash, as the std table picks them.
    fn buckets_filled<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut hit = vec![false; 1 << BUCKET_BITS];
        for k in keys {
            hit[(build.hash_one(k) & ((1 << BUCKET_BITS) - 1)) as usize] = true;
        }
        hit.iter().filter(|&&h| h).count()
    }

    #[test]
    fn id_patterns_fill_at_least_half_the_low_bit_buckets() {
        let n = 1u32 << BUCKET_BITS;
        let mut patterns = vec![
            ("sequential PageId".to_string(), buckets_filled((0..n).map(PageId))),
            ("PageId stride 1024".to_string(), buckets_filled((0..n).map(|i| PageId(i * 1024)))),
            ("PageId stride 8192".to_string(), buckets_filled((0..n).map(|i| PageId(i * 8192)))),
            ("TxnId << 32".to_string(), buckets_filled((0..n as u64).map(|i| TxnId(i << 32)))),
        ];
        for slots in [4, 16, 64, 256] {
            let grid = (0..n).map(|i| Oid::new(PageId(i / slots), (i % slots) as u16));
            patterns
                .push((format!("Oid {} pages x {slots} slots", n / slots), buckets_filled(grid)));
        }
        for (name, filled) in patterns {
            assert!(filled * 2 >= n as usize, "{name}: {filled} of {n} buckets filled");
        }
    }

    #[test]
    fn byte_writes_hash_every_byte() {
        let hash = |b: &[u8]| {
            let mut h = IdHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefgi"));
        assert_ne!(hash(b"abcdefghi"), hash(b"abcdefghj"));
    }
}
