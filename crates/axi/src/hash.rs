//! Fixed-key hashing for the simulator's model-internal maps.
//!
//! The standard `HashMap` seeds SipHash-1-3 per map to resist
//! hash-flooding. The maps the simulator consults on every beat — the
//! protocol checker's per-ID queues, the demux routes, the memory word
//! store, the traffic scoreboard — are keyed by AXI IDs and word
//! addresses the model itself produces, so that defence buys nothing
//! and SipHash dominates their cost. [`FoldHasher`] is one multiply per
//! key word with a fixed key, plus a fold in [`Hasher::finish`].
//!
//! The fold matters: a bare multiply leaves the low bits of the product
//! no better mixed than the low bits of the key, and an 8-byte-aligned
//! word address has its low 3 bits at zero. The table indexes buckets
//! by the low bits of the hash, so `finish` XORs the well-mixed high
//! half into the low half.
//!
//! No caller may depend on iteration order: a [`FoldHashMap`] iterates
//! in a fixed but arbitrary order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier: 2^64 divided by the golden ratio.
const KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-key multiply-and-fold [`Hasher`] for integer keys: `u16`
/// (AXI IDs) and `u64` (addresses) mix in one step, anything else one
/// byte at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(KEY);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }
}

/// A `HashMap` hashed with [`FoldHasher`]; build it with `default()`.
pub type FoldHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AxiId;
    use std::hash::{BuildHasher, Hash};

    /// Counts the keys landing in each of the 16 low-4-bit buckets and
    /// checks every bucket is within 2x of the mean.
    fn assert_even_low_bits<K: Hash>(keys: impl Iterator<Item = K>, what: &str) {
        let build = BuildHasherDefault::<FoldHasher>::default();
        let mut buckets = [0u32; 16];
        let mut n = 0u32;
        for key in keys {
            buckets[(build.hash_one(&key) & 0xF) as usize] += 1;
            n += 1;
        }
        let mean = n / 16;
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                count >= mean / 2 && count <= mean * 2,
                "{what}: bucket {i} holds {count}, mean {mean}: {buckets:?}"
            );
        }
    }

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        for base in [0u64, 0x8000_0000, 0x1_0000_0000] {
            assert_even_low_bits((0..1024u64).map(|k| base + 8 * k), "8-byte-aligned words");
        }
    }

    #[test]
    fn axi_ids_spread_over_low_bits() {
        assert_even_low_bits((0..1024u16).map(AxiId), "AXI IDs");
    }
}
