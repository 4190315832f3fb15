//! Seeded, splittable randomness for reproducible experiments.
//!
//! Every stochastic element of the reproduction (traffic mixes, fault
//! timing) draws from a [`SimRng`] created from an explicit seed, so any
//! run can be replayed bit-exactly from its seed.

#![warn(clippy::missing_inline_in_public_items)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random number generator with labelled sub-streams.
///
/// [`SimRng::split`] derives an independent generator from a string label,
/// so adding a new consumer never perturbs the draws of existing ones —
/// the property that keeps experiment results stable as the code evolves.
///
/// ```
/// use sim::SimRng;
/// use rand::RngCore;
/// let mut a = SimRng::seed(42).split("traffic");
/// let mut b = SimRng::seed(42).split("traffic");
/// assert_eq!(a.next_u64(), b.next_u64()); // identical streams
/// let mut c = SimRng::seed(42).split("faults");
/// let _ = c.next_u64(); // independent stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    rng: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[inline]
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        SimRng {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for the sub-stream `label`.
    ///
    /// Splitting is a pure function of `(seed, label)` — it does not
    /// consume state from `self`.
    #[inline]
    #[must_use]
    pub fn split(&self, label: &str) -> SimRng {
        // FNV-1a over the label, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::seed(self.seed ^ h.rotate_left(17))
    }

    /// Uniform draw in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    #[must_use]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        self.rng.gen_range(0..bound)
    }

    /// Uniform draw in the inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    #[must_use]
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.rng.gen_range(lo..=hi)
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[inline]
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in 0..=1");
        self.rng.gen_bool(p)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    #[inline]
    #[must_use]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }
}

impl RngCore for SimRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest);
    }

    #[inline]
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn split_is_pure_and_label_sensitive() {
        let root = SimRng::seed(99);
        let mut x1 = root.split("x");
        let mut x2 = root.split("x");
        assert_eq!(x1.next_u64(), x2.next_u64());
        let mut y = root.split("y");
        assert_ne!(root.split("x").next_u64(), y.next_u64());
    }

    #[test]
    fn below_and_between_ranges() {
        let mut r = SimRng::seed(3);
        for _ in 0..100 {
            assert!(r.below(10) < 10);
            let v = r.between(5, 7);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn pick_covers_all_items() {
        let mut r = SimRng::seed(5);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn below_zero_bound_panics() {
        let _ = SimRng::seed(0).below(0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn pick_empty_panics() {
        let _: &u8 = SimRng::seed(0).pick(&[]);
    }
}
