//! Latency histograms.
//!
//! [`Histogram`] collects cycle-count samples (latencies) and summarizes
//! them — the backing store of the Full-Counter TMU's performance logs.

use std::fmt;

/// Number of buckets: sample 0 and 1 share bucket 0, and bucket 64
/// holds every sample above `2^63`.
const BUCKETS: usize = 65;

/// A latency histogram over `u64` cycle counts with power-of-two buckets.
///
/// Buckets are `[0,1], (1,2], (2,4], (4,8], …` — i.e. sample `s` lands in
/// bucket `ceil(log2(max(s,1)))`, one of 65 kept in a fixed array, so
/// recording never allocates. Alongside the buckets the histogram tracks
/// exact count, min and max and a sum that saturates at `u64::MAX`, so
/// the range is exact, the mean is exact until the sum saturates (and
/// `None` from then on), and the distribution shape is approximate.
///
/// ```
/// use sim::Histogram;
/// let mut h = Histogram::new();
/// for s in [1u64, 2, 3, 100] { h.record(s); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(100));
/// assert!((h.mean().unwrap() - 26.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS], // index = ceil(log2(max(s,1)))
    count: u64,
    sum: u64,
    /// Smallest sample; `u64::MAX` while empty.
    min: u64,
    /// Largest sample; 0 while empty.
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    fn bucket_index(sample: u64) -> usize {
        let s = sample.max(1);
        (64 - (s - 1).leading_zeros()) as usize
    }

    /// Upper bound of bucket `index`: `2^index`, saturated at `u64::MAX`
    /// for the last bucket.
    fn bucket_bound(index: usize) -> u64 {
        1u64.checked_shl(index as u32).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_index(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, if any samples exist and their sum has not
    /// saturated at `u64::MAX`.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0 && self.sum != u64::MAX).then(|| self.sum as f64 / self.count as f64)
    }

    /// `(upper_bound, count)` pairs for every non-empty bucket, ascending.
    /// The bucket with upper bound `u` covers samples in `(u/2, u]`
    /// (except the first, which covers `[0, 1]`, and the last, whose
    /// bound is `u64::MAX` and which covers `(2^63, u64::MAX]`).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_bound(i), *c))
    }

    /// An approximate quantile (`0.0..=1.0`) using bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bound, c) in self.buckets() {
            seen += c;
            if seen >= target {
                return Some(bound);
            }
        }
        self.max()
    }

    /// An approximate percentile (`0.0..=100.0`): `percentile(99.0)` is
    /// the p99 upper bound. Convenience wrapper over
    /// [`Histogram::quantile`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        self.quantile(p / 100.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.max()) {
            (Some(min), Some(max)) => write!(
                f,
                "n={} min={} mean={:.1} max={}",
                self.count,
                min,
                self.mean().unwrap_or(f64::NAN),
                max
            ),
            _ => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        // Samples 0 and 1 share the first bucket; 2 its own; 3..4 next.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index(9), 4);
    }

    #[test]
    fn histogram_exact_summary() {
        let mut h = Histogram::new();
        for s in [5u64, 10, 15] {
            h.record(s);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 30);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.mean(), Some(10.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for s in 1..=100u64 {
            h.record(s);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q50 >= 50, "median upper bound must cover the median");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(1000);
        let mut b = Histogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.sum(), 1501);
    }

    #[test]
    fn histogram_merge_into_empty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), Some(7));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let _ = Histogram::new().quantile(1.5);
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn percentile_of_single_sample_covers_that_sample() {
        let mut h = Histogram::new();
        h.record(7);
        // Every percentile of a one-sample distribution is the bucket
        // upper bound covering that sample (7 lands in (4, 8]).
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(8));
        }
    }

    #[test]
    fn percentile_matches_quantile() {
        let mut h = Histogram::new();
        for s in 1..=100u64 {
            h.record(s);
        }
        assert_eq!(h.percentile(50.0), h.quantile(0.5));
        assert_eq!(h.percentile(99.0), h.quantile(0.99));
        assert!(h.percentile(50.0).unwrap() <= h.percentile(99.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = Histogram::new().percentile(101.0);
    }

    #[test]
    fn histogram_keeps_samples_above_two_to_the_63() {
        let top = (1u64 << 63) + 1;
        let mut h = Histogram::new();
        for s in [0, 1, top, u64::MAX] {
            h.record(s);
        }
        assert_eq!(Histogram::bucket_index(top), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // 0 and 1 share the first bucket; the two large samples share
        // the 65th, whose bound saturates at u64::MAX.
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (u64::MAX, 2)]);
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.75), Some(u64::MAX));
        assert_eq!(h.percentile(99.0), Some(u64::MAX));
        assert_eq!((h.min(), h.max()), (Some(0), Some(u64::MAX)));
        assert_eq!(h.sum(), u64::MAX, "the sum saturates");
        assert_eq!(h.mean(), None, "no mean from a saturated sum");
        assert_eq!(
            h.to_string(),
            format!("n=4 min=0 mean=NaN max={}", u64::MAX)
        );

        let mut merged = Histogram::new();
        merged.merge(&h);
        merged.merge(&h);
        let buckets: Vec<_> = merged.buckets().collect();
        assert_eq!(buckets, vec![(1, 4), (u64::MAX, 4)]);
        assert_eq!(merged.count(), 8);
        assert_eq!(merged.quantile(1.0), Some(u64::MAX));
        assert_eq!(merged.mean(), None);
        assert_eq!((merged.min(), merged.max()), (Some(0), Some(u64::MAX)));
    }
}
