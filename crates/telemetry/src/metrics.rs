//! Typed metrics: counters, gauges, histograms, and a periodic sampler.
//!
//! [`MetricsHub`] is the numeric side of the telemetry layer. Components
//! publish monotonic **counters** (`tmu.write.txns_completed`), level
//! **gauges** (`tmu.write.ott_occupancy`), and latency **histograms**
//! (`regulate.grant_wait.write`, backed by [`sim::Histogram`] so
//! p50/p99 come for free). A periodic sampler snapshots the hub every N
//! cycles into a bounded ring of [`MetricsSample`]s whose counter fields
//! are *deltas* since the previous sample — ready to stream as JSON
//! lines.
//!
//! # Naming convention
//!
//! Keys are dotted paths: `<component>.<subsystem>.<quantity>`, e.g.
//! `tmu.write.stall_cycles`, `soc.eth.frames_txed`, `wheel.write.depth`.
//! Counters are monotonic totals; gauges are instantaneous levels.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use sim::Histogram;

/// One periodic snapshot of the hub.
///
/// Counter values are **deltas** since the previous sample (so idle
/// periods serialize as zeros); gauge values are the level at sample
/// time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Cycle the sample was taken at.
    pub cycle: u64,
    /// Counter deltas since the previous sample, key-ordered.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge levels at sample time, key-ordered.
    pub gauges: Vec<(&'static str, u64)>,
}

impl MetricsSample {
    /// One JSON-lines record (hand-assembled; the offline workspace has
    /// no serialisation crate).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"cycle\":{}", self.cycle);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("}}");
        out
    }
}

/// A counter's total and its total at the previous sample, for the
/// sample's delta.
#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    total: u64,
    sampled: u64,
}

/// Metrics by name, in name order. Callers pass each name as the same
/// `&'static str` every time, so a lookup first looks for the name's
/// pointer, which is far cheaper than ordering strings, and falls back
/// to a search by content.
type Named<V> = Vec<(&'static str, V)>;

fn find<V>(named: &Named<V>, name: &str) -> Result<usize, usize> {
    named.binary_search_by(|(k, _)| (*k).cmp(name))
}

/// The value named `name`, inserted at its default if new.
fn slot<'a, V: Default>(named: &'a mut Named<V>, name: &'static str) -> &'a mut V {
    let i = match named.iter().position(|(k, _)| std::ptr::eq(*k, name)) {
        Some(i) => i,
        None => find(named, name).unwrap_or_else(|i| {
            named.insert(i, (name, V::default()));
            i
        }),
    };
    &mut named[i].1
}

/// Typed counters, gauges and histograms with periodic sampling.
///
/// Periodic samples live in a bounded ring: once `max_samples` are
/// held, each new sample evicts the oldest in O(1), reusing its
/// buffers, and counts it in [`MetricsHub::samples_dropped`].
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    counters: Named<Counter>,
    gauges: Named<u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Bounded ring of periodic samples, oldest first.
    samples: VecDeque<MetricsSample>,
    max_samples: usize,
    samples_dropped: u64,
}

impl MetricsHub {
    /// Default bound on retained samples.
    pub const DEFAULT_MAX_SAMPLES: usize = 4096;

    /// An empty hub with the default sample bound.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_samples(Self::DEFAULT_MAX_SAMPLES)
    }

    /// An empty hub retaining at most `max_samples` periodic samples in
    /// a bounded ring (minimum 1; the oldest is evicted in O(1) once
    /// full).
    #[must_use]
    pub fn with_max_samples(max_samples: usize) -> Self {
        MetricsHub {
            max_samples: max_samples.max(1),
            ..MetricsHub::default()
        }
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        slot(&mut self.counters, name).total += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        *slot(&mut self.gauges, name) = value;
    }

    /// Records `sample` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &'static str, sample: u64) {
        self.histograms.entry(name).or_default().record(sample);
    }

    /// Current total of counter `name` (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        find(&self.counters, name).map_or(0, |i| self.counters[i].1.total)
    }

    /// Current level of gauge `name`, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        find(&self.gauges, name).ok().map(|i| self.gauges[i].1)
    }

    /// Histogram `name`, if any samples were observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates `(name, total)` over all counters, key-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, c)| (*k, c.total))
    }

    /// Iterates `(name, level)` over all gauges, key-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates `(name, histogram)` over all histograms, key-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Takes one periodic sample at `cycle`: counter deltas since the
    /// previous sample plus current gauge levels. The sample is retained
    /// (bounded; a full ring's oldest sample lends its buffers) and a
    /// reference to it returned.
    pub fn sample(&mut self, cycle: u64) -> &MetricsSample {
        let mut sample = if self.samples.len() == self.max_samples {
            self.samples_dropped += 1;
            self.samples.pop_front().unwrap_or_default()
        } else {
            MetricsSample::default()
        };
        sample.cycle = cycle;
        sample.counters.clear();
        for (k, c) in &mut self.counters {
            sample.counters.push((*k, c.total - c.sampled));
            c.sampled = c.total;
        }
        sample.gauges.clear();
        sample
            .gauges
            .extend(self.gauges.iter().map(|(k, v)| (*k, *v)));
        self.samples.push_back(sample);
        &self.samples[self.samples.len() - 1]
    }

    /// The retained periodic samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> &VecDeque<MetricsSample> {
        &self.samples
    }

    /// Samples evicted because the retention bound was hit.
    #[must_use]
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// The retained samples as JSON lines (one object per line).
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for MetricsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, c) in &self.counters {
                writeln!(f, "  {k:<32} {}", c.total)?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<32} {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (k, h) in &self.histograms {
                write!(f, "  {k:<32} {h}")?;
                if let (Some(p50), Some(p99)) = (h.percentile(50.0), h.percentile(99.0)) {
                    write!(f, " p50<={p50} p99<={p99}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsHub::new();
        m.counter_add("tmu.faults", 1);
        m.counter_add("tmu.faults", 2);
        m.gauge_set("tmu.outstanding", 5);
        m.gauge_set("tmu.outstanding", 3);
        assert_eq!(m.counter("tmu.faults"), 3);
        assert_eq!(m.gauge("tmu.outstanding"), Some(3));
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn a_name_is_found_by_content_as_well_as_by_pointer() {
        let mut m = MetricsHub::new();
        let alias: &'static str = Box::leak(String::from("tmu.outstanding").into_boxed_str());
        m.gauge_set("tmu.outstanding", 5);
        m.gauge_set(alias, 3);
        m.counter_add("z.c", 1);
        m.counter_add("a.c", 1);
        m.counter_add(Box::leak(String::from("z.c").into_boxed_str()), 2);
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("tmu.outstanding", 3)]);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("a.c", 1), ("z.c", 3)],
            "name order, one entry per name"
        );
    }

    #[test]
    fn samples_hold_counter_deltas_not_totals() {
        let mut m = MetricsHub::new();
        m.counter_add("beats", 10);
        let s1 = m.sample(100);
        assert_eq!(s1.counters, vec![("beats", 10)]);
        m.counter_add("beats", 4);
        let s2 = m.sample(200);
        assert_eq!(s2.counters, vec![("beats", 4)]);
        let s3 = m.sample(300);
        assert_eq!(s3.counters, vec![("beats", 0)], "idle delta is zero");
        assert_eq!(m.counter("beats"), 14, "totals unaffected by sampling");
    }

    #[test]
    fn sample_retention_is_bounded() {
        let mut m = MetricsHub::with_max_samples(2);
        for c in 0..5 {
            m.sample(c);
        }
        assert_eq!(m.samples().len(), 2);
        assert_eq!(m.samples_dropped(), 3);
        assert_eq!(m.samples()[0].cycle, 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut m = MetricsHub::new();
        m.counter_add("x", 1);
        m.gauge_set("g", 7);
        m.sample(64);
        m.sample(128);
        let jsonl = m.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"cycle\":64"));
        assert!(lines[0].contains("\"x\":1"));
        assert!(lines[1].contains("\"x\":0"));
        assert!(lines[1].contains("\"g\":7"));
    }

    #[test]
    fn histograms_expose_percentiles() {
        let mut m = MetricsHub::new();
        for s in 1..=100u64 {
            m.observe("lat", s);
        }
        let h = m.histogram("lat").unwrap();
        assert!(h.percentile(50.0).unwrap() <= h.percentile(99.0).unwrap());
        let display = m.to_string();
        assert!(display.contains("p50<="));
        assert!(display.contains("p99<="));
    }
}
