//! Human-readable TMU summary reporting.
//!
//! [`TmuReport`] snapshots a [`Tmu`]'s counters and logs into a plain
//! data structure that examples and benches can print or serialize — the
//! "system observability" deliverable of paper §II-H.

use std::fmt;

use crate::config::TmuVariant;
use crate::monitor::Tmu;
use crate::phase::WritePhase;

/// Snapshot of a TMU's observability counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TmuReport {
    /// Monitor variant.
    pub variant: TmuVariant,
    /// Completed write transactions.
    pub writes_completed: u64,
    /// Completed read transactions.
    pub reads_completed: u64,
    /// Data bytes moved by completed transactions.
    pub bytes_moved: u64,
    /// Mean total transaction latency in cycles, if any completed.
    pub mean_latency: Option<f64>,
    /// Median total transaction latency (bucket upper bound), in cycles.
    pub p50_latency: Option<u64>,
    /// 99th-percentile total transaction latency (bucket upper bound).
    pub p99_latency: Option<u64>,
    /// Maximum total transaction latency in cycles.
    pub max_latency: Option<u64>,
    /// Telemetry events recorded (0 when telemetry is disabled).
    pub telemetry_events: u64,
    /// Fault events detected.
    pub faults: u64,
    /// Reset requests issued.
    pub resets: u64,
    /// Error-log records retained.
    pub error_records: usize,
    /// The write phase with the highest mean latency (Fc bottleneck
    /// analysis), with that mean.
    pub write_bottleneck: Option<(WritePhase, f64)>,
    /// Transactions still outstanding at snapshot time.
    pub outstanding: usize,
}

impl TmuReport {
    /// Snapshots `tmu` now. Latency statistics come from the metrics
    /// hub's snapshot ([`Tmu::metrics_snapshot`]), which folds the
    /// performance log's total-latency distribution into the
    /// `tmu.latency.total` histogram.
    #[must_use]
    pub fn capture(tmu: &Tmu) -> Self {
        let metrics = tmu.metrics_snapshot();
        let latency = metrics.histogram("tmu.latency.total");
        let perf = tmu.perf_log();
        TmuReport {
            variant: tmu.variant(),
            writes_completed: perf.writes(),
            reads_completed: perf.reads(),
            bytes_moved: perf.bytes(),
            mean_latency: latency.and_then(sim::Histogram::mean),
            p50_latency: latency.and_then(|h| h.percentile(50.0)),
            p99_latency: latency.and_then(|h| h.percentile(99.0)),
            max_latency: latency.and_then(sim::Histogram::max),
            telemetry_events: tmu.telemetry().seq(),
            faults: tmu.faults_detected(),
            resets: tmu.resets_requested(),
            error_records: tmu.error_log().len(),
            write_bottleneck: perf.write_bottleneck(),
            outstanding: metrics.gauge("tmu.outstanding").unwrap_or(0) as usize,
        }
    }
}

impl fmt::Display for TmuReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TMU report ({})", self.variant)?;
        writeln!(
            f,
            "  completed: {} writes, {} reads ({} bytes)",
            self.writes_completed, self.reads_completed, self.bytes_moved
        )?;
        match (self.mean_latency, self.max_latency) {
            (Some(mean), Some(max)) => {
                let p50 = self.p50_latency.unwrap_or(max);
                let p99 = self.p99_latency.unwrap_or(max);
                writeln!(
                    f,
                    "  latency:   mean {mean:.1} cycles, p50<={p50}, p99<={p99}, max {max}"
                )?;
            }
            _ => writeln!(f, "  latency:   no completed transactions")?,
        }
        writeln!(
            f,
            "  faults:    {} detected, {} resets requested, {} log records",
            self.faults, self.resets, self.error_records
        )?;
        if let Some((phase, mean)) = &self.write_bottleneck {
            writeln!(
                f,
                "  bottleneck: write phase '{phase}' at {mean:.1} cycles mean"
            )?;
        }
        write!(f, "  outstanding: {}", self.outstanding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmuConfig;

    #[test]
    fn capture_of_idle_tmu() {
        let tmu = Tmu::new(TmuConfig::default());
        let report = TmuReport::capture(&tmu);
        assert_eq!(report.writes_completed, 0);
        assert_eq!(report.faults, 0);
        assert_eq!(report.mean_latency, None);
        assert_eq!(report.p50_latency, None);
        assert_eq!(report.p99_latency, None);
        assert_eq!(report.telemetry_events, 0);
        assert_eq!(report.outstanding, 0);
    }

    #[test]
    fn display_is_multiline_and_mentions_variant() {
        let tmu = Tmu::new(TmuConfig::default());
        let s = TmuReport::capture(&tmu).to_string();
        assert!(s.contains("Tc"));
        assert!(s.lines().count() >= 3);
        assert!(s.contains("no completed transactions"));
    }
}
