//! Telemetry publication: occupancy gauges into the metrics hub,
//! Chrome-trace/metrics export, and point-in-time snapshots.

use tmu_telemetry::{MetricsHub, TelemetryConfig, TelemetryHub, TraceEvent};

use super::Tmu;

impl Tmu {
    /// The TMU's occupancy gauges: OTT occupancy, armed deadlines per
    /// guard (`tmu.{write,read}.wheel_depth`, at most one per LD slot),
    /// faults and pending drain beats.
    fn occupancy_gauges(&self) -> [(&'static str, u64); 7] {
        let write_out = self.write_guard.outstanding() as u64;
        let read_out = self.read_guard.outstanding() as u64;
        [
            ("tmu.write.ott_occupancy", write_out),
            ("tmu.read.ott_occupancy", read_out),
            ("tmu.outstanding", write_out + read_out),
            (
                "tmu.write.wheel_depth",
                self.write_guard.wheel_depth() as u64,
            ),
            ("tmu.read.wheel_depth", self.read_guard.wheel_depth() as u64),
            ("tmu.faults_detected", self.faults_detected),
            ("tmu.drain_beats_pending", self.term.drain_beats()),
        ]
    }

    /// Publishes the occupancy gauges for a periodic sample, as
    /// [`TraceEvent::Gauge`] events: visible in the ring and routed into
    /// the metrics hub by the dispatcher.
    pub(super) fn publish_gauges(&mut self) {
        let cycle = self.cycles;
        for (name, value) in self.occupancy_gauges() {
            self.telemetry
                .record(cycle, "tmu", TraceEvent::Gauge { name, value });
        }
    }

    /// Switches the unified telemetry layer on: typed events into the
    /// ring, transaction spans, and periodic metrics sampling. A
    /// default-constructed TMU leaves telemetry off, in which case every
    /// record call in the pipeline costs one branch.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry.enable(config);
    }

    /// The unified telemetry hub (typed events, spans, metrics).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// Mutable telemetry access, for attaching counters or pausing
    /// recording mid-run.
    #[must_use]
    pub fn telemetry_mut(&mut self) -> &mut TelemetryHub {
        &mut self.telemetry
    }

    /// Chrome trace-event JSON of the recorded transaction spans —
    /// loadable in Perfetto / `chrome://tracing`.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        self.telemetry.chrome_trace_json()
    }

    /// Periodic metrics samples as JSON lines.
    #[must_use]
    pub fn metrics_jsonl(&self) -> String {
        self.telemetry.metrics_jsonl()
    }

    /// A point-in-time metrics snapshot: the hub's counters plus
    /// current occupancy gauges, with the performance log's
    /// total-latency distribution folded in as a histogram. The gauges
    /// go into the snapshot only, so taking one leaves the trace as it
    /// was. Works with telemetry disabled (counters are then zero but
    /// gauges and the latency histogram are still live).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsHub {
        let mut hub = self.telemetry.metrics().clone();
        for (name, value) in self.occupancy_gauges() {
            hub.gauge_set(name, value);
        }
        hub.set_histogram("tmu.latency.total", self.perf_log.total_latency().clone());
        hub
    }
}
