//! The telemetry hub: one record call, every sink.
//!
//! [`TelemetryHub`] is the concrete object components hold. It owns an
//! [`EventRing`], an optional [`SpanCollector`], and a [`MetricsHub`],
//! and fans each recorded [`TraceEvent`] out to all of them. A
//! default-constructed hub is **disabled**: [`TelemetryHub::record`] is
//! one branch and nothing is allocated, preserving the event-driven
//! fast path.

use crate::event::TraceEvent;
use crate::metrics::{MetricsHub, MetricsSample};
use crate::sink::EventRing;
use crate::span::SpanCollector;

/// Configuration applied when enabling a [`TelemetryHub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Bound on the typed event ring.
    pub ring_capacity: usize,
    /// Whether to fold events into transaction spans.
    pub spans: bool,
    /// Bound on retained finished spans.
    pub max_spans: usize,
    /// Periodic sampling interval in cycles (0 disables sampling).
    pub sample_every: u64,
    /// Bound on retained periodic metrics samples.
    pub max_samples: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: EventRing::DEFAULT_CAPACITY,
            spans: true,
            max_spans: SpanCollector::DEFAULT_MAX_SPANS,
            sample_every: 256,
            max_samples: MetricsHub::DEFAULT_MAX_SAMPLES,
        }
    }
}

/// The stack-wide telemetry aggregation point.
///
/// Concrete (not a trait object) so owners like the TMU stay `Clone` and
/// comparable in differential tests.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHub {
    enabled: bool,
    ring: EventRing,
    spans: Option<SpanCollector>,
    metrics: MetricsHub,
    sample_every: u64,
    last_sample_at: Option<u64>,
}

impl TelemetryHub {
    /// An enabled hub with the given configuration.
    #[must_use]
    pub fn enabled_with(config: TelemetryConfig) -> Self {
        let mut hub = TelemetryHub::default();
        hub.enable(config);
        hub
    }

    /// Enables recording with `config`, replacing any previous sinks.
    pub fn enable(&mut self, config: TelemetryConfig) {
        self.enabled = true;
        self.ring = EventRing::new(config.ring_capacity);
        self.spans = config.spans.then(|| SpanCollector::new(config.max_spans));
        self.metrics = MetricsHub::with_max_samples(config.max_samples);
        self.sample_every = config.sample_every;
        self.last_sample_at = None;
    }

    /// Turns recording on or off without touching accumulated state.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active. Callers whose event *construction*
    /// is itself costly can gate on this; plain `record` calls don't
    /// need to.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. Disabled hubs return after a single branch.
    #[inline]
    pub fn record(&mut self, cycle: u64, source: &'static str, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.dispatch(cycle, source, &event);
    }

    fn dispatch(&mut self, cycle: u64, source: &'static str, event: &TraceEvent) {
        self.ring.record_event(cycle, source, event);
        if let Some(spans) = self.spans.as_mut() {
            spans.on_event(cycle, event);
        }
        match *event {
            TraceEvent::Counter { name, delta } => self.metrics.counter_add(name, delta),
            TraceEvent::Gauge { name, value } => self.metrics.gauge_set(name, value),
            _ => {}
        }
    }

    /// True when the periodic sampler is due at `cycle`. Callers publish
    /// their gauges between this check and [`TelemetryHub::take_sample`]
    /// so every sample carries fresh levels.
    #[inline]
    #[must_use]
    pub fn should_sample(&self, cycle: u64) -> bool {
        self.enabled
            && self.sample_every > 0
            && match self.last_sample_at {
                None => true,
                Some(last) => cycle >= last + self.sample_every,
            }
    }

    /// Takes the periodic sample at `cycle` (unconditionally; pair with
    /// [`TelemetryHub::should_sample`]).
    pub fn take_sample(&mut self, cycle: u64) -> MetricsSample {
        self.last_sample_at = Some(cycle);
        self.metrics.sample(cycle)
    }

    /// Total events ever recorded (the next sequence number). Zero for a
    /// hub that was never enabled.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.ring.next_seq()
    }

    /// The typed event ring.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.ring
    }

    /// The metrics hub (counters/gauges/histograms/samples).
    #[must_use]
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Mutable metrics access, for publishing gauges and histograms
    /// directly (cheaper than routing through `record` when no event
    /// stream entry is wanted).
    #[must_use]
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// The span collector, if span folding is enabled.
    #[must_use]
    pub fn spans(&self) -> Option<&SpanCollector> {
        self.spans.as_ref()
    }

    /// Chrome trace-event JSON of all finished spans (empty trace if
    /// span folding is off). Loadable in Perfetto / `chrome://tracing`.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        match &self.spans {
            Some(s) => s.chrome_trace_json("tmu"),
            None => "{\"traceEvents\":[]}".to_string(),
        }
    }

    /// The periodic metrics samples as JSON lines.
    #[must_use]
    pub fn metrics_jsonl(&self) -> String {
        self.metrics.jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Channel, Dir, PhaseId};

    fn config() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    #[test]
    fn default_hub_is_disabled_and_records_nothing() {
        let mut hub = TelemetryHub::default();
        assert!(!hub.enabled());
        hub.record(
            0,
            "t",
            TraceEvent::Handshake {
                channel: Channel::Aw,
                id: 0,
            },
        );
        assert_eq!(hub.seq(), 0);
        assert!(hub.events().is_empty());
        assert!(!hub.should_sample(0));
    }

    #[test]
    fn enabled_hub_fans_out_to_ring_spans_and_metrics() {
        let mut hub = TelemetryHub::enabled_with(config());
        let aw = PhaseId {
            dir: Dir::Write,
            index: 0,
            name: "AW-handshake",
        };
        hub.record(
            3,
            "t",
            TraceEvent::OttEnqueue {
                dir: Dir::Write,
                id: 1,
                addr: 0,
                beats: 1,
                slot: 0,
                phase: aw,
            },
        );
        hub.record(
            9,
            "t",
            TraceEvent::OttDequeue {
                dir: Dir::Write,
                id: 1,
                slot: 0,
                total_cycles: 7,
            },
        );
        hub.record(
            9,
            "t",
            TraceEvent::Counter {
                name: "t.txns",
                delta: 1,
            },
        );
        hub.record(
            9,
            "t",
            TraceEvent::Gauge {
                name: "t.level",
                value: 4,
            },
        );
        assert_eq!(hub.seq(), 4);
        assert_eq!(hub.spans().unwrap().spans().len(), 1);
        assert_eq!(hub.metrics().counter("t.txns"), 1);
        assert_eq!(hub.metrics().gauge("t.level"), Some(4));
        assert!(hub.chrome_trace_json().contains("\"ph\":\"X\""));
    }

    #[test]
    fn sampler_fires_on_interval() {
        let mut hub = TelemetryHub::enabled_with(TelemetryConfig {
            sample_every: 100,
            ..config()
        });
        assert!(hub.should_sample(0), "first sample is immediate");
        hub.take_sample(0);
        assert!(!hub.should_sample(99));
        assert!(hub.should_sample(100));
        hub.take_sample(100);
        assert!(!hub.should_sample(150));
        assert_eq!(hub.metrics().samples().len(), 2);
        assert!(!hub.metrics_jsonl().is_empty());
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let hub = TelemetryHub::enabled_with(TelemetryConfig {
            sample_every: 0,
            ..config()
        });
        assert!(!hub.should_sample(0));
        assert!(!hub.should_sample(1_000_000));
    }

    #[test]
    fn spans_can_be_disabled() {
        let hub = TelemetryHub::enabled_with(TelemetryConfig {
            spans: false,
            ..config()
        });
        assert!(hub.spans().is_none());
        assert_eq!(hub.chrome_trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn set_enabled_pauses_without_losing_state() {
        let mut hub = TelemetryHub::enabled_with(config());
        hub.record(
            0,
            "t",
            TraceEvent::Counter {
                name: "c",
                delta: 1,
            },
        );
        hub.set_enabled(false);
        hub.record(
            1,
            "t",
            TraceEvent::Counter {
                name: "c",
                delta: 1,
            },
        );
        assert_eq!(hub.metrics().counter("c"), 1);
        hub.set_enabled(true);
        hub.record(
            2,
            "t",
            TraceEvent::Counter {
                name: "c",
                delta: 1,
            },
        );
        assert_eq!(hub.metrics().counter("c"), 2);
    }
}
