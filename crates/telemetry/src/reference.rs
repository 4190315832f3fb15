//! The recorder as it was before its rings went fixed and its records
//! compact: a `VecDeque` event ring storing each record's `seq`, a span
//! collector keyed by a `BTreeMap` with one heap `Vec` of phase slices
//! per span, and a sampler that clones the counter map. Kept only as
//! the reference for the differential property below, which feeds the
//! recorder and this reference the same arbitrary streams and compares
//! every export and counter after each step.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{Dir, PhaseId, RecoveryStage, TraceEvent};
use crate::metrics::MetricsSample;
use crate::sink::TelemetryRecord;
use crate::span::PhaseSlice;

/// `EventRing` with a `VecDeque` of stored, sequence-stamped records.
pub struct RingReference {
    records: VecDeque<TelemetryRecord>,
    capacity: usize,
    pub dropped: u64,
    pub next_seq: u64,
}

impl RingReference {
    fn new(capacity: usize) -> Self {
        RingReference {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            next_seq: 0,
        }
    }

    fn record_event(&mut self, cycle: u64, source: &'static str, event: &TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TelemetryRecord {
            seq: self.next_seq,
            cycle,
            source,
            event: *event,
        });
        self.next_seq += 1;
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push(']');
        out
    }

    pub fn lines(&self) -> Vec<String> {
        self.records.iter().map(ToString::to_string).collect()
    }
}

struct OldSpan {
    dir: Dir,
    id: u16,
    addr: u64,
    beats: u16,
    begin: u64,
    end: u64,
    phases: Vec<PhaseSlice>,
    aborted: bool,
}

struct OpenTxn {
    id: u16,
    addr: u64,
    beats: u16,
    begin: u64,
    phases: Vec<PhaseSlice>,
    current: PhaseId,
    current_since: u64,
}

/// `SpanCollector` with open spans in a `BTreeMap<(dir, slot), _>`.
pub struct SpansReference {
    open: BTreeMap<(u8, u32), OpenTxn>,
    finished: VecDeque<OldSpan>,
    max_spans: usize,
    pub dropped_spans: u64,
}

fn dir_key(dir: Dir) -> u8 {
    match dir {
        Dir::Write => 0,
        Dir::Read => 1,
    }
}

impl SpansReference {
    fn new(max_spans: usize) -> Self {
        SpansReference {
            open: BTreeMap::new(),
            finished: VecDeque::new(),
            max_spans: max_spans.max(1),
            dropped_spans: 0,
        }
    }

    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    fn on_event(&mut self, cycle: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::OttEnqueue {
                dir,
                id,
                addr,
                beats,
                slot,
                phase,
            } => {
                self.open.insert(
                    (dir_key(dir), slot),
                    OpenTxn {
                        id,
                        addr,
                        beats,
                        begin: cycle,
                        phases: Vec::new(),
                        current: phase,
                        current_since: cycle,
                    },
                );
            }
            TraceEvent::PhaseTransition { dir, slot, to, .. } => {
                if let Some(txn) = self.open.get_mut(&(dir_key(dir), slot)) {
                    txn.phases.push(PhaseSlice {
                        phase: txn.current,
                        begin: txn.current_since,
                        end: cycle + 1,
                    });
                    txn.current = to;
                    txn.current_since = cycle + 1;
                }
            }
            TraceEvent::OttDequeue { dir, slot, .. } => {
                if let Some(mut txn) = self.open.remove(&(dir_key(dir), slot)) {
                    txn.phases.push(PhaseSlice {
                        phase: txn.current,
                        begin: txn.current_since,
                        end: cycle + 1,
                    });
                    self.finish(dir, txn, cycle + 1, false);
                }
            }
            TraceEvent::Recovery {
                stage: RecoveryStage::Severed { .. },
            } => {
                let open = std::mem::take(&mut self.open);
                for ((d, _slot), mut txn) in open {
                    let dir = if d == 0 { Dir::Write } else { Dir::Read };
                    txn.phases.push(PhaseSlice {
                        phase: txn.current,
                        begin: txn.current_since,
                        end: cycle + 1,
                    });
                    self.finish(dir, txn, cycle + 1, true);
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, dir: Dir, txn: OpenTxn, end: u64, aborted: bool) {
        if self.finished.len() == self.max_spans {
            self.finished.pop_front();
            self.dropped_spans += 1;
        }
        self.finished.push_back(OldSpan {
            dir,
            id: txn.id,
            addr: txn.addr,
            beats: txn.beats,
            begin: txn.begin,
            end,
            phases: txn.phases,
            aborted,
        });
    }

    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        )];
        let mut tids: BTreeMap<(u8, u16), u32> = BTreeMap::new();
        for span in &self.finished {
            let key = (dir_key(span.dir), span.id);
            let next = tids.len() as u32 + 1;
            let tid = *tids.entry(key).or_insert(next);
            if tid == next {
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{} id {}\"}}}}",
                    span.dir.letter(),
                    span.id
                ));
            }
            let status = if span.aborted { "aborted" } else { "ok" };
            events.push(format!(
                "{{\"name\":\"{} txn id={}\",\"cat\":\"txn\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"addr\":{},\"beats\":{},\"status\":\"{status}\"}}}}",
                span.dir.letter(),
                span.id,
                span.begin,
                span.end - span.begin,
                span.addr,
                span.beats
            ));
            for slice in &span.phases {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                    slice.phase.name(),
                    slice.begin,
                    slice.cycles()
                ));
            }
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

/// `MetricsHub` counters, gauges and a sampler that clones the counter
/// map to compute the next sample's deltas.
pub struct MetricsReference {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, u64>,
    last_sampled: BTreeMap<&'static str, u64>,
    samples: VecDeque<MetricsSample>,
    max_samples: usize,
    pub samples_dropped: u64,
}

impl MetricsReference {
    fn new(max_samples: usize) -> Self {
        MetricsReference {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            last_sampled: BTreeMap::new(),
            samples: VecDeque::new(),
            max_samples: max_samples.max(1),
            samples_dropped: 0,
        }
    }

    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    fn sample(&mut self, cycle: u64) -> MetricsSample {
        let counters: Vec<(&'static str, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (*k, v - self.last_sampled.get(k).copied().unwrap_or(0)))
            .collect();
        self.last_sampled = self.counters.clone();
        let gauges: Vec<(&'static str, u64)> = self.gauges.iter().map(|(k, v)| (*k, *v)).collect();
        let sample = MetricsSample {
            cycle,
            counters,
            gauges,
        };
        if self.samples.len() == self.max_samples {
            self.samples.pop_front();
            self.samples_dropped += 1;
        }
        self.samples.push_back(sample.clone());
        sample
    }

    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

/// `TelemetryHub`'s dispatch over the reference sinks: every event to
/// the ring and the span collector, counters and gauges to the metrics.
pub struct HubReference {
    pub ring: RingReference,
    pub spans: Option<SpansReference>,
    pub metrics: MetricsReference,
}

impl HubReference {
    pub fn new(ring_capacity: usize, spans: bool, max_spans: usize, max_samples: usize) -> Self {
        HubReference {
            ring: RingReference::new(ring_capacity),
            spans: spans.then(|| SpansReference::new(max_spans)),
            metrics: MetricsReference::new(max_samples),
        }
    }

    pub fn record(&mut self, cycle: u64, source: &'static str, event: TraceEvent) {
        self.ring.record_event(cycle, source, &event);
        if let Some(spans) = self.spans.as_mut() {
            spans.on_event(cycle, &event);
        }
        match event {
            TraceEvent::Counter { name, delta } => self.metrics.counter_add(name, delta),
            TraceEvent::Gauge { name, value } => self.metrics.gauge_set(name, value),
            _ => {}
        }
    }

    pub fn take_sample(&mut self, cycle: u64) -> MetricsSample {
        self.metrics.sample(cycle)
    }

    pub fn chrome_trace_json(&self) -> String {
        match &self.spans {
            Some(s) => s.chrome_trace_json("tmu"),
            None => "{\"traceEvents\":[]}".to_string(),
        }
    }
}

mod tests {
    use proptest::prelude::*;

    use super::{HubReference, SpansReference};
    use crate::event::{Channel, Dir, FaultClass, PhaseId, RecoveryStage, TraceEvent};
    use crate::hub::{TelemetryConfig, TelemetryHub};
    use crate::span::SpanCollector;

    const SOURCES: [&str; 3] = ["tmu", "tmu.write", "tmu.read"];
    const COUNTERS: [&str; 3] = ["c.b", "c.a", "c.z"];
    const GAUGES: [&str; 3] = ["g.x", "g.a", "g.m"];
    const SLOTS: u64 = 6;

    /// The phase index of each open `(dir, slot)`: generated transitions
    /// advance it, as the guards' state machines do.
    type OpenPhases = [[Option<u8>; SLOTS as usize]; 2];

    enum Step {
        Record(&'static str, TraceEvent),
        Sample,
        Gauge(&'static str, u64),
        Counter(&'static str, u64),
    }

    fn last_phase(dir: Dir) -> u8 {
        match dir {
            Dir::Write => 5,
            Dir::Read => 3,
        }
    }

    /// One step from a random kind and word, covering every event kind.
    fn decode(kind: u8, r: u64, open: &mut OpenPhases) -> Step {
        let dir = if r & 1 == 0 { Dir::Write } else { Dir::Read };
        let d = usize::from(r & 1 == 1);
        let slot = (r >> 1) % SLOTS;
        let s = slot as usize;
        let slot = slot as u32;
        let id = ((r >> 4) & 0xf) as u16;
        let small = (r >> 8) & 0xff;
        let wide = r >> 24;
        let source = SOURCES[(r >> 16) as usize % SOURCES.len()];
        let event = match kind % 23 {
            0 => TraceEvent::Handshake {
                channel: [Channel::Aw, Channel::W, Channel::B, Channel::Ar, Channel::R]
                    [small as usize % 5],
                id,
            },
            1 | 2 => {
                open[d][s] = Some(0);
                TraceEvent::OttEnqueue {
                    dir,
                    id,
                    addr: wide,
                    beats: small as u16 + 1,
                    slot,
                    phase: PhaseId::new(dir, 0),
                }
            }
            3 | 4 => {
                open[d][s] = None;
                TraceEvent::OttDequeue {
                    dir,
                    id,
                    slot,
                    total_cycles: wide,
                }
            }
            5..=7 => {
                let from = open[d][s].unwrap_or(0);
                let last = last_phase(dir);
                if from == last {
                    return Step::Record(
                        source,
                        TraceEvent::Handshake {
                            channel: Channel::B,
                            id,
                        },
                    );
                }
                let to = from + 1 + (small as u8) % (last - from);
                if open[d][s].is_some() {
                    open[d][s] = Some(to);
                }
                TraceEvent::PhaseTransition {
                    dir,
                    id,
                    slot,
                    from: PhaseId::new(dir, from),
                    to: PhaseId::new(dir, to),
                }
            }
            8 => TraceEvent::Rebudget {
                dir,
                id,
                slot,
                budget: wide,
            },
            9 => TraceEvent::WheelArm {
                dir,
                slot,
                fire_at: wide,
            },
            10 => TraceEvent::WheelFire {
                dir,
                slot,
                armed_at: wide,
            },
            11 => TraceEvent::Fault {
                class: if small & 1 == 0 {
                    FaultClass::Timeout
                } else {
                    FaultClass::Protocol
                },
                dir: (small & 2 == 0).then_some(dir),
                id,
                phase: (small & 4 == 0)
                    .then(|| PhaseId::new(dir, (small >> 3) as u8 % (last_phase(dir) + 1))),
            },
            12 => {
                *open = [[None; SLOTS as usize]; 2];
                TraceEvent::Recovery {
                    stage: RecoveryStage::Severed {
                        writes: small as u32,
                        reads: id.into(),
                        drain: (wide & 0xff) as u32,
                    },
                }
            }
            13 => TraceEvent::Recovery {
                stage: [
                    RecoveryStage::AbortsDelivered,
                    RecoveryStage::ResetRequested,
                    RecoveryStage::Resumed,
                ][small as usize % 3],
            },
            14 => TraceEvent::CreditGrant {
                dir,
                id,
                bytes: wide,
            },
            15 => TraceEvent::CreditDeny { dir, id },
            16 => TraceEvent::CreditReplenish {
                window: wide,
                overrun: small & 1 == 1,
            },
            17 => TraceEvent::Isolated {
                streak: small as u32,
            },
            18 => TraceEvent::Counter {
                name: COUNTERS[small as usize % COUNTERS.len()],
                delta: small,
            },
            19 => TraceEvent::Gauge {
                name: GAUGES[small as usize % GAUGES.len()],
                value: wide,
            },
            20 => return Step::Sample,
            21 => return Step::Gauge(GAUGES[small as usize % GAUGES.len()], wide),
            _ => return Step::Counter(COUNTERS[small as usize % COUNTERS.len()], small),
        };
        Step::Record(source, event)
    }

    fn assert_same(hub: &TelemetryHub, reference: &HubReference, step: usize) {
        let ring = hub.events();
        prop_assert_eq!(ring.to_json(), reference.ring.to_json(), "step {}", step);
        let lines: Vec<String> = ring.iter().map(|r| r.to_string()).collect();
        prop_assert_eq!(lines, reference.ring.lines(), "step {}", step);
        prop_assert_eq!(hub.seq(), reference.ring.next_seq);
        prop_assert_eq!(ring.dropped(), reference.ring.dropped);
        prop_assert_eq!(
            hub.chrome_trace_json(),
            reference.chrome_trace_json(),
            "step {}",
            step
        );
        let spans = reference.spans.as_ref();
        prop_assert_eq!(
            hub.spans().map(SpanCollector::dropped_spans),
            spans.map(|s| s.dropped_spans)
        );
        prop_assert_eq!(
            hub.spans().map(SpanCollector::open_count),
            spans.map(SpansReference::open_count),
            "step {}",
            step
        );
        let metrics = hub.metrics();
        prop_assert_eq!(metrics.jsonl(), reference.metrics.jsonl(), "step {}", step);
        prop_assert_eq!(metrics.samples_dropped(), reference.metrics.samples_dropped);
        prop_assert!(metrics.counters().eq(reference
            .metrics
            .counters
            .iter()
            .map(|(k, v)| (*k, *v))));
        prop_assert!(metrics
            .gauges()
            .eq(reference.metrics.gauges.iter().map(|(k, v)| (*k, *v))));
    }

    proptest! {
        #[test]
        fn recorder_matches_the_reference(
            ring_capacity in 1usize..=16,
            max_spans in 1usize..=16,
            max_samples in 1usize..=16,
            spans in any::<bool>(),
            steps in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        ) {
            let mut hub = TelemetryHub::enabled_with(TelemetryConfig {
                ring_capacity,
                spans,
                max_spans,
                sample_every: 0,
                max_samples,
            });
            let mut reference = HubReference::new(ring_capacity, spans, max_spans, max_samples);
            let mut open: OpenPhases = [[None; SLOTS as usize]; 2];
            let mut cycle = 0u64;
            for (i, &(kind, r)) in steps.iter().enumerate() {
                cycle += r >> 62;
                match decode(kind, r, &mut open) {
                    Step::Record(source, event) => {
                        hub.record(cycle, source, event);
                        reference.record(cycle, source, event);
                    }
                    Step::Sample => {
                        let sample = hub.take_sample(cycle).clone();
                        prop_assert_eq!(sample, reference.take_sample(cycle));
                    }
                    Step::Gauge(name, value) => {
                        hub.metrics_mut().gauge_set(name, value);
                        reference.metrics.gauge_set(name, value);
                    }
                    Step::Counter(name, delta) => {
                        hub.metrics_mut().counter_add(name, delta);
                        reference.metrics.counter_add(name, delta);
                    }
                }
                assert_same(&hub, &reference, i);
            }
        }
    }
}
