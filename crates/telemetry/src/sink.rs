//! The typed event ring: the bounded, sequence-stamped record of every
//! [`TraceEvent`] a [`crate::TelemetryHub`] sees. Each record's `Display`
//! is one human-readable lifecycle line; [`EventRing::to_json`] is the
//! machine-readable form.

use std::collections::VecDeque;
use std::fmt;

use crate::event::TraceEvent;

/// A sequence-stamped event as stored in an [`EventRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Monotonic sequence number, assigned at record time. Gaps in the
    /// numbers held by the ring equal the number of evicted records.
    pub seq: u64,
    /// Simulation cycle the event was observed at.
    pub cycle: u64,
    /// Component that emitted the event (e.g. `"tmu.write"`).
    pub source: &'static str,
    /// The event payload.
    pub event: TraceEvent,
}

impl TelemetryRecord {
    /// One JSON object describing this record (hand-assembled; the
    /// offline workspace has no serialisation crate).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"cycle\":{},\"source\":\"{}\",\"kind\":\"{}\",{}}}",
            self.seq,
            self.cycle,
            self.source,
            self.event.kind(),
            self.event.json_fields()
        )
    }
}

impl fmt::Display for TelemetryRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] #{} {}: {}",
            self.cycle, self.seq, self.source, self.event
        )
    }
}

/// A bounded ring of typed [`TelemetryRecord`]s.
///
/// When full, the oldest record is evicted and [`EventRing::dropped`]
/// counts it. Capacity is *not* preallocated — a hub that is never
/// enabled allocates nothing.
#[derive(Debug, Clone)]
pub struct EventRing {
    records: VecDeque<TelemetryRecord>,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
}

impl Default for EventRing {
    /// A ring of [`EventRing::DEFAULT_CAPACITY`] records.
    fn default() -> Self {
        EventRing::new(EventRing::DEFAULT_CAPACITY)
    }
}

impl EventRing {
    /// Capacity of a default-constructed ring.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a ring bounded to `capacity` records (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventRing {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sequence number the next recorded event will receive; equals the
    /// total number of events ever recorded.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Iterates the held records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TelemetryRecord> {
        self.records.iter()
    }

    /// Drops all held records; `dropped` and the sequence counter keep
    /// counting so gap detection still works across a clear.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Renders the held records as a JSON array of objects.
    #[must_use]
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

    /// Records one event observed at `cycle` by component `source`,
    /// evicting the oldest record when the ring is full.
    pub fn record_event(&mut self, cycle: u64, source: &'static str, event: &TraceEvent) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Channel;

    fn handshake(id: u16) -> TraceEvent {
        TraceEvent::Handshake {
            channel: Channel::Aw,
            id,
        }
    }

    #[test]
    fn ring_stamps_monotonic_sequence_numbers() {
        let mut ring = EventRing::new(8);
        for i in 0..5 {
            ring.record_event(i, "t", &handshake(i as u16));
        }
        let seqs: Vec<u64> = ring.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.next_seq(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn eviction_counts_dropped_and_leaves_a_gap() {
        let mut ring = EventRing::new(2);
        for i in 0..5 {
            ring.record_event(i, "t", &handshake(0));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        // Oldest surviving seq equals the number dropped: the gap from 0
        // tells the consumer exactly how much history is missing.
        assert_eq!(ring.iter().next().unwrap().seq, 3);
    }

    #[test]
    fn clear_preserves_counters() {
        let mut ring = EventRing::new(2);
        for i in 0..3 {
            ring.record_event(i, "t", &handshake(0));
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
        ring.record_event(9, "t", &handshake(0));
        assert_eq!(ring.iter().next().unwrap().seq, 3);
    }

    #[test]
    fn ring_does_not_preallocate() {
        let ring = EventRing::new(1 << 20);
        // A disabled hub should cost nothing: capacity is a bound, not a
        // reservation.
        assert!(ring.records.capacity() < 1 << 20);
    }

    #[test]
    fn record_json_is_one_object() {
        let mut ring = EventRing::new(4);
        ring.record_event(7, "tmu.write", &handshake(3));
        let json = ring.iter().next().unwrap().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seq\":0"));
        assert!(json.contains("\"cycle\":7"));
        assert!(json.contains("\"kind\":\"handshake\""));
        assert!(ring.to_json().starts_with('['));
    }
}
