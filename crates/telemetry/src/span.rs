//! Transaction spans and Chrome trace-event export.
//!
//! [`SpanCollector`] folds the event stream into per-transaction
//! [`TxnSpan`]s: OTT enqueue opens a span (and its first phase slice),
//! each phase transition closes the current slice and opens the next,
//! OTT dequeue closes the span, and a link-sever aborts every open span.
//! The result exports as Chrome trace-event JSON — loadable in Perfetto
//! or `chrome://tracing` — with one process per monitor, one track
//! (thread) per `(direction, AXI ID)`, an outer `X` slice per
//! transaction and nested `X` slices per phase.
//!
//! Cycle→time mapping: 1 cycle = 1 µs (`ts`/`dur` are microseconds in
//! the trace-event format), so timeline coordinates read directly as
//! cycle numbers.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{Dir, PhaseId, TraceEvent};

/// One completed (or aborted) phase within a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSlice {
    /// The phase occupied.
    pub phase: PhaseId,
    /// First cycle spent in the phase.
    pub begin: u64,
    /// One past the last cycle spent in the phase (`end - begin` is the
    /// phase latency in cycles, matching the monitor's perf log).
    pub end: u64,
}

impl PhaseSlice {
    /// Phase latency in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end - self.begin
    }
}

/// One monitored transaction, enqueue to retirement (or abort).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpan {
    /// Transaction direction.
    pub dir: Dir,
    /// Raw AXI ID.
    pub id: u16,
    /// Start address.
    pub addr: u64,
    /// Burst length in beats.
    pub beats: u16,
    /// Cycle the transaction entered the OTT.
    pub begin: u64,
    /// One past the last monitored cycle.
    pub end: u64,
    /// Per-phase slices, in order; contiguous (`phases[k].end ==
    /// phases[k+1].begin`) and covering `[begin, end)` exactly.
    pub phases: Vec<PhaseSlice>,
    /// True if the span ended by link sever rather than retirement.
    pub aborted: bool,
}

impl TxnSpan {
    /// Total monitored cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end - self.begin
    }
}

#[derive(Debug, Clone)]
struct OpenTxn {
    id: u16,
    addr: u64,
    beats: u16,
    begin: u64,
    phases: Vec<PhaseSlice>,
    current: PhaseId,
    current_since: u64,
}

/// Folds [`TraceEvent`]s into [`TxnSpan`]s and exports Chrome
/// trace-event JSON.
///
/// Finished spans live in a bounded ring: once `max_spans` are held,
/// each retirement evicts the oldest span in O(1) and counts it in
/// [`SpanCollector::dropped_spans`], so per-event cost does not grow
/// with run length.
#[derive(Debug, Clone)]
pub struct SpanCollector {
    /// Open transactions keyed by `(dir index, LD slot)` — the slot is
    /// unique among in-flight transactions of one direction.
    open: BTreeMap<(u8, u32), OpenTxn>,
    /// Bounded ring of finished spans, oldest first.
    finished: VecDeque<TxnSpan>,
    max_spans: usize,
    dropped_spans: u64,
}

fn dir_key(dir: Dir) -> u8 {
    match dir {
        Dir::Write => 0,
        Dir::Read => 1,
    }
}

impl SpanCollector {
    /// Default bound on retained finished spans.
    pub const DEFAULT_MAX_SPANS: usize = 4096;

    /// A collector retaining at most `max_spans` finished spans in a
    /// bounded ring (minimum 1; the oldest is evicted in O(1) once full).
    #[must_use]
    pub fn new(max_spans: usize) -> Self {
        SpanCollector {
            open: BTreeMap::new(),
            finished: VecDeque::new(),
            max_spans: max_spans.max(1),
            dropped_spans: 0,
        }
    }

    /// Feeds one event into the state machine. Only span-relevant events
    /// (enqueue/dequeue, phase transition, recovery-sever) change state;
    /// everything else is ignored.
    pub fn on_event(&mut self, cycle: u64, event: &TraceEvent) {
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
                // Phase-latency semantics match the monitor's perf log: a
                // transition committed at cycle c ends the old phase at
                // c+1 and the new phase starts at c+1.
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
                stage: crate::event::RecoveryStage::Severed { .. },
            } => {
                // The link is cut: every in-flight transaction is about
                // to be aborted. Close their spans here so the timeline
                // shows exactly when monitoring gave up on them.
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
        self.finished.push_back(TxnSpan {
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

    /// Finished spans, oldest first.
    #[must_use]
    pub fn spans(&self) -> &VecDeque<TxnSpan> {
        &self.finished
    }

    /// Number of transactions currently open (enqueued, not yet closed).
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Finished spans evicted because the retention bound was hit.
    #[must_use]
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Exports the finished spans as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto or
    /// `chrome://tracing`. Hand-assembled — the offline workspace has no
    /// serialisation crate.
    ///
    /// Layout: process 1 is named `process_name` (default `"tmu"`), one
    /// thread per `(direction, AXI ID)` in first-appearance order, an
    /// outer complete (`"ph":"X"`) slice per transaction and one nested
    /// `X` slice per phase. `ts`/`dur` are in µs with 1 cycle = 1 µs.
    #[must_use]
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        )];
        // Stable track numbering: one tid per (dir, id), in order of
        // first appearance.
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
                span.cycles(),
                span.addr,
                span.beats
            ));
            for slice in &span.phases {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                    slice.phase.name,
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

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_SPANS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecoveryStage;

    fn phase(index: u8, name: &'static str) -> PhaseId {
        PhaseId {
            dir: Dir::Write,
            index,
            name,
        }
    }

    fn enqueue(slot: u32, cycle: u64, c: &mut SpanCollector) {
        c.on_event(
            cycle,
            &TraceEvent::OttEnqueue {
                dir: Dir::Write,
                id: 1,
                addr: 0x80,
                beats: 4,
                slot,
                phase: phase(0, "AW-handshake"),
            },
        );
    }

    #[test]
    fn enqueue_transition_dequeue_builds_contiguous_slices() {
        let mut c = SpanCollector::default();
        enqueue(0, 10, &mut c);
        c.on_event(
            12,
            &TraceEvent::PhaseTransition {
                dir: Dir::Write,
                id: 1,
                slot: 0,
                from: phase(0, "AW-handshake"),
                to: phase(1, "data-entry"),
            },
        );
        c.on_event(
            20,
            &TraceEvent::OttDequeue {
                dir: Dir::Write,
                id: 1,
                slot: 0,
                total_cycles: 11,
            },
        );
        assert_eq!(c.open_count(), 0);
        let span = &c.spans()[0];
        assert!(!span.aborted);
        assert_eq!((span.begin, span.end), (10, 21));
        assert_eq!(span.phases.len(), 2);
        // Slices tile the span exactly.
        assert_eq!(span.phases[0].begin, span.begin);
        assert_eq!(span.phases[0].end, span.phases[1].begin);
        assert_eq!(span.phases[1].end, span.end);
        assert_eq!(
            span.phases.iter().map(PhaseSlice::cycles).sum::<u64>(),
            span.cycles()
        );
    }

    #[test]
    fn sever_aborts_all_open_spans() {
        let mut c = SpanCollector::default();
        enqueue(0, 5, &mut c);
        enqueue(1, 6, &mut c);
        c.on_event(
            30,
            &TraceEvent::Recovery {
                stage: RecoveryStage::Severed {
                    writes: 2,
                    reads: 0,
                    drain: 0,
                },
            },
        );
        assert_eq!(c.open_count(), 0);
        assert_eq!(c.spans().len(), 2);
        assert!(c.spans().iter().all(|s| s.aborted && s.end == 31));
    }

    #[test]
    fn retention_bound_evicts_oldest() {
        let mut c = SpanCollector::new(1);
        for slot in 0..3u32 {
            enqueue(slot, u64::from(slot), &mut c);
            c.on_event(
                u64::from(slot) + 1,
                &TraceEvent::OttDequeue {
                    dir: Dir::Write,
                    id: 1,
                    slot,
                    total_cycles: 2,
                },
            );
        }
        assert_eq!(c.spans().len(), 1);
        assert_eq!(c.dropped_spans(), 2);
        assert_eq!(c.spans()[0].begin, 2);
    }

    #[test]
    fn chrome_trace_has_metadata_and_nested_slices() {
        let mut c = SpanCollector::default();
        enqueue(0, 10, &mut c);
        c.on_event(
            15,
            &TraceEvent::OttDequeue {
                dir: Dir::Write,
                id: 1,
                slot: 0,
                total_cycles: 6,
            },
        );
        let json = c.chrome_trace_json("tmu");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"W id 1\""));
        assert!(json.contains("\"name\":\"W txn id=1\""));
        // Outer slice: ts=10, dur=6; nested phase slice covers the same
        // interval because there was no transition.
        assert!(json.contains("\"ts\":10,\"dur\":6"));
        assert!(json.contains("\"name\":\"AW-handshake\""));
    }

    #[test]
    fn unknown_slot_transition_is_ignored() {
        let mut c = SpanCollector::default();
        c.on_event(
            5,
            &TraceEvent::PhaseTransition {
                dir: Dir::Write,
                id: 9,
                slot: 42,
                from: phase(0, "AW-handshake"),
                to: phase(1, "data-entry"),
            },
        );
        assert_eq!(c.open_count(), 0);
        assert!(c.spans().is_empty());
    }
}
