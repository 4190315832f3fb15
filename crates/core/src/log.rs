//! Error and performance logs (paper §II-H).
//!
//! The Full-Counter solution "provides detailed error logs for
//! performance and bottleneck analysis": every fault is recorded with its
//! phase, cycle and transaction context ([`ErrorLog`]), and every
//! *completed* transaction contributes its per-phase latencies to the
//! performance log ([`PerfLog`]). The Tiny-Counter records faults at
//! transaction granularity and total latency only.

use std::collections::VecDeque;
use std::fmt;

use axi4::checker::Rule;
use axi4::{Addr, AxiId};
use sim::Histogram;

use crate::phase::{ReadPhase, TxnPhase, WritePhase};

/// What kind of failure the TMU detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A phase or transaction exceeded its time budget.
    Timeout,
    /// A protocol rule fired.
    Protocol(Rule),
    /// An external supervisor (e.g. a traffic regulator) severed and
    /// aborted a link; the string names the policy.
    External(&'static str),
}

impl FaultKind {
    /// Compact register encoding: 1 = timeout, 2 = protocol violation,
    /// 3 = externally commanded isolation.
    #[must_use]
    pub fn reg_code(self) -> u8 {
        match self {
            FaultKind::Timeout => 1,
            FaultKind::Protocol(_) => 2,
            FaultKind::External(_) => 3,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Timeout => write!(f, "timeout"),
            FaultKind::Protocol(rule) => write!(f, "protocol({rule})"),
            FaultKind::External(reason) => write!(f, "external({reason})"),
        }
    }
}

/// One entry of the error log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorRecord {
    /// Cycle at which the fault was flagged.
    pub cycle: u64,
    /// Failure class.
    pub kind: FaultKind,
    /// Phase in which the fault was localized (`None` for the
    /// Tiny-Counter's transaction-level detection and for protocol
    /// violations not attributable to a tracked transaction).
    pub phase: Option<TxnPhase>,
    /// Raw AXI ID of the affected transaction, when attributable.
    pub id: Option<AxiId>,
    /// Start address of the affected transaction, when attributable.
    pub addr: Option<Addr>,
    /// Cycles the transaction had been in flight when the fault fired.
    pub inflight_cycles: u64,
}

impl fmt::Display for ErrorRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.kind)?;
        if let Some(phase) = &self.phase {
            write!(f, " in {phase}")?;
        }
        if let Some(id) = self.id {
            write!(f, " {id}")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " @{addr}")?;
        }
        write!(f, " after {} cycles", self.inflight_cycles)
    }
}

/// Bounded FIFO of [`ErrorRecord`]s with an overflow counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorLog {
    records: VecDeque<ErrorRecord>,
    capacity: usize,
    overflowed: u64,
}

impl ErrorLog {
    /// Default log depth.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A log with the default depth.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A log holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "error log needs at least one slot");
        ErrorLog {
            records: VecDeque::with_capacity(capacity),
            capacity,
            overflowed: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: ErrorRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.overflowed += 1;
        }
        self.records.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ErrorRecord> {
        self.records.iter()
    }

    /// The most recent record.
    #[must_use]
    pub fn last(&self) -> Option<&ErrorRecord> {
        self.records.back()
    }

    /// Retained record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to overflow.
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Pops the oldest record (the software log-readout path).
    pub fn pop(&mut self) -> Option<ErrorRecord> {
        self.records.pop_front()
    }
}

/// Latency record of one *completed* transaction (Full-Counter only for
/// the per-phase breakdown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfRecord {
    /// Raw AXI ID.
    pub id: AxiId,
    /// Start address.
    pub addr: Addr,
    /// True for writes, false for reads.
    pub is_write: bool,
    /// Data beats transferred.
    pub beats: u16,
    /// Total cycles from enqueue to completion.
    pub total_cycles: u64,
    /// Per-phase cycles (6 write slots or 4 read slots; unused slots are
    /// zero). Indexed by [`WritePhase::index`] / [`ReadPhase::index`].
    pub phase_cycles: [u64; 6],
    /// Cycle the transaction completed.
    pub completed_at: u64,
}

impl PerfRecord {
    /// Latency of a specific write phase.
    #[must_use]
    pub fn write_phase(&self, phase: WritePhase) -> u64 {
        self.phase_cycles[phase.index()]
    }

    /// Latency of a specific read phase.
    #[must_use]
    pub fn read_phase(&self, phase: ReadPhase) -> u64 {
        self.phase_cycles[phase.index()]
    }

    /// Bytes per cycle over the transaction's lifetime, given the beat
    /// size in bytes.
    #[must_use]
    pub fn throughput(&self, beat_bytes: u32) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        f64::from(self.beats) * f64::from(beat_bytes) / self.total_cycles as f64
    }
}

/// Aggregated performance log: histograms of total and per-phase
/// latencies plus a bounded FIFO of recent records.
///
/// (A runtime aggregate, not a serializable data structure — snapshot it
/// through [`crate::report::TmuReport`] for persistence.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfLog {
    recent: VecDeque<PerfRecord>,
    capacity: usize,
    total_latency: Histogram,
    write_phase_latency: [Histogram; 6],
    read_phase_latency: [Histogram; 4],
    writes: u64,
    reads: u64,
    bytes: u64,
}

impl PerfLog {
    /// Default depth of the recent-record FIFO.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A log with the default recent-record depth.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A log retaining `capacity` recent records (histograms are
    /// unbounded aggregations regardless).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "perf log needs at least one slot");
        PerfLog {
            recent: VecDeque::with_capacity(capacity),
            capacity,
            total_latency: Histogram::new(),
            write_phase_latency: Default::default(),
            read_phase_latency: Default::default(),
            writes: 0,
            reads: 0,
            bytes: 0,
        }
    }

    /// Records a completed transaction. `beat_bytes` feeds the byte
    /// counter used for throughput reporting.
    pub fn record(&mut self, record: PerfRecord, beat_bytes: u32) {
        self.total_latency.record(record.total_cycles);
        if record.is_write {
            self.writes += 1;
            for phase in WritePhase::ALL {
                self.write_phase_latency[phase.index()].record(record.phase_cycles[phase.index()]);
            }
        } else {
            self.reads += 1;
            for phase in ReadPhase::ALL {
                self.read_phase_latency[phase.index()].record(record.phase_cycles[phase.index()]);
            }
        }
        self.bytes += u64::from(record.beats) * u64::from(beat_bytes);
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
    }

    /// Recent records, oldest first.
    pub fn iter_recent(&self) -> impl Iterator<Item = &PerfRecord> {
        self.recent.iter()
    }

    /// Histogram of total transaction latencies.
    #[must_use]
    pub fn total_latency(&self) -> &Histogram {
        &self.total_latency
    }

    /// Histogram of one write phase's latencies.
    #[must_use]
    pub fn write_phase_latency(&self, phase: WritePhase) -> &Histogram {
        &self.write_phase_latency[phase.index()]
    }

    /// Histogram of one read phase's latencies.
    #[must_use]
    pub fn read_phase_latency(&self, phase: ReadPhase) -> &Histogram {
        &self.read_phase_latency[phase.index()]
    }

    /// Completed writes.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Completed reads.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total data bytes moved by completed transactions.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The write phase with the largest mean latency — the "bottleneck"
    /// pointer of the paper's performance-analysis use case.
    #[must_use]
    pub fn write_bottleneck(&self) -> Option<(WritePhase, f64)> {
        WritePhase::ALL
            .into_iter()
            .filter_map(|p| self.write_phase_latency[p.index()].mean().map(|m| (p, m)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for PerfLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(is_write: bool, total: u64, phases: [u64; 6]) -> PerfRecord {
        PerfRecord {
            id: AxiId(1),
            addr: Addr(0x100),
            is_write,
            beats: 4,
            total_cycles: total,
            phase_cycles: phases,
            completed_at: 100,
        }
    }

    #[test]
    fn error_log_push_and_overflow() {
        let mut log = ErrorLog::with_capacity(2);
        for n in 0..3 {
            log.push(ErrorRecord {
                cycle: n,
                kind: FaultKind::Timeout,
                phase: None,
                id: None,
                addr: None,
                inflight_cycles: 0,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.overflowed(), 1);
        assert_eq!(log.iter().next().unwrap().cycle, 1);
        assert_eq!(log.last().unwrap().cycle, 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn error_record_display_is_informative() {
        let rec = ErrorRecord {
            cycle: 42,
            kind: FaultKind::Timeout,
            phase: Some(WritePhase::BurstTransfer.into()),
            id: Some(AxiId(3)),
            addr: Some(Addr(0x80)),
            inflight_cycles: 17,
        };
        let s = rec.to_string();
        assert!(s.contains("cycle 42"));
        assert!(s.contains("timeout"));
        assert!(s.contains("burst-transfer"));
        assert!(s.contains("ID#3"));
        assert!(s.contains("17 cycles"));
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::Timeout.to_string(), "timeout");
        assert!(FaultKind::Protocol(Rule::WlastEarly)
            .to_string()
            .contains("WLAST_EARLY"));
    }

    #[test]
    fn perf_log_aggregates_writes_and_reads() {
        let mut log = PerfLog::new();
        log.record(record(true, 50, [5, 5, 5, 20, 10, 5]), 8);
        log.record(record(false, 30, [3, 7, 20, 0, 0, 0]), 8);
        assert_eq!(log.writes(), 1);
        assert_eq!(log.reads(), 1);
        assert_eq!(log.bytes(), 2 * 4 * 8);
        assert_eq!(log.total_latency().count(), 2);
        assert_eq!(
            log.write_phase_latency(WritePhase::BurstTransfer).max(),
            Some(20)
        );
        assert_eq!(
            log.read_phase_latency(ReadPhase::BurstTransfer).max(),
            Some(20)
        );
    }

    #[test]
    fn perf_log_recent_ring() {
        let mut log = PerfLog::with_capacity(1);
        log.record(record(true, 10, [0; 6]), 8);
        log.record(record(true, 20, [0; 6]), 8);
        assert_eq!(log.iter_recent().count(), 1);
        assert_eq!(log.iter_recent().next().unwrap().total_cycles, 20);
        // Histograms keep aggregating past the ring.
        assert_eq!(log.total_latency().count(), 2);
    }

    #[test]
    fn bottleneck_points_at_slowest_phase() {
        let mut log = PerfLog::new();
        log.record(record(true, 100, [1, 2, 3, 80, 10, 4]), 8);
        log.record(record(true, 100, [1, 2, 3, 70, 20, 4]), 8);
        let (phase, mean) = log.write_bottleneck().unwrap();
        assert_eq!(phase, WritePhase::BurstTransfer);
        assert!((mean - 75.0).abs() < 1e-9);
    }

    #[test]
    fn perf_record_accessors() {
        let rec = record(true, 100, [1, 2, 3, 4, 5, 6]);
        assert_eq!(rec.write_phase(WritePhase::AwHandshake), 1);
        assert_eq!(rec.write_phase(WritePhase::RespReady), 6);
        assert_eq!(rec.read_phase(ReadPhase::DataWait), 2);
        assert!((rec.throughput(8) - 0.32).abs() < 1e-9);
        assert_eq!(record(true, 0, [0; 6]).throughput(8), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_error_log_rejected() {
        let _ = ErrorLog::with_capacity(0);
    }
}
