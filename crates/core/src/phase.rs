//! Transaction phases tracked by the Full-Counter solution.
//!
//! The paper's Figs. 4 and 5 define six write phases and (in our reading
//! of the read figure) four read phases. The Tiny-Counter variant still
//! walks the same state machines — it needs to know when a transaction
//! completes — but only one counter spans all phases.

use std::fmt;

/// The six phases of a monitored write transaction (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WritePhase {
    /// Phase 1 — Address handshake: `aw_valid` to `aw_ready`.
    AwHandshake,
    /// Phase 2 — Data-phase entry: `aw_ready` to the first `w_valid`.
    DataEntry,
    /// Phase 3 — First data transfer handshake: `w_valid` to `w_ready`.
    FirstData,
    /// Phase 4 — Burst data transfer: `w_first` to `w_last`.
    BurstTransfer,
    /// Phase 5 — Response monitoring: `w_last` to `b_valid`.
    RespWait,
    /// Phase 6 — Response readiness: `b_valid` to `b_ready`.
    RespReady,
    /// Terminal state: `B` handshake completed.
    Done,
}

impl WritePhase {
    /// All six monitored phases in order (excludes `Done`).
    pub const ALL: [WritePhase; 6] = [
        WritePhase::AwHandshake,
        WritePhase::DataEntry,
        WritePhase::FirstData,
        WritePhase::BurstTransfer,
        WritePhase::RespWait,
        WritePhase::RespReady,
    ];

    /// 0-based index of the phase among the six monitored phases.
    ///
    /// # Panics
    ///
    /// Panics for [`WritePhase::Done`], which is not a monitored phase.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            WritePhase::AwHandshake => 0,
            WritePhase::DataEntry => 1,
            WritePhase::FirstData => 2,
            WritePhase::BurstTransfer => 3,
            WritePhase::RespWait => 4,
            WritePhase::RespReady => 5,
            WritePhase::Done => unreachable!(
                "Done is not a monitored phase: guards check phase_is_done before indexing"
            ),
        }
    }

    /// True once the transaction has completed.
    #[must_use]
    pub fn is_done(self) -> bool {
        self == WritePhase::Done
    }

    /// True while the transaction occupies the W data channel
    /// (phases 2–4): used by the EI table to route W beats.
    #[must_use]
    pub fn in_data_phase(self) -> bool {
        matches!(
            self,
            WritePhase::DataEntry | WritePhase::FirstData | WritePhase::BurstTransfer
        )
    }
}

impl fmt::Display for WritePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WritePhase::AwHandshake => "AW-handshake",
            WritePhase::DataEntry => "data-entry",
            WritePhase::FirstData => "first-data",
            WritePhase::BurstTransfer => "burst-transfer",
            WritePhase::RespWait => "resp-wait",
            WritePhase::RespReady => "resp-ready",
            WritePhase::Done => "done",
        };
        f.write_str(s)
    }
}

/// The four phases of a monitored read transaction (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadPhase {
    /// Phase 1 — Address handshake: `ar_valid` to `ar_ready`.
    ArHandshake,
    /// Phase 2 — Data wait: `ar_ready` to the first `r_valid`.
    DataWait,
    /// Phase 3 — Burst data transfer: `r_first` to `r_last`.
    BurstTransfer,
    /// Phase 4 — Last-beat readiness: `r_valid(last)` to `r_ready`.
    LastReady,
    /// Terminal state: final `R` beat handshake completed.
    Done,
}

impl ReadPhase {
    /// All four monitored phases in order (excludes `Done`).
    pub const ALL: [ReadPhase; 4] = [
        ReadPhase::ArHandshake,
        ReadPhase::DataWait,
        ReadPhase::BurstTransfer,
        ReadPhase::LastReady,
    ];

    /// 0-based index of the phase among the four monitored phases.
    ///
    /// # Panics
    ///
    /// Panics for [`ReadPhase::Done`], which is not a monitored phase.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ReadPhase::ArHandshake => 0,
            ReadPhase::DataWait => 1,
            ReadPhase::BurstTransfer => 2,
            ReadPhase::LastReady => 3,
            ReadPhase::Done => unreachable!(
                "Done is not a monitored phase: guards check phase_is_done before indexing"
            ),
        }
    }

    /// True once the transaction has completed.
    #[must_use]
    pub fn is_done(self) -> bool {
        self == ReadPhase::Done
    }
}

impl fmt::Display for ReadPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReadPhase::ArHandshake => "AR-handshake",
            ReadPhase::DataWait => "data-wait",
            ReadPhase::BurstTransfer => "burst-transfer",
            ReadPhase::LastReady => "last-ready",
            ReadPhase::Done => "done",
        };
        f.write_str(s)
    }
}

/// A phase of either direction, used in unified logs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnPhase {
    /// A write-transaction phase.
    Write(WritePhase),
    /// A read-transaction phase.
    Read(ReadPhase),
}

impl TxnPhase {
    /// Compact register encoding: 1–6 write phases, 7–10 read phases.
    ///
    /// # Panics
    ///
    /// Panics on `Done` phases, which are never logged.
    #[must_use]
    pub fn reg_code(self) -> u8 {
        match self {
            TxnPhase::Write(p) => 1 + p.index() as u8,
            TxnPhase::Read(p) => 7 + p.index() as u8,
        }
    }
}

impl fmt::Display for TxnPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnPhase::Write(p) => write!(f, "W/{p}"),
            TxnPhase::Read(p) => write!(f, "R/{p}"),
        }
    }
}

impl From<WritePhase> for TxnPhase {
    fn from(p: WritePhase) -> Self {
        TxnPhase::Write(p)
    }
}

impl From<ReadPhase> for TxnPhase {
    fn from(p: ReadPhase) -> Self {
        TxnPhase::Read(p)
    }
}

impl From<WritePhase> for tmu_telemetry::PhaseId {
    fn from(p: WritePhase) -> Self {
        // `Done` is a terminal marker, not a monitored phase; give it
        // the next index so the conversion is total.
        let index = if p.is_done() { 6 } else { p.index() as u8 };
        tmu_telemetry::PhaseId::new(tmu_telemetry::Dir::Write, index)
    }
}

impl From<ReadPhase> for tmu_telemetry::PhaseId {
    fn from(p: ReadPhase) -> Self {
        let index = if p.is_done() { 4 } else { p.index() as u8 };
        tmu_telemetry::PhaseId::new(tmu_telemetry::Dir::Read, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_phase_indices_are_dense() {
        for (expect, phase) in WritePhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), expect);
        }
    }

    #[test]
    fn read_phase_indices_are_dense() {
        for (expect, phase) in ReadPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "not a monitored phase")]
    fn write_done_has_no_index() {
        let _ = WritePhase::Done.index();
    }

    #[test]
    #[should_panic(expected = "not a monitored phase")]
    fn read_done_has_no_index() {
        let _ = ReadPhase::Done.index();
    }

    #[test]
    fn data_phase_classification() {
        assert!(!WritePhase::AwHandshake.in_data_phase());
        assert!(WritePhase::DataEntry.in_data_phase());
        assert!(WritePhase::FirstData.in_data_phase());
        assert!(WritePhase::BurstTransfer.in_data_phase());
        assert!(!WritePhase::RespWait.in_data_phase());
        assert!(!WritePhase::Done.in_data_phase());
    }

    #[test]
    fn done_detection() {
        assert!(WritePhase::Done.is_done());
        assert!(!WritePhase::RespReady.is_done());
        assert!(ReadPhase::Done.is_done());
        assert!(!ReadPhase::LastReady.is_done());
    }

    #[test]
    fn txn_phase_display_and_from() {
        let w: TxnPhase = WritePhase::BurstTransfer.into();
        let r: TxnPhase = ReadPhase::DataWait.into();
        assert_eq!(w.to_string(), "W/burst-transfer");
        assert_eq!(r.to_string(), "R/data-wait");
    }

    #[test]
    fn telemetry_phase_ids_match_display_names_and_indices() {
        for phase in WritePhase::ALL {
            let id: tmu_telemetry::PhaseId = phase.into();
            assert_eq!(id.dir(), tmu_telemetry::Dir::Write);
            assert_eq!(id.index() as usize, phase.index());
            assert_eq!(id.name(), phase.to_string());
        }
        for phase in ReadPhase::ALL {
            let id: tmu_telemetry::PhaseId = phase.into();
            assert_eq!(id.dir(), tmu_telemetry::Dir::Read);
            assert_eq!(id.index() as usize, phase.index());
            assert_eq!(id.name(), phase.to_string());
        }
        let done: tmu_telemetry::PhaseId = WritePhase::Done.into();
        assert_eq!((done.index(), done.name()), (6, "done"));
        let done: tmu_telemetry::PhaseId = ReadPhase::Done.into();
        assert_eq!((done.index(), done.name()), (4, "done"));
    }
}
