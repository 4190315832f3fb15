//! Per-channel payload structs — one beat of each of the five AXI4
//! channels.
//!
//! A "beat" is the unit transferred by a single `valid && ready`
//! handshake. Address channels carry one beat per transaction; data
//! channels carry `BurstLen::beats()` beats per transaction.

use std::fmt;

use crate::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};

/// The fields both address channels carry, read alike by code that
/// treats writes and reads the same way (burst checks, guards,
/// regulators). [`AwBeat`] and [`ArBeat`] stay distinct types, so a read
/// address can never be driven onto a write channel.
pub trait AddrBeat: Copy + fmt::Debug + fmt::Display {
    /// Transaction identifier (`AxID`).
    fn id(&self) -> AxiId;
    /// Start address of the burst (`AxADDR`).
    fn addr(&self) -> Addr;
    /// Burst length (`AxLEN`).
    fn burst_len(&self) -> BurstLen;
    /// Bytes per beat (`AxSIZE`).
    fn size(&self) -> BurstSize;
    /// Burst type (`AxBURST`).
    fn burst(&self) -> BurstKind;

    /// Total bytes moved by the burst this beat announces.
    fn total_bytes(&self) -> u64 {
        u64::from(self.burst_len().beats()) * u64::from(self.size().bytes())
    }
}

/// Implements [`AddrBeat`] for an address beat struct by field access.
macro_rules! addr_beat {
    ($beat:ty) => {
        impl AddrBeat for $beat {
            fn id(&self) -> AxiId {
                self.id
            }
            fn addr(&self) -> Addr {
                self.addr
            }
            fn burst_len(&self) -> BurstLen {
                self.len
            }
            fn size(&self) -> BurstSize {
                self.size
            }
            fn burst(&self) -> BurstKind {
                self.burst
            }
        }
    };
}

addr_beat!(AwBeat);
addr_beat!(ArBeat);

/// One beat of the write-address (AW) channel.
///
/// ```
/// use axi4::prelude::*;
/// let aw = AwBeat::new(AxiId(1), Addr(0x100), BurstLen::from_beats(8).unwrap(),
///                      BurstSize::from_bytes(8).unwrap(), BurstKind::Incr);
/// assert_eq!(aw.total_bytes(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AwBeat {
    /// Write transaction identifier (`AWID`).
    pub id: AxiId,
    /// Start address of the burst (`AWADDR`).
    pub addr: Addr,
    /// Burst length (`AWLEN`).
    pub len: BurstLen,
    /// Bytes per beat (`AWSIZE`).
    pub size: BurstSize,
    /// Burst type (`AWBURST`).
    pub burst: BurstKind,
}

impl AwBeat {
    /// Constructs a write-address beat.
    #[must_use]
    pub fn new(id: AxiId, addr: Addr, len: BurstLen, size: BurstSize, burst: BurstKind) -> Self {
        AwBeat {
            id,
            addr,
            len,
            size,
            burst,
        }
    }
}

impl fmt::Display for AwBeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AW {} @{} {} x {} {}",
            self.id, self.addr, self.len, self.size, self.burst
        )
    }
}

/// One beat of the write-data (W) channel.
///
/// Note that per AXI4 the W channel carries **no ID**: write data must
/// arrive in the same order as the addresses on AW — the invariant the
/// TMU's Enqueue-Index (EI) table enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WBeat {
    /// Data payload (up to a 64-bit bus in this model).
    pub data: u64,
    /// Byte-lane strobes (`WSTRB`), one bit per byte of the bus.
    pub strb: u8,
    /// Last-beat marker (`WLAST`).
    pub last: bool,
}

impl WBeat {
    /// Constructs a write-data beat with all byte lanes enabled.
    #[must_use]
    pub fn new(data: u64, last: bool) -> Self {
        WBeat {
            data,
            strb: 0xff,
            last,
        }
    }

    /// Constructs a write-data beat with explicit strobes.
    #[must_use]
    pub fn with_strobes(data: u64, strb: u8, last: bool) -> Self {
        WBeat { data, strb, last }
    }
}

impl fmt::Display for WBeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "W 0x{:016x} strb={:08b}{}",
            self.data,
            self.strb,
            if self.last { " LAST" } else { "" }
        )
    }
}

/// One beat of the write-response (B) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BBeat {
    /// Identifier of the completed write (`BID`).
    pub id: AxiId,
    /// Completion status (`BRESP`).
    pub resp: Resp,
}

impl BBeat {
    /// Constructs a write-response beat.
    #[must_use]
    pub fn new(id: AxiId, resp: Resp) -> Self {
        BBeat { id, resp }
    }

    /// The `SLVERR` abort response the TMU issues for transaction `id`.
    #[must_use]
    pub fn abort(id: AxiId) -> Self {
        BBeat {
            id,
            resp: Resp::SlvErr,
        }
    }
}

impl fmt::Display for BBeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B {} {}", self.id, self.resp)
    }
}

/// One beat of the read-address (AR) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArBeat {
    /// Read transaction identifier (`ARID`).
    pub id: AxiId,
    /// Start address of the burst (`ARADDR`).
    pub addr: Addr,
    /// Burst length (`ARLEN`).
    pub len: BurstLen,
    /// Bytes per beat (`ARSIZE`).
    pub size: BurstSize,
    /// Burst type (`ARBURST`).
    pub burst: BurstKind,
}

impl ArBeat {
    /// Constructs a read-address beat.
    #[must_use]
    pub fn new(id: AxiId, addr: Addr, len: BurstLen, size: BurstSize, burst: BurstKind) -> Self {
        ArBeat {
            id,
            addr,
            len,
            size,
            burst,
        }
    }
}

impl fmt::Display for ArBeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AR {} @{} {} x {} {}",
            self.id, self.addr, self.len, self.size, self.burst
        )
    }
}

/// One beat of the read-data (R) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RBeat {
    /// Identifier of the read this beat belongs to (`RID`).
    pub id: AxiId,
    /// Data payload.
    pub data: u64,
    /// Per-beat status (`RRESP`).
    pub resp: Resp,
    /// Last-beat marker (`RLAST`).
    pub last: bool,
}

impl RBeat {
    /// Constructs a read-data beat.
    #[must_use]
    pub fn new(id: AxiId, data: u64, resp: Resp, last: bool) -> Self {
        RBeat {
            id,
            data,
            resp,
            last,
        }
    }

    /// The `SLVERR` abort beat the TMU issues when draining an aborted
    /// read transaction.
    #[must_use]
    pub fn abort(id: AxiId, last: bool) -> Self {
        RBeat {
            id,
            data: 0,
            resp: Resp::SlvErr,
            last,
        }
    }
}

impl fmt::Display for RBeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R {} 0x{:016x} {}{}",
            self.id,
            self.data,
            self.resp,
            if self.last { " LAST" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aw() -> AwBeat {
        AwBeat::new(
            AxiId(2),
            Addr(0x40),
            BurstLen::from_beats(4).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    #[test]
    fn aw_total_bytes() {
        assert_eq!(aw().total_bytes(), 32);
    }

    #[test]
    fn ar_total_bytes() {
        let ar = ArBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::MAX,
            BurstSize::from_bytes(1).unwrap(),
            BurstKind::Incr,
        );
        assert_eq!(ar.total_bytes(), 256);
    }

    #[test]
    fn w_beat_defaults_full_strobes() {
        let w = WBeat::new(0xdead, false);
        assert_eq!(w.strb, 0xff);
        let w = WBeat::with_strobes(0xdead, 0x0f, true);
        assert_eq!(w.strb, 0x0f);
        assert!(w.last);
    }

    #[test]
    fn abort_constructors_use_slverr() {
        assert_eq!(BBeat::abort(AxiId(1)).resp, Resp::SlvErr);
        let r = RBeat::abort(AxiId(1), true);
        assert_eq!(r.resp, Resp::SlvErr);
        assert!(r.last);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!aw().to_string().is_empty());
        assert!(!WBeat::new(0, true).to_string().is_empty());
        assert!(!BBeat::default().to_string().is_empty());
        assert!(!RBeat::default().to_string().is_empty());
    }
}
