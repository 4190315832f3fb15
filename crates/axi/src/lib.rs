//! Cycle-accurate behavioural model of the AMBA AXI4 protocol.
//!
//! This crate provides the protocol substrate for the reproduction of the
//! DATE 2025 paper *"Towards Reliable Systems: A Scalable Approach to AXI4
//! Transaction Monitoring"*. It contains:
//!
//! * [`types`] — the scalar protocol vocabulary ([`AxiId`], [`Addr`],
//!   [`BurstKind`], [`BurstLen`], [`BurstSize`], [`Resp`]).
//! * [`beat`] — one struct per channel payload ([`AwBeat`], [`WBeat`],
//!   [`BBeat`], [`ArBeat`], [`RBeat`]).
//! * [`channel`] — the valid/ready handshake wire model ([`Channel`]) and
//!   the five-channel port bundle ([`AxiPort`]).
//! * [`burst`] — burst address arithmetic (FIXED/INCR/WRAP, the 4 KiB
//!   boundary rule, wrap-boundary computation).
//! * [`txn`] — whole-transaction descriptors used by traffic generators
//!   and scoreboards.
//! * [`checker`] — protocol rules in the spirit of AXIChecker \[Chen et
//!   al., ISOCC 2010\]: the stateless wire rules the TMU runs beside its
//!   guards, and the standalone reference checker.
//! * [`hash`] — the fixed-key hasher behind the simulator's per-beat
//!   maps ([`hash::FoldHashMap`]).
//!
//! # Simulation model
//!
//! All signals are re-driven every cycle (combinational wires). A cycle
//! consists of an ordered sequence of *drive* passes followed by a single
//! *commit*: a beat transfers on every channel where `valid && ready` at
//! commit time. See the `sim` crate for the kernel that sequences this.
//!
//! # Example
//!
//! ```
//! use axi4::prelude::*;
//!
//! let mut port = AxiPort::new();
//! port.begin_cycle();
//! // Manager offers a write address.
//! port.aw.drive(AwBeat::new(AxiId(3), Addr(0x1000), BurstLen::from_beats(4).unwrap(),
//!                           BurstSize::from_bytes(8).unwrap(), BurstKind::Incr));
//! // Subordinate accepts it.
//! port.aw.set_ready(true);
//! assert!(port.aw.fires());
//! ```

pub mod beat;
pub mod burst;
pub mod channel;
pub mod checker;
pub mod hash;
pub mod txn;
pub mod types;

pub use beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
pub use channel::{AxiPort, Channel};
pub use types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::beat::{AddrBeat, ArBeat, AwBeat, BBeat, RBeat, WBeat};
    pub use crate::burst::{beat_address, crosses_4k_boundary, wrap_boundary};
    pub use crate::channel::{AxiPort, Channel};
    pub use crate::checker::{ProtocolChecker, Rule, Violation};
    pub use crate::txn::{ReadTxn, TxnBuilder, WriteTxn};
    pub use crate::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};
}
