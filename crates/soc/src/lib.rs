//! Cheshire-like SoC substrate for the TMU reproduction (paper Fig. 10).
//!
//! The paper integrates the TMU into Cheshire, a Linux-capable RISC-V
//! CVA6 SoC, between the AXI crossbar and an RGMII Ethernet peripheral.
//! This crate provides the behavioural equivalents of every block that
//! figure shows:
//!
//! * [`manager`] — configurable traffic-generating AXI managers (the CPU
//!   and DMA roles).
//! * [`dma`] — a descriptor-based copy engine that moves real data
//!   (verifiable end to end).
//! * [`mux`] — an N-manager AXI multiplexer with ID-width extension and
//!   fair, stability-preserving arbitration.
//! * [`demux`] — a 1-to-N address-decoding demultiplexer with same-ID
//!   ordering stalls and a DECERR default subordinate.
//! * [`subordinate`] — the one AXI subordinate pipeline, generic over
//!   the [`Store`](subordinate::Store) that keeps its data.
//! * [`memory`] — a DRAM-controller-like subordinate with configurable
//!   latencies: the pipeline over a sparse word map.
//! * [`ethernet`] — an Ethernet-like streaming peripheral with per-beat
//!   pacing, frame accounting and a hardware reset input: the pipeline
//!   over a ring frame buffer.
//! * [`link`] — a single guarded manager↔subordinate link, the
//!   IP-level fault-injection harness of Fig. 9.
//! * [`stage`] — the [`LinkStage`] protocol every per-link unit (TMU +
//!   reset line, regulator) follows, and the [`StageBank`] that puts one
//!   optional stage on each of N ports with wire-copy fallback, merged
//!   fault/interrupt views and independent per-port recovery.
//! * [`regulated`] — the regulated shared-subordinate link: per-manager
//!   credit regulators in a stage bank upstream of the mux (bandwidth
//!   budgeting and misbehaving-manager isolation) and a trunk TMU.
//! * [`probe`] — VCD waveform probing of any port's wires.
//! * [`system`] — the full assembly: two managers → mux → demux →
//!   {memory, TMU + Ethernet}, plus the reset controller and interrupt
//!   plumbing.
//!
//! # Example
//!
//! ```
//! use soc::system::{System, SystemConfig};
//!
//! let mut system = System::new(SystemConfig::default());
//! system.run(2000);
//! let stats = system.cpu_stats();
//! assert!(stats.writes_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
pub mod demux;
pub mod dma;
pub mod ethernet;
pub mod link;
pub mod manager;
pub mod memory;
pub mod mux;
pub mod probe;
pub mod regulated;
pub mod stage;
pub mod subordinate;
pub mod system;

pub use demux::{AddrRegion, Demux};
pub use dma::{Descriptor, DmaEngine, DmaOutcome};
pub use ethernet::{EthConfig, EthSub};
pub use link::{AxiSubordinate, DeadSub, GuardedLink};
pub use manager::{MgrStats, TrafficGen, TrafficPattern};
pub use memory::{MemConfig, MemSub};
pub use mux::Mux;
pub use probe::WaveProbe;
pub use regulated::RegulatedLink;
pub use stage::{LinkStage, StageBank, TmuStage};
pub use system::{System, SystemConfig};
