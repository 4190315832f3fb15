//! Structural GF12 area model for the TMU.
//!
//! The paper synthesizes the TMU in GlobalFoundries 12 nm and reports
//! block areas for four configurations (Tc, Fc, each with and without a
//! prescaler) across 1–128 outstanding transactions. This crate
//! reproduces those numbers **structurally**: it counts the flip-flop
//! bits and combinational gate-equivalents of every sub-module as a
//! function of the [`tmu::TmuConfig`], then converts to µm² with per-cell
//! coefficients **calibrated by least squares against the paper's four
//! anchor points** (Tc 16/32 outstanding = 1330/2616 µm², Fc 16/32 =
//! 3452/6787 µm²).
//!
//! * [`cells`] — cell-area coefficients and the calibration fit.
//! * [`inventory`] — per-module bit/GE counting.
//! * [`model`] — the public [`model::tmu_area`] entry point and the
//!   [`model::AreaBreakdown`] report.
//!
//! The model's purpose is the *shape* of Figs. 7 and 8 — how area scales
//! with outstanding-transaction count and prescaler step — with absolute
//! values pinned near the paper's anchors. `EXPERIMENTS.md` records the
//! residual error at each anchor.
//!
//! # Example
//!
//! ```
//! use gf12_area::model::tmu_area;
//! use tmu::TmuConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = TmuConfig::builder().max_uniq_ids(4).txn_per_id(4).build()?;
//! let area = tmu_area(&cfg, 256);
//! assert!(area.total_um2() > 1000.0 && area.total_um2() < 2000.0);
//! # Ok(())
//! # }
//! ```

pub mod cells;
pub mod inventory;
pub mod model;

pub use cells::CellLibrary;
pub use inventory::ModuleBits;
pub use model::{tmu_area, AreaBreakdown};
