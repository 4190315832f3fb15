//! Benchmark harness for the DATE-2025 TMU reproduction.
//!
//! One module per concern:
//!
//! * [`table`] — plain-text column tables shared by the figure binaries.
//! * [`related`] — the feature matrix behind the paper's Table II.
//! * [`experiments`] — the computation behind every figure/table, as
//!   plain functions returning data (the `src/bin/*` binaries only
//!   print; integration tests assert on the same data).
//! * [`hotpath`] — the saturated total-stall scenarios behind the
//!   `bench_hotpath` binary and `BENCH_hotpath.json`.
//!
//! # Regenerating the paper's tables and figures
//!
//! ```text
//! cargo run -p tmu-bench --release --bin table1
//! cargo run -p tmu-bench --release --bin table2
//! cargo run -p tmu-bench --release --bin fig7_area
//! cargo run -p tmu-bench --release --bin fig8_prescaler
//! cargo run -p tmu-bench --release --bin fig9_fault_injection
//! cargo run -p tmu-bench --release --bin fig11_system
//! cargo run -p tmu-bench --release --bin headline_area
//! cargo run -p tmu-bench --release --bin ablation_budgets
//! cargo run -p tmu-bench --release --bin ablation_sticky
//! cargo run -p tmu-bench --release --bin ablation_remapper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod hotpath;
pub mod related;
pub mod table;
