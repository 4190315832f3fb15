//! The top-level Transaction Monitoring Unit (paper §II, Figs. 1 & 2).
//!
//! [`Tmu`] is a drop-in block between the AXI4 interconnect (manager
//! side) and a subordinate. Per cycle, the surrounding harness calls, in
//! order, the same four passes as every `soc::stage::LinkStage`:
//!
//! 1. [`Tmu::forward_request`] — after the manager drives its wires:
//!    copies AW/W/AR valid+payload and B/R ready onto the subordinate
//!    port (possibly gated: OTT saturation backpressure, or severed after
//!    a fault);
//! 2. [`Tmu::forward_response`] — after the subordinate drives its wires:
//!    copies B/R valid+payload and AW/W/AR ready back to the manager
//!    (possibly replaced by `SLVERR` abort responses);
//! 3. [`Tmu::backprop_response_ready`] — only where the manager side's
//!    B/R `ready` settles late (below a mux or demux);
//! 4. [`Tmu::commit_port`] — at the clock edge, reads the settled
//!    manager-side wires ("listens in parallel", adding no latency on the
//!    datapath), advances the guards' phase machines and timeout
//!    counters, detects faults, and steps the recovery state machine.
//!
//! [`Tmu::observe`] followed by [`Tmu::commit`] is an adapter for
//! component loops written against a separate observe pass: it latches
//! the wires, then commits from the latch.
//!
//! # Fault reaction (paper §II-B)
//!
//! On detecting a protocol violation or timeout the TMU severs both
//! request and response paths, aborts every outstanding transaction by
//! answering the manager with `SLVERR`, raises an interrupt, and requests
//! an external hardware reset of the subordinate. Once the reset
//! completes ([`Tmu::reset_done`]) it resumes normal monitoring.
//!
//! # Module map
//!
//! The facade is this module's [`Tmu`] struct; its behaviour is split by
//! concern into focused submodules, all implementing on the same type:
//!
//! * `datapath.rs` — the combinational forwarding passes:
//!   request/response forwarding with stall gating, handing the severed
//!   drive to the [`Terminator`];
//! * `fsm.rs` — the clocked commit path: the settled wires' decode,
//!   fault collection, severing through the terminator, and the reset
//!   request and recovery telemetry around its Monitoring → Aborting →
//!   WaitReset walk;
//! * `regs.rs` — the software view: register reads/writes (error-report
//!   assembly into `ErrHeadInfo`) and interrupt management;
//! * `publish.rs` — telemetry publication: occupancy gauges, trace/span
//!   export, and metrics snapshots.

mod datapath;
mod fsm;
mod publish;
mod regs;
#[cfg(test)]
mod tests;

use axi4::channel::AxiPort;
use axi4::checker::{Violation, WireRules};
use tmu_telemetry::TelemetryHub;

use crate::config::{RegisterFile, TmuConfig, TmuVariant};
use crate::guard::{GuardFault, ReadGuard, WriteGuard};
use crate::log::{ErrorLog, ErrorRecord, PerfLog};
use crate::terminator::Terminator;
pub use crate::terminator::TmuState;

/// The Transaction Monitoring Unit. See the [module docs](self) for the
/// per-cycle protocol and the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Tmu {
    cfg: TmuConfig,
    regs: RegisterFile,
    write_guard: WriteGuard,
    read_guard: ReadGuard,
    /// The stateless protocol rules; the guards answer the context rules.
    wire_rules: WireRules,
    /// Recovery state machine: severing, `SLVERR` aborts, drain and
    /// held-address acceptance.
    term: Terminator,
    err_log: ErrorLog,
    perf_log: PerfLog,
    reset_request: bool,
    stall_aw: bool,
    stall_ar: bool,
    pending_violations: Vec<Violation>,
    /// The guards' timeouts found by this cycle's commit (emptied by it).
    guard_faults: Vec<GuardFault>,
    faults_detected: u64,
    resets_requested: u64,
    /// Committed state: cycles this monitor has committed.
    cycles: u64,
    telemetry: TelemetryHub,
    /// The wires latched by the [`Tmu::observe`] adapter.
    tap: AxiPort,
}

impl Tmu {
    /// Builds a TMU from its elaboration-time configuration. The
    /// register file comes up enabled with the configured budgets.
    #[must_use]
    pub fn new(cfg: TmuConfig) -> Self {
        let regs = RegisterFile::from_budgets(cfg.budgets(), cfg.prescaler());
        Tmu {
            write_guard: WriteGuard::new(&cfg),
            read_guard: ReadGuard::new(&cfg),
            wire_rules: WireRules::default(),
            regs,
            cfg,
            term: Terminator::new(),
            err_log: ErrorLog::new(),
            perf_log: PerfLog::new(),
            reset_request: false,
            stall_aw: false,
            stall_ar: false,
            pending_violations: Vec::new(),
            guard_faults: Vec::new(),
            faults_detected: 0,
            resets_requested: 0,
            cycles: 0,
            telemetry: TelemetryHub::default(),
            tap: AxiPort::new(),
        }
    }

    /// The elaboration-time configuration.
    #[must_use]
    pub fn config(&self) -> &TmuConfig {
        &self.cfg
    }

    /// The recovery state machine's current state.
    #[must_use]
    pub fn state(&self) -> TmuState {
        self.term.state()
    }

    /// Outstanding transactions currently tracked (both directions).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.write_guard.outstanding() + self.read_guard.outstanding()
    }

    /// The earliest future cycle at which a timeout can fire, across both
    /// guards, or `None` when no deadline is armed (nothing outstanding,
    /// the TMU is disabled or mid-recovery, or the per-cycle reference
    /// engine — which has no schedule — is selected).
    ///
    /// This is the fast-forward bound for event-driven harnesses (see
    /// `soc::link::GuardedLink::fast_forward_to`): while the system is
    /// otherwise quiescent, no observable TMU output can change before
    /// this cycle. Deadlines only move earlier in response to new beats,
    /// so a stale bound is always conservative.
    pub fn next_deadline(&mut self) -> Option<u64> {
        if !self.regs.enabled() || self.term.is_severed() {
            return None;
        }
        match (
            self.write_guard.next_deadline(),
            self.read_guard.next_deadline(),
        ) {
            (Some(w), Some(r)) => Some(w.min(r)),
            (w, r) => w.or(r),
        }
    }

    /// The error log.
    #[must_use]
    pub fn error_log(&self) -> &ErrorLog {
        &self.err_log
    }

    /// The performance log (per-phase detail in Full-Counter mode).
    #[must_use]
    pub fn perf_log(&self) -> &PerfLog {
        &self.perf_log
    }

    /// The most recent fault record, if any.
    #[must_use]
    pub fn last_fault(&self) -> Option<&ErrorRecord> {
        self.err_log.last()
    }

    /// Fault events detected (each may carry several log records).
    #[must_use]
    pub fn faults_detected(&self) -> u64 {
        self.faults_detected
    }

    /// Reset requests issued to the external reset unit.
    #[must_use]
    pub fn resets_requested(&self) -> u64 {
        self.resets_requested
    }

    /// The counter variant this instance monitors with.
    #[must_use]
    pub fn variant(&self) -> TmuVariant {
        self.cfg.variant()
    }

    /// Diagnostic access to the write guard.
    #[must_use]
    pub fn write_guard(&self) -> &WriteGuard {
        &self.write_guard
    }

    /// Diagnostic access to the read guard.
    #[must_use]
    pub fn read_guard(&self) -> &ReadGuard {
        &self.read_guard
    }

    /// Structural consistency check across both guards (property-test
    /// hook; also invoked automatically after every guard commit when
    /// `debug_assertions` are on).
    ///
    /// # Panics
    ///
    /// Panics on OTT/remapper inconsistencies.
    pub fn assert_consistent(&self) {
        self.write_guard.assert_consistent();
        self.read_guard.assert_consistent();
    }
}
