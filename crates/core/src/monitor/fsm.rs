//! The clocked commit path and the fault/recovery state machine: reads
//! the settled manager-side wires (handshake telemetry, the stateless
//! wire rules, the guards), collects guard timeouts and protocol
//! violations (the wire rules' and the guards' context rules) into error
//! records,
//! severs the link through the [`Terminator`](crate::terminator::Terminator)
//! on a fault, requests the subordinate reset once the aborts are
//! delivered, and handshakes with the external reset unit before
//! resuming.

use axi4::channel::AxiPort;
use tmu_telemetry::{Channel, FaultClass, RecoveryStage, TraceEvent};

use super::Tmu;
use crate::log::{ErrorRecord, FaultKind};
use crate::terminator::TerminatorEvent;

impl Tmu {
    /// Pass 4: clock commit for `cycle`, reading the settled
    /// manager-side wires `mgr` ("listens in parallel", adding no
    /// latency on the datapath).
    pub fn commit_port(&mut self, mgr: &AxiPort, cycle: u64) {
        self.cycles = cycle + 1;
        if !self.regs.enabled() {
            return;
        }
        let monitoring = !self.term.is_severed();
        // Drained beats belong to aborted bursts; hide them from the
        // handshake telemetry, the protocol rules and the guards.
        let masked;
        let port = if monitoring && self.term.drain_beats() > 0 {
            let mut m = mgr.clone();
            m.w.suppress_valid();
            masked = m;
            &masked
        } else {
            mgr
        };
        if monitoring {
            if self.telemetry.enabled() {
                self.record_handshakes(port, cycle);
            }
            if self.protocol_checking() {
                self.wire_rules
                    .observe(port, cycle, &mut self.pending_violations);
            }
        }
        if !self.term.is_idle() {
            match self.term.commit(mgr) {
                Some(TerminatorEvent::AbortsDelivered) => self.request_reset(),
                Some(TerminatorEvent::Resumed) => self.telemetry.record(
                    self.cycles,
                    "tmu",
                    TraceEvent::Recovery {
                        stage: RecoveryStage::Resumed,
                    },
                ),
                None => {}
            }
        }
        if monitoring {
            self.commit_monitoring(port, cycle);
        }
        if self.telemetry.should_sample(cycle) {
            self.publish_gauges();
            self.telemetry.take_sample(cycle);
        }
    }

    /// Adapter for busybench's component loops, which tap the wires in
    /// a pass of their own: latches `mgr` for [`Tmu::commit`].
    pub fn observe(&mut self, mgr: &AxiPort) {
        self.tap.clone_from(mgr);
    }

    /// Adapter: [`Tmu::commit_port`] on the latched wires (idle when
    /// none were latched since the last commit).
    pub fn commit(&mut self, cycle: u64) {
        let tap = std::mem::take(&mut self.tap);
        self.commit_port(&tap, cycle);
    }

    /// Taps the five channels' settled handshakes on `port` into the
    /// telemetry event stream.
    fn record_handshakes(&mut self, port: &AxiPort, cycle: u64) {
        if let Some(aw) = port.aw.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Aw,
                    id: aw.id.0,
                },
            );
        }
        if port.w.fires() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::W,
                    id: 0,
                },
            );
        }
        if let Some(b) = port.b.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::B,
                    id: b.id.0,
                },
            );
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Ar,
                    id: ar.id.0,
                },
            );
        }
        if let Some(r) = port.r.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::R,
                    id: r.id.0,
                },
            );
        }
    }

    fn commit_monitoring(&mut self, port: &AxiPort, cycle: u64) {
        self.write_guard.set_pending_drain(self.term.drain_beats());
        // Write faults first, then read faults, in one reused buffer.
        self.write_guard.commit(
            port,
            cycle,
            &mut self.perf_log,
            &mut self.telemetry,
            &mut self.guard_faults,
        );
        self.read_guard.commit(
            port,
            cycle,
            &mut self.perf_log,
            &mut self.telemetry,
            &mut self.guard_faults,
        );
        self.write_guard
            .take_violations(&mut self.pending_violations);
        self.read_guard
            .take_violations(&mut self.pending_violations);
        if self.guard_faults.is_empty() && self.pending_violations.is_empty() {
            return;
        }

        let mut records: Vec<ErrorRecord> = Vec::new();
        for fault in self.guard_faults.drain(..) {
            records.push(ErrorRecord {
                cycle,
                kind: fault.kind,
                phase: fault.phase,
                id: Some(fault.id),
                addr: Some(fault.addr),
                inflight_cycles: fault.inflight_cycles,
            });
        }
        for violation in self.pending_violations.drain(..) {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Fault {
                    class: FaultClass::Protocol,
                    dir: None,
                    id: violation.id.map_or(0, |i| i.0),
                    phase: None,
                },
            );
            records.push(ErrorRecord {
                cycle,
                kind: FaultKind::Protocol(violation.rule),
                phase: None,
                id: violation.id,
                addr: None,
                inflight_cycles: 0,
            });
        }

        if records.is_empty() {
            return;
        }
        for record in records {
            self.err_log.push(record);
            self.regs.hw_note_error();
        }

        self.faults_detected += 1;
        self.regs.hw_note_fault();
        if self.regs.irq_enabled() {
            self.regs.hw_raise_irq();
        }
        // Sever and abort: hand every outstanding transaction's
        // obligations (SLVERR responses, residual W drain, held-address
        // accepts) to the terminator.
        let write_set = self.write_guard.drain_for_abort();
        let read_set = self.read_guard.drain_for_abort();
        let (writes, reads) = (write_set.responses.len(), read_set.responses.len());
        self.term.sever(write_set, read_set);
        self.wire_rules.flush();
        // Severing also closes every open telemetry span as aborted.
        self.telemetry.record(
            cycle,
            "tmu",
            TraceEvent::Recovery {
                stage: RecoveryStage::Severed {
                    writes: writes as u32,
                    reads: reads as u32,
                    drain: self.term.drain_beats() as u32,
                },
            },
        );
    }

    /// All aborts are delivered: raise the reset-request pulse towards
    /// the external reset unit.
    fn request_reset(&mut self) {
        self.reset_request = true;
        self.resets_requested += 1;
        self.regs.hw_note_reset();
        self.telemetry.record(
            self.cycles,
            "tmu",
            TraceEvent::Recovery {
                stage: RecoveryStage::AbortsDelivered,
            },
        );
        self.telemetry.record(
            self.cycles,
            "tmu",
            TraceEvent::Recovery {
                stage: RecoveryStage::ResetRequested,
            },
        );
    }

    /// Consumes the single-cycle reset-request pulse towards the
    /// external reset unit.
    pub fn take_reset_request(&mut self) -> bool {
        std::mem::take(&mut self.reset_request)
    }

    /// Notification from the external reset unit that the subordinate has
    /// been reinitialized: monitoring resumes (deferred while a held
    /// address beat of an aborted transaction is still being accepted).
    pub fn reset_done(&mut self) {
        if self.term.reset_done() {
            self.telemetry.record(
                self.cycles,
                "tmu",
                TraceEvent::Recovery {
                    stage: RecoveryStage::Resumed,
                },
            );
        }
    }
}
