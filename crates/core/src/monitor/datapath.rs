//! Combinational datapath passes: request/response forwarding with
//! saturation-stall gating in normal operation, the terminator's severed
//! drive (`SLVERR` aborts, residual-drain absorption) after a fault, and
//! the parallel wire tap feeding the guards and the stateless protocol
//! rules ([`WireRules`](axi4::checker::WireRules)). The guards answer the
//! context protocol rules themselves, at commit.

use axi4::channel::AxiPort;
use tmu_telemetry::{Channel, TraceEvent};

use super::Tmu;

impl Tmu {
    /// Pass 1: forward manager-driven wires to the subordinate, with
    /// saturation backpressure in normal operation and full severing
    /// after a fault.
    pub fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        if !self.regs.enabled() {
            sub.forward_request_from(mgr);
            return;
        }
        if self.term.is_severed() {
            // Severed: the subordinate port stays idle.
            return;
        }
        self.stall_aw = self.write_guard.decide_stall(mgr.aw.beat());
        self.stall_ar = self.read_guard.decide_stall(mgr.ar.beat());
        if !self.stall_aw {
            sub.aw.forward_driver_from(&mgr.aw);
        }
        self.term.forward_w(mgr, sub);
        if !self.stall_ar {
            sub.ar.forward_driver_from(&mgr.ar);
        }
        sub.b.forward_ready_from(&mgr.b);
        sub.r.forward_ready_from(&mgr.r);
    }

    /// Pass 2: forward subordinate-driven wires to the manager, or drive
    /// `SLVERR` abort responses while aborting.
    pub fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        if !self.regs.enabled() {
            mgr.forward_response_from(sub);
            return;
        }
        if self.term.is_severed() {
            self.term.drive_severed(mgr);
            return;
        }
        mgr.b.forward_driver_from(&sub.b);
        mgr.r.forward_driver_from(&sub.r);
        if !self.stall_aw {
            mgr.aw.forward_ready_from(&sub.aw);
        }
        self.term.forward_w_ready(sub, mgr);
        if !self.stall_ar {
            mgr.ar.forward_ready_from(&sub.ar);
        }
    }

    /// Optional pass between 2 and 3, for harnesses where the manager
    /// side's B/R `ready` wires settle late (e.g. below an interconnect
    /// mux): re-propagates them to the subordinate port. Standalone
    /// harnesses whose manager drives `ready` before
    /// [`Tmu::forward_request`] don't need it.
    pub fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        let forwarding = !self.regs.enabled() || !self.term.is_severed();
        if forwarding {
            sub.b.forward_ready_from(&mgr.b);
            sub.r.forward_ready_from(&mgr.r);
        }
    }

    /// Pass 3: tap the settled manager-side wires for this `cycle`.
    pub fn observe(&mut self, mgr: &AxiPort) {
        if !self.regs.enabled() {
            return;
        }
        self.term.observe(mgr);
        if self.term.is_severed() {
            return;
        }
        if self.telemetry.enabled() {
            self.record_handshakes(mgr);
        }
        if self.term.drain_beats() > 0 {
            // Drained beats belong to aborted bursts; hide them from the
            // guards and the protocol rules.
            let mut masked = mgr.clone();
            masked.w.suppress_valid();
            self.write_guard.observe(&masked);
            self.read_guard.observe(&masked);
            if self.protocol_checking() {
                self.wire_rules
                    .observe(&masked, self.cycles, &mut self.pending_violations);
            }
        } else {
            self.write_guard.observe(mgr);
            self.read_guard.observe(mgr);
            if self.protocol_checking() {
                self.wire_rules
                    .observe(mgr, self.cycles, &mut self.pending_violations);
            }
        }
    }

    /// Taps the five channels' settled handshakes into the telemetry
    /// event stream. W beats being drained belong to aborted bursts and
    /// are hidden, mirroring what the guards see.
    fn record_handshakes(&mut self, mgr: &AxiPort) {
        let cycle = self.cycles;
        if let Some(aw) = mgr.aw.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Aw,
                    id: aw.id.0,
                },
            );
        }
        if self.term.drain_beats() == 0 && mgr.w.fires() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::W,
                    id: 0,
                },
            );
        }
        if let Some(b) = mgr.b.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::B,
                    id: b.id.0,
                },
            );
        }
        if let Some(ar) = mgr.ar.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Ar,
                    id: ar.id.0,
                },
            );
        }
        if let Some(r) = mgr.r.fired_beat() {
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
}
