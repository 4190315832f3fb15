//! Combinational datapath passes: request/response forwarding with
//! saturation-stall gating in normal operation, and the terminator's
//! severed drive (`SLVERR` aborts, residual-drain absorption) after a
//! fault. Every pass takes `&self`: it reads committed state and the
//! wires and writes wires only. The settled wires are read by the
//! commit (`fsm.rs`).

use axi4::channel::{AxiPort, Channel};

use super::Tmu;

impl Tmu {
    /// Pass 1: forward manager-driven wires to the subordinate, with
    /// saturation backpressure in normal operation and full severing
    /// after a fault.
    pub fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        if !self.regs.enabled() {
            sub.forward_request_from(mgr);
            return;
        }
        if self.term.is_severed() {
            // Severed: the subordinate port stays idle.
            return;
        }
        if !self.write_guard.decide_stall(mgr.aw.beat()) {
            sub.aw.forward_driver_from(&mgr.aw);
        }
        self.term.forward_w(mgr, sub);
        if !self.read_guard.decide_stall(mgr.ar.beat()) {
            sub.ar.forward_driver_from(&mgr.ar);
        }
        sub.b.forward_ready_from(&mgr.b);
        sub.r.forward_ready_from(&mgr.r);
    }

    /// Pass 2: forward subordinate-driven wires to the manager, or drive
    /// `SLVERR` abort responses while aborting. A stalled address keeps
    /// its `ready` low.
    pub fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
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
        if !stalled(&mgr.aw, &sub.aw) {
            mgr.aw.forward_ready_from(&sub.aw);
        }
        self.term.forward_w_ready(sub, mgr);
        if !stalled(&mgr.ar, &sub.ar) {
            mgr.ar.forward_ready_from(&sub.ar);
        }
    }

    /// Optional pass 3, for harnesses where the manager
    /// side's B/R `ready` wires settle late (e.g. below an interconnect
    /// mux): re-propagates them to the subordinate port. Standalone
    /// harnesses whose manager drives `ready` before
    /// [`Tmu::forward_request`] don't need it.
    pub fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        let forwarding = !self.regs.enabled() || !self.term.is_severed();
        if forwarding {
            sub.b.forward_ready_from(&mgr.b);
            sub.r.forward_ready_from(&mgr.r);
        }
    }
}

/// Whether [`Tmu::forward_request`] stalled the address: it is valid on
/// the manager side but was not forwarded to the subordinate side.
#[inline]
fn stalled<T>(mgr: &Channel<T>, sub: &Channel<T>) -> bool {
    mgr.valid() && !sub.valid()
}
