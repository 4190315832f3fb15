//! One per-cycle stage protocol and one bank of per-port stages.
//!
//! The paper's TMU is a drop-in unit on one AXI link; AXI-REALM builds
//! its per-manager regulation from the same kind of per-port unit. Both
//! sit on a link between a manager-side port and a subordinate-side port
//! and run the same four passes each cycle, which [`LinkStage`] names:
//!
//! 1. [`LinkStage::forward_request`] after the manager side drives;
//! 2. [`LinkStage::forward_response`] after the subordinate side drives;
//! 3. [`LinkStage::backprop_response_ready`] when the manager side's B/R
//!    `ready` settles late (below a mux or demux);
//! 4. [`LinkStage::commit`] at the clock edge, reading the settled
//!    wires of both sides: like the paper's TMU, a stage samples the
//!    link at the edge instead of copying it in a pass of its own.
//!
//! The three forwarding passes take `&self` and the commit alone takes
//! `&mut self`, the Rust form of the RTL's split between `always_comb`
//! and `always_ff`: rustc rejects a stage that writes its state outside
//! the clock edge. A decision a forward pass drives onto the wires (a
//! stall, a credit denial) is a function of committed state and the
//! wires, which the commit recomputes or reads back from the settled
//! wires.
//!
//! Two stages implement it: [`TmuStage`] (a [`Tmu`] plus the dedicated
//! reset line of the subordinate it guards) and [`Regulator`].
//!
//! [`StageBank`] puts one optional stage on each of N ports and runs
//! every pass across all ports at once, on slices of ports. A port with
//! no stage, or with a stage that reports itself
//! [transparent](LinkStage::is_transparent), is a plain wire copy, so the
//! datapath is identical with and without the stage. Each slot recovers
//! independently: a fault on one port severs, aborts and resets only
//! that port's subordinate. The `StageBank<TmuStage>` views
//! ([`StageBank::irq_pending`], [`StageBank::faults_detected`],
//! [`StageBank::next_deadline`]) merge the monitors for the CPU and the
//! event-driven harness.

use axi4::channel::AxiPort;
use sim::Reset;
use tmu::{Tmu, TmuConfig};
use tmu_regulate::Regulator;
use tmu_telemetry::TelemetryConfig;

/// The four per-cycle passes of a unit sitting on one AXI link between
/// a manager-side port (`mgr`) and a subordinate-side port (`sub`). See
/// the [module docs](self) for the pass order.
///
/// Only the commit may change a stage's state. A stage that counts
/// address handshakes counts them at the clock edge:
///
/// ```
/// use axi4::channel::AxiPort;
/// use soc::stage::LinkStage;
///
/// struct Counting {
///     count: u64,
/// }
///
/// impl LinkStage for Counting {
///     fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
///         sub.forward_request_from(mgr);
///     }
///     fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
///         mgr.forward_response_from(sub);
///     }
///     fn backprop_response_ready(&self, _mgr: &AxiPort, _sub: &mut AxiPort) {}
///     fn commit(&mut self, mgr: &AxiPort, _sub: &AxiPort, _cycle: u64) -> bool {
///         self.count += u64::from(mgr.aw.fires());
///         false
///     }
/// }
/// ```
///
/// The same write in a forward pass does not compile (rustc: "cannot
/// assign to `self.count`, which is behind a `&` reference"):
///
/// ```compile_fail,E0594
/// use axi4::channel::AxiPort;
/// use soc::stage::LinkStage;
///
/// struct Counting {
///     count: u64,
/// }
///
/// impl LinkStage for Counting {
///     fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
///         self.count += u64::from(mgr.aw.valid());
///         sub.forward_request_from(mgr);
///     }
///     fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
///         mgr.forward_response_from(sub);
///     }
///     fn backprop_response_ready(&self, _mgr: &AxiPort, _sub: &mut AxiPort) {}
///     fn commit(&mut self, _mgr: &AxiPort, _sub: &AxiPort, _cycle: u64) -> bool {
///         false
///     }
/// }
/// ```
pub trait LinkStage {
    /// Pass 1: forward the manager-driven wires to the subordinate side.
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort);
    /// Pass 2: forward the subordinate-driven wires to the manager side.
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort);
    /// Pass 3: late-settling B/R `ready` back-propagation to the
    /// subordinate side.
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort);
    /// Pass 4: clock commit for `cycle` on the settled wires of both
    /// sides, `mgr` and `sub`. Returns `true` when the subordinate
    /// behind the stage must be reset now.
    fn commit(&mut self, mgr: &AxiPort, sub: &AxiPort, cycle: u64) -> bool;
    /// True when every pass is a plain wire copy and the commit does
    /// nothing; a [`StageBank`] then skips the stage altogether.
    fn is_transparent(&self) -> bool {
        false
    }
}

/// Commits `tmu` on the settled manager-side wires `mgr`, and the reset line of the subordinate it guards: a
/// fault's reset request asserts the line, and when the line's done
/// pulse arrives the TMU resumes monitoring. Returns `true` on that done
/// pulse, when the caller must reinitialize the subordinate.
#[inline]
pub(crate) fn commit_guarded(tmu: &mut Tmu, reset: &mut Reset, mgr: &AxiPort, cycle: u64) -> bool {
    tmu.commit_port(mgr, cycle);
    if tmu.take_reset_request() {
        reset.request();
    }
    reset.tick();
    let done = reset.is_done_pulse();
    if done {
        tmu.reset_done();
    }
    done
}

/// A monitored link: the TMU and its subordinate's reset line.
#[derive(Debug)]
pub struct TmuStage {
    /// The monitor.
    pub tmu: Tmu,
    reset: Reset,
}

impl TmuStage {
    /// A TMU built from `cfg` whose reset line asserts for
    /// `reset_duration` cycles per request.
    #[must_use]
    pub fn new(cfg: TmuConfig, reset_duration: u64) -> Self {
        TmuStage {
            tmu: Tmu::new(cfg),
            reset: Reset::with_duration(reset_duration),
        }
    }
}

// The generic passes (`StageBank`, `GuardedLink`, `RegulatedLink`) are
// compiled in the crate that names the stage, so without LTO these
// one-line forwards reach that crate's busy loop only when `#[inline]`;
// the lint keeps every method here inline.
#[warn(clippy::missing_inline_in_public_items)]
impl LinkStage for TmuStage {
    #[inline]
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        self.tmu.forward_request(mgr, sub);
    }

    #[inline]
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
        self.tmu.forward_response(sub, mgr);
    }

    #[inline]
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        self.tmu.backprop_response_ready(mgr, sub);
    }

    /// The TMU listens on the manager side only.
    #[inline]
    fn commit(&mut self, mgr: &AxiPort, _sub: &AxiPort, cycle: u64) -> bool {
        commit_guarded(&mut self.tmu, &mut self.reset, mgr, cycle)
    }
}

// Inline for the same reason as `TmuStage`'s forwards.
#[warn(clippy::missing_inline_in_public_items)]
impl LinkStage for Regulator {
    #[inline]
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::forward_request(self, mgr, sub);
    }

    #[inline]
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
        Regulator::drive_response(self, sub, mgr);
    }

    #[inline]
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::backprop_response_ready(self, mgr, sub);
    }

    /// The downstream side shows the stale responses the regulator
    /// absorbs while severed.
    #[inline]
    fn commit(&mut self, mgr: &AxiPort, sub: &AxiPort, cycle: u64) -> bool {
        Regulator::commit_port(self, mgr, sub, cycle);
        false
    }

    #[inline]
    fn is_transparent(&self) -> bool {
        !self.config().enabled()
    }
}

/// One optional stage per port, driven pass by pass across all ports.
/// See the [module docs](self).
#[derive(Debug)]
pub struct StageBank<S> {
    slots: Vec<Option<S>>,
    /// Per-port fast-path gate: true only when the slot holds a stage
    /// that is not transparent. Every other port is a wire copy, and the
    /// passes never touch its (possibly large) stage state.
    active: Vec<bool>,
}

impl<S: LinkStage> StageBank<S> {
    /// A bank spanning `ports` ports, all without a stage.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        StageBank {
            slots: (0..ports).map(|_| None).collect(),
            active: vec![false; ports],
        }
    }

    /// Number of ports the bank spans.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Puts `stage` on `port`, replacing any previous one.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn attach(&mut self, port: usize, stage: S) {
        self.active[port] = !stage.is_transparent();
        self.slots[port] = Some(stage);
    }

    /// Whether `port` carries a stage.
    #[must_use]
    pub fn is_attached(&self, port: usize) -> bool {
        self.get(port).is_some()
    }

    /// The stage on `port`, if any.
    #[must_use]
    pub fn get(&self, port: usize) -> Option<&S> {
        self.slots.get(port)?.as_ref()
    }

    /// Mutable access to the stage on `port`, if any.
    pub fn get_mut(&mut self, port: usize) -> Option<&mut S> {
        self.slots.get_mut(port)?.as_mut()
    }

    /// The stages of the active ports, with their port's wires.
    fn active_with<'a, A, B>(
        &'a self,
        a: &'a [A],
        b: &'a mut [B],
    ) -> impl Iterator<Item = (Option<&'a S>, &'a A, &'a mut B)> {
        debug_assert_eq!(a.len(), self.slots.len(), "one port per slot");
        debug_assert_eq!(b.len(), self.slots.len(), "one port per slot");
        self.slots
            .iter()
            .zip(&self.active)
            .zip(a.iter().zip(b))
            .map(|((slot, &active), (a, b))| (slot.as_ref().filter(|_| active), a, b))
    }

    /// Pass 1 on every port: `subs[i]` receives `mgrs[i]`'s request
    /// wires, through the stage when one is active.
    pub fn forward_requests(&self, mgrs: &[AxiPort], subs: &mut [AxiPort]) {
        for (stage, mgr, sub) in self.active_with(mgrs, subs) {
            match stage {
                Some(stage) => stage.forward_request(mgr, sub),
                None => sub.forward_request_from(mgr),
            }
        }
    }

    /// Pass 2 on every port: `mgrs[i]` receives `subs[i]`'s response
    /// wires, through the stage when one is active.
    pub fn forward_responses(&self, subs: &[AxiPort], mgrs: &mut [AxiPort]) {
        for (stage, sub, mgr) in self.active_with(subs, mgrs) {
            match stage {
                Some(stage) => stage.forward_response(sub, mgr),
                None => mgr.forward_response_from(sub),
            }
        }
    }

    /// Late B/R `ready` back-propagation on every port (see
    /// [`LinkStage::backprop_response_ready`]).
    pub fn backprop_response_ready(&self, mgrs: &[AxiPort], subs: &mut [AxiPort]) {
        for (stage, mgr, sub) in self.active_with(mgrs, subs) {
            match stage {
                Some(stage) => stage.backprop_response_ready(mgr, sub),
                None => {
                    sub.b.forward_ready_from(&mgr.b);
                    sub.r.forward_ready_from(&mgr.r);
                }
            }
        }
    }

    /// Clock commit for every active stage, in port order, on its
    /// settled wires `mgrs[i]` and `subs[i]`. Calls `reset_sub(port)` for
    /// each port whose subordinate must be reset now.
    pub fn commit(
        &mut self,
        mgrs: &[AxiPort],
        subs: &[AxiPort],
        cycle: u64,
        mut reset_sub: impl FnMut(usize),
    ) {
        debug_assert_eq!(mgrs.len(), self.slots.len(), "one port per slot");
        debug_assert_eq!(subs.len(), self.slots.len(), "one port per slot");
        for (port, ((slot, &active), (mgr, sub))) in self
            .slots
            .iter_mut()
            .zip(&self.active)
            .zip(mgrs.iter().zip(subs))
            .enumerate()
        {
            if let Some(stage) = slot.as_mut().filter(|_| active) {
                if stage.commit(mgr, sub, cycle) {
                    reset_sub(port);
                }
            }
        }
    }
}

impl StageBank<TmuStage> {
    /// The TMU on `port`, if one is attached.
    #[must_use]
    pub fn tmu(&self, port: usize) -> Option<&Tmu> {
        self.get(port).map(|s| &s.tmu)
    }

    /// Mutable access to the TMU on `port` (register writes, IRQ
    /// clearing), if one is attached.
    pub fn tmu_mut(&mut self, port: usize) -> Option<&mut Tmu> {
        self.get_mut(port).map(|s| &mut s.tmu)
    }

    /// Reset requests `port`'s subordinate has received (0 when the port
    /// has no TMU, and so no reset line).
    #[must_use]
    pub fn reset_requests(&self, port: usize) -> u64 {
        self.get(port).map_or(0, |s| s.reset.requests())
    }

    fn tmus(&self) -> impl Iterator<Item = &Tmu> {
        self.slots.iter().flatten().map(|s| &s.tmu)
    }

    /// Merged level interrupt: the OR of every TMU's IRQ line, like a
    /// shared interrupt-controller input.
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.tmus().any(Tmu::irq_pending)
    }

    /// Total fault events detected across all TMUs.
    #[must_use]
    pub fn faults_detected(&self) -> u64 {
        self.tmus().map(Tmu::faults_detected).sum()
    }

    /// The earliest future cycle at which any TMU's timeout can fire
    /// (fast-forward bound across the whole bank).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.slots
            .iter_mut()
            .flatten()
            .filter_map(|s| s.tmu.next_deadline())
            .min()
    }

    /// Switches the unified telemetry layer on for every TMU.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        for s in self.slots.iter_mut().flatten() {
            s.tmu.enable_telemetry(config);
        }
    }
}

impl StageBank<Regulator> {
    /// True while any port is isolated.
    #[must_use]
    pub fn any_isolated(&self) -> bool {
        self.slots.iter().flatten().any(Regulator::is_isolated)
    }

    /// Re-admits an isolated `port`; returns `false` when the port has
    /// no regulator or its release preconditions are not met yet.
    pub fn release(&mut self, port: usize) -> bool {
        self.get_mut(port).is_some_and(Regulator::release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::beat::{AwBeat, BBeat, RBeat, WBeat};
    use axi4::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};
    use tmu::TmuState;
    use tmu_telemetry::{Channel, TraceEvent};

    fn tiny_cfg(budget: u64) -> TmuConfig {
        TmuConfig::builder()
            .budgets(tmu::BudgetConfig {
                tiny_total_override: Some(budget),
                ..tmu::BudgetConfig::default()
            })
            .build()
            .expect("valid bank test configuration")
    }

    fn aw(id: u16) -> AwBeat {
        AwBeat::new(
            AxiId(id),
            Addr(0x100),
            BurstLen::from_beats(1).expect("one-beat burst is valid"),
            BurstSize::from_bytes(8).expect("8-byte beats are valid"),
            BurstKind::Incr,
        )
    }

    fn ports(n: usize) -> Vec<AxiPort> {
        (0..n).map(|_| AxiPort::new()).collect()
    }

    /// Drives the combinational passes for ports whose subordinates never
    /// respond (not even with `ready`). Each manager in `offer` offers an
    /// AW with its port number as ID and always accepts responses (so
    /// SLVERR aborts can be delivered). Returns which AWs fired. The
    /// caller commits the bank on `mgrs` once per cycle.
    fn drive_stalled(
        bank: &StageBank<TmuStage>,
        mgrs: &mut [AxiPort],
        subs: &mut [AxiPort],
        offer: &[bool],
    ) -> Vec<bool> {
        for (port, (mgr, sub)) in mgrs.iter_mut().zip(subs.iter_mut()).enumerate() {
            mgr.begin_cycle();
            sub.begin_cycle();
            mgr.b.set_ready(true);
            mgr.r.set_ready(true);
            if offer[port] {
                mgr.aw.drive(aw(port as u16));
            }
        }
        bank.forward_requests(mgrs, subs);
        bank.forward_responses(subs, mgrs);
        mgrs.iter().map(|m| m.aw.fires()).collect()
    }

    #[test]
    fn unmonitored_ports_pass_through() {
        let mut bank: StageBank<TmuStage> = StageBank::new(2);
        assert!(!bank.is_attached(0));
        let (mut mgrs, mut subs) = (ports(2), ports(2));
        mgrs[0].aw.drive(aw(3));
        bank.forward_requests(&mgrs, &mut subs);
        assert!(subs[0].aw.valid(), "pass-through must copy the AW");
        let mut resets = Vec::new();
        bank.commit(&mgrs, &subs, 0, |port| resets.push(port));
        assert!(resets.is_empty());
        assert!(!bank.irq_pending());
        assert_eq!(bank.faults_detected(), 0);
    }

    #[test]
    fn unattached_port_is_bare_wires_in_every_pass() {
        let mut bank: StageBank<TmuStage> = StageBank::new(1);
        let (mut mgr, mut sub) = (AxiPort::new(), AxiPort::new());
        mgr.aw.drive(aw(5));
        mgr.w.drive(WBeat::new(0xA5A5, true));
        mgr.b.set_ready(true);
        sub.aw.set_ready(true);
        sub.b.drive(BBeat::new(AxiId(5), Resp::Okay));
        sub.r.drive(RBeat::new(AxiId(2), 0x5A5A, Resp::Okay, true));
        let wires = |mgr: &AxiPort, sub: &AxiPort| format!("{mgr:?} {sub:?}");

        let (mut bank_mgr, mut bank_sub) = (mgr.clone(), sub.clone());
        let (mut bare_mgr, mut bare_sub) = (mgr.clone(), sub.clone());
        bank.forward_requests(
            std::slice::from_ref(&bank_mgr),
            std::slice::from_mut(&mut bank_sub),
        );
        bare_sub.forward_request_from(&bare_mgr);
        assert_eq!(wires(&bank_mgr, &bank_sub), wires(&bare_mgr, &bare_sub));

        bank.forward_responses(
            std::slice::from_ref(&bank_sub),
            std::slice::from_mut(&mut bank_mgr),
        );
        bare_mgr.forward_response_from(&bare_sub);
        assert_eq!(wires(&bank_mgr, &bank_sub), wires(&bare_mgr, &bare_sub));

        // A late ready settles on the manager side, then back-propagates.
        bank_mgr.r.set_ready(true);
        bare_mgr.r.set_ready(true);
        bank.backprop_response_ready(
            std::slice::from_ref(&bank_mgr),
            std::slice::from_mut(&mut bank_sub),
        );
        bare_sub.b.forward_ready_from(&bare_mgr.b);
        bare_sub.r.forward_ready_from(&bare_mgr.r);
        assert_eq!(wires(&bank_mgr, &bank_sub), wires(&bare_mgr, &bare_sub));

        let mut resets = 0;
        bank.commit(
            std::slice::from_ref(&bank_mgr),
            std::slice::from_ref(&bank_sub),
            0,
            |_| resets += 1,
        );
        assert_eq!(wires(&bank_mgr, &bank_sub), wires(&bare_mgr, &bare_sub));
        assert_eq!(resets, 0, "a bare port never resets its subordinate");
    }

    #[test]
    fn slots_fault_and_recover_independently() {
        let mut bank = StageBank::new(2);
        bank.attach(0, TmuStage::new(tiny_cfg(16), 4));
        bank.attach(1, TmuStage::new(tiny_cfg(1_000_000), 4));
        let (mut mgrs, mut subs) = (ports(2), ports(2));

        // Port 0's subordinate stalls its AW past the 16-cycle budget;
        // port 1 sees the same traffic under a huge budget. Each manager
        // offers its AW until it is accepted (which only the abort path
        // ever does here) so recovery can complete without refaulting.
        let mut faulted_at = None;
        let mut aw_done = [false; 2];
        let mut resets = Vec::new();
        for cycle in 0..200 {
            let offer = [!aw_done[0], !aw_done[1]];
            let fired = drive_stalled(&bank, &mut mgrs, &mut subs, &offer);
            for (done, fired) in aw_done.iter_mut().zip(fired) {
                *done |= fired;
            }
            bank.commit(&mgrs, &subs, cycle, |port| resets.push(port));
            if faulted_at.is_none() && bank.faults_detected() > 0 {
                faulted_at = Some(cycle);
            }
        }
        assert!(faulted_at.is_some(), "port 0 must time out");
        assert_eq!(bank.faults_detected(), 1, "only port 0 faults");
        let healthy = bank.tmu(1).expect("attached");
        assert_eq!(healthy.state(), TmuState::Monitoring);
        assert_eq!(healthy.faults_detected(), 0);
        // Port 0 walked its recovery alone: reset requested and
        // delivered, monitoring resumed.
        assert_eq!(bank.reset_requests(0), 1);
        assert_eq!(bank.reset_requests(1), 0);
        assert_eq!(resets, [0], "only port 0's subordinate is reset");
        assert_eq!(
            bank.tmu(0).expect("attached").state(),
            TmuState::Monitoring,
            "port 0 must resume after its private reset"
        );
        assert_eq!(bank.tmu(0).expect("attached").resets_requested(), 1);
    }

    #[test]
    fn merged_views_aggregate_across_slots() {
        let mut bank = StageBank::new(3);
        bank.attach(0, TmuStage::new(tiny_cfg(50), 4));
        bank.attach(2, TmuStage::new(tiny_cfg(90), 4));
        let (mut mgrs, mut subs) = (ports(3), ports(3));
        for cycle in 0..5 {
            drive_stalled(&bank, &mut mgrs, &mut subs, &[true, false, true]);
            bank.commit(&mgrs, &subs, cycle, |_| {});
        }
        // Both slots armed a deadline; the merged bound is the earlier.
        let merged = bank.next_deadline().expect("deadlines armed");
        let d0 = bank
            .tmu_mut(0)
            .expect("attached")
            .next_deadline()
            .expect("armed");
        assert_eq!(merged, d0, "port 0's tighter budget bounds the bank");
        assert_eq!(bank.ports(), 3);
        assert!(!bank.is_attached(1));
    }

    #[test]
    fn a_late_attached_tmu_stamps_handshakes_with_the_commit_cycle() {
        let mut bank: StageBank<TmuStage> = StageBank::new(1);
        let (mut mgrs, mut subs) = (ports(1), ports(1));
        // Every cycle the manager offers an AW that the subordinate
        // accepts at once.
        let mut step = |bank: &mut StageBank<TmuStage>, cycle: u64| {
            mgrs[0].begin_cycle();
            subs[0].begin_cycle();
            mgrs[0].aw.drive(aw(7));
            bank.forward_requests(&mgrs, &mut subs);
            subs[0].aw.set_ready(true);
            bank.forward_responses(&subs, &mut mgrs);
            assert!(mgrs[0].aw.fires());
            bank.commit(&mgrs, &subs, cycle, |_| {});
        };
        for cycle in 0..40 {
            step(&mut bank, cycle);
        }
        let mut stage = TmuStage::new(tiny_cfg(1_000_000), 4);
        stage.tmu.enable_telemetry(TelemetryConfig::default());
        bank.attach(0, stage);
        step(&mut bank, 40);
        let first = bank
            .tmu(0)
            .expect("attached")
            .telemetry()
            .events()
            .iter()
            .find(|r| matches!(r.event, TraceEvent::Handshake { .. }))
            .expect("the AW handshake is recorded");
        assert_eq!(
            first.event,
            TraceEvent::Handshake {
                channel: Channel::Aw,
                id: 7,
            }
        );
        assert_eq!(first.cycle, 40, "stamped with the bank's cycle, not 0");
    }
}
