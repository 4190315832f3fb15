//! Traffic-regulated interconnect assembly: per-manager credit
//! regulators upstream of the mux, an optional trunk TMU, and the
//! harness that drives them cycle-accurately.
//!
//! The paper's TMU protects a link against a *hanging* endpoint; the
//! [`tmu_regulate`] crate adds AXI-REALM-style protection against a
//! *greedy* one. [`RegulatedLink`] composes both from
//! [`StageBank`]s: every manager port can carry a [`Regulator`] (credit
//! gating + isolation), the regulated ports meet in a [`Mux`]
//! (optionally with static priorities taken from the regulator
//! configs), and the trunk can carry a [`TmuStage`] guarding the shared
//! subordinate. A misbehaving manager is therefore throttled or severed
//! *upstream* of the arbitration point, before it can starve its
//! neighbours — and the trunk TMU, which would otherwise time the victim
//! transactions out, never sees a fault. The link is the A/B harness
//! used by the mixed-criticality example, the recovery matrix and the
//! benches.

use std::slice::{from_mut, from_ref};

use axi4::channel::AxiPort;
use faults::BudgetExhaustion;
use tmu::{Tmu, TmuConfig};
use tmu_regulate::{Regulator, RegulatorConfig};

use crate::link::AxiSubordinate;
use crate::manager::{MgrStats, TrafficGen, TrafficPattern};
use crate::mux::Mux;
use crate::stage::{StageBank, TmuStage};

/// N managers sharing one subordinate through per-manager regulators, an
/// arbitration mux and an optional trunk TMU. See the
/// [module docs](self) for the topology.
#[derive(Debug)]
pub struct RegulatedLink<S> {
    mgrs: Vec<TrafficGen>,
    fabric: StageBank<Regulator>,
    mux: Mux,
    /// A one-port bank: the trunk TMU, if any, between `trunk` and
    /// `sub_port`.
    guard: StageBank<TmuStage>,
    sub: S,
    // Ports, outermost to innermost.
    mgr_ports: Vec<AxiPort>,
    reg_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_port: AxiPort,
    exhaustion: Vec<Option<BudgetExhaustion>>,
    /// Committed state: the link's cycle counter.
    cycle: u64,
}

impl<S: AxiSubordinate> RegulatedLink<S> {
    /// Assembles the link: one `(pattern, regulator)` pair per manager
    /// port (a `None` regulator leaves the port unregulated), an
    /// optional trunk TMU guarding `sub`, and a root seed splitting into
    /// per-manager seeds. Nonzero regulator priorities are installed
    /// into the mux as static arbitration priorities.
    ///
    /// # Panics
    ///
    /// Panics if `managers` is empty (the mux needs at least one port),
    /// or, naming the port and the ID, if a manager's pattern holds an ID
    /// that does not fit below the mux's ID shift (bit 12).
    #[must_use]
    pub fn new(
        managers: Vec<(TrafficPattern, Option<RegulatorConfig>)>,
        trunk_tmu: Option<TmuConfig>,
        sub: S,
        seed: u64,
    ) -> Self {
        let n = managers.len();
        let mut fabric = StageBank::new(n);
        let mut mgrs = Vec::with_capacity(n);
        let mut priorities = vec![0; n];
        let mut mux = Mux::new(n, 12);
        for (i, (pattern, reg_cfg)) in managers.into_iter().enumerate() {
            mux.assert_ids_fit(i, &pattern.ids);
            mgrs.push(TrafficGen::new(pattern, seed ^ (i as u64 + 1)));
            if let Some(cfg) = reg_cfg {
                priorities[i] = cfg.priority();
                fabric.attach(i, Regulator::new(cfg));
            }
        }
        if priorities.iter().any(|&p| p != 0) {
            mux.set_priorities(priorities);
        }
        let mut guard = StageBank::new(1);
        if let Some(cfg) = trunk_tmu {
            guard.attach(0, TmuStage::new(cfg, 8));
        }
        RegulatedLink {
            mgrs,
            fabric,
            mux,
            guard,
            sub,
            mgr_ports: (0..n).map(|_| AxiPort::new()).collect(),
            reg_ports: (0..n).map(|_| AxiPort::new()).collect(),
            trunk: AxiPort::new(),
            sub_port: AxiPort::new(),
            exhaustion: (0..n).map(|_| None).collect(),
            cycle: 0,
        }
    }

    /// Schedules a [`BudgetExhaustion`] behavioural fault on manager
    /// `port`: once due, the manager's traffic pattern is rewritten to
    /// the plan's greedy parameters.
    pub fn arm_exhaustion(&mut self, port: usize, plan: BudgetExhaustion) {
        self.exhaustion[port] = Some(plan);
    }

    /// Simulates one clock cycle through all combinational passes and
    /// the commit edge.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        for p in &mut self.reg_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        self.sub_port.begin_cycle();

        // Pass 1: managers drive (applying any due behavioural fault
        // first, through the generator's own reconfiguration hook so its
        // bookkeeping stays coherent).
        for i in 0..self.mgrs.len() {
            if let Some(plan) = self.exhaustion[i] {
                if plan.due(cycle) {
                    self.exhaustion[i] = None;
                    self.mgrs[i].reconfigure(|p| {
                        p.issue_gap = plan.issue_gap;
                        p.max_outstanding = plan.max_outstanding;
                        p.burst_lens = vec![plan.burst_beats];
                        p.total_txns = None;
                    });
                }
            }
            self.mgrs[i].drive(&mut self.mgr_ports[i], cycle);
        }
        // Pass 2: regulators gate the requests onto the mux-side ports
        // (this also settles the mux-side B/R readys the mux reads).
        self.fabric
            .forward_requests(&self.mgr_ports, &mut self.reg_ports);
        // Pass 3: mux arbitration onto the trunk.
        self.mux.forward_requests(&self.reg_ports, &mut self.trunk);
        // Pass 4: the trunk TMU forwards onto the subordinate port.
        self.guard
            .forward_requests(from_ref(&self.trunk), from_mut(&mut self.sub_port));
        // Pass 5: the subordinate drives.
        self.sub.drive(&mut self.sub_port);
        // Pass 6: responses back up to the trunk.
        self.guard
            .forward_responses(from_ref(&self.sub_port), from_mut(&mut self.trunk));
        // Pass 7: mux routes the responses to the regulator ports and
        // settles the trunk's response readys.
        self.mux
            .forward_responses(&mut self.trunk, &mut self.reg_ports);
        // Pass 8: response-ready back-propagation to the subordinate.
        self.guard
            .backprop_response_ready(from_ref(&self.trunk), from_mut(&mut self.sub_port));
        // Pass 9: regulators forward the responses (or their terminator's
        // aborts) and the granted request readys to the managers.
        self.fabric
            .forward_responses(&self.reg_ports, &mut self.mgr_ports);
        // Clock commit: the stages read their settled wires.
        for (mgr, port) in self.mgrs.iter_mut().zip(&self.mgr_ports) {
            mgr.commit(port, cycle);
        }
        self.mux.commit(&self.trunk);
        self.sub.commit(&self.sub_port);
        self.fabric
            .commit(&self.mgr_ports, &self.reg_ports, cycle, |_| {});
        self.guard.commit(
            from_ref(&self.trunk),
            from_ref(&self.sub_port),
            cycle,
            |_| self.sub.reset(),
        );
        self.cycle += 1;
    }

    /// Simulates `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until `pred` holds or `max_cycles` pass; returns `true` if
    /// the predicate was met.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Self) -> bool) -> bool {
        for _ in 0..max_cycles {
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics of manager `port`.
    #[must_use]
    pub fn stats(&self, port: usize) -> &MgrStats {
        self.mgrs[port].stats()
    }

    /// True once every manager exhausted its scripted traffic.
    #[must_use]
    pub fn traffic_done(&self) -> bool {
        self.mgrs.iter().all(TrafficGen::is_done)
    }

    /// The regulator bank.
    #[must_use]
    pub fn fabric(&self) -> &StageBank<Regulator> {
        &self.fabric
    }

    /// Mutable regulator-bank access (release).
    pub fn fabric_mut(&mut self) -> &mut StageBank<Regulator> {
        &mut self.fabric
    }

    /// The regulator on `port`, if any.
    #[must_use]
    pub fn regulator(&self, port: usize) -> Option<&Regulator> {
        self.fabric.get(port)
    }

    /// The trunk TMU, if one was configured.
    #[must_use]
    pub fn tmu(&self) -> Option<&Tmu> {
        self.guard.tmu(0)
    }

    /// The shared subordinate.
    #[must_use]
    pub fn sub(&self) -> &S {
        &self.sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemConfig, MemSub};
    use tmu_regulate::{DirBudget, RegulationMode};

    fn mem() -> MemSub {
        MemSub::new(MemConfig::default())
    }

    fn modest_pattern() -> TrafficPattern {
        TrafficPattern {
            burst_lens: vec![1, 4],
            issue_gap: 8,
            ..TrafficPattern::default()
        }
    }

    fn tight_isolating() -> RegulatorConfig {
        RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: 256,
                txns_per_window: 4,
            })
            .read_budget(DirBudget {
                bytes_per_window: 256,
                txns_per_window: 4,
            })
            .window_cycles(128)
            .mode(RegulationMode::Isolate { overrun_windows: 2 })
            .build()
            .expect("test regulator configuration is valid")
    }

    #[test]
    #[should_panic(expected = "manager port 1: ID 0x1003 does not fit")]
    fn a_manager_id_overlapping_the_port_bits_is_rejected() {
        let wide = TrafficPattern {
            ids: vec![3, 0x1003],
            ..modest_pattern()
        };
        let _ = RegulatedLink::new(vec![(modest_pattern(), None), (wide, None)], None, mem(), 7);
    }

    #[test]
    fn unregulated_link_moves_traffic() {
        let mut link = RegulatedLink::new(
            vec![(modest_pattern(), None), (modest_pattern(), None)],
            Some(TmuConfig::default()),
            mem(),
            7,
        );
        link.run(3000);
        for port in 0..2 {
            let stats = link.stats(port);
            assert!(
                stats.total_completed() > 10,
                "port {port} must flow: {stats:?}"
            );
            assert_eq!(stats.writes_errored + stats.reads_errored, 0);
        }
        assert_eq!(link.tmu().expect("attached").faults_detected(), 0);
    }

    #[test]
    fn disabled_regulators_match_unregulated_link() {
        let disabled = RegulatorConfig::builder()
            .enabled(false)
            .build()
            .expect("disabled configuration is valid");
        let mut bare = RegulatedLink::new(
            vec![(modest_pattern(), None), (modest_pattern(), None)],
            None,
            mem(),
            21,
        );
        let mut gated = RegulatedLink::new(
            vec![
                (modest_pattern(), Some(disabled)),
                (modest_pattern(), Some(disabled)),
            ],
            None,
            mem(),
            21,
        );
        // Lockstep: every cycle the two links must have identical
        // completion counts — the disabled regulator adds zero cycles.
        for cycle in 0..2000 {
            bare.step();
            gated.step();
            for port in 0..2 {
                assert_eq!(
                    bare.stats(port).total_completed(),
                    gated.stats(port).total_completed(),
                    "cycle {cycle} port {port}: disabled regulator must be transparent"
                );
            }
        }
        assert!(bare.stats(0).total_completed() > 10, "traffic flowed");
    }

    #[test]
    fn compliant_manager_is_never_denied() {
        // A generous budget over a modest pattern: gating never engages.
        let generous = RegulatorConfig::builder()
            .write_budget(DirBudget::unlimited())
            .read_budget(DirBudget::unlimited())
            .window_cycles(64)
            .build()
            .expect("generous configuration is valid");
        let mut link = RegulatedLink::new(vec![(modest_pattern(), Some(generous))], None, mem(), 3);
        link.run(3000);
        let reg = link.regulator(0).expect("attached");
        assert_eq!(reg.denies(), 0, "under-budget manager never stalls");
        assert!(reg.grants() > 10);
        assert!(link.stats(0).total_completed() > 10);
    }

    #[test]
    fn greedy_manager_is_isolated_and_victim_keeps_flowing() {
        let mut link = RegulatedLink::new(
            vec![
                (modest_pattern(), None),
                (modest_pattern(), Some(tight_isolating())),
            ],
            Some(TmuConfig::default()),
            mem(),
            11,
        );
        link.arm_exhaustion(1, BudgetExhaustion::at_cycle(500));
        let isolated = link.run_until(20_000, |l| {
            l.regulator(1).is_some_and(Regulator::is_isolated)
        });
        assert!(isolated, "greedy manager must be isolated");
        assert_eq!(
            link.regulator(1).expect("attached").isolations(),
            1,
            "exactly one isolation verdict"
        );
        // The victim keeps completing transactions after the isolation.
        let victim_before = link.stats(0).total_completed();
        link.run(2000);
        assert!(
            link.stats(0).total_completed() > victim_before,
            "victim traffic must keep flowing after the isolation"
        );
        // The trunk TMU never saw a fault: the regulator acted upstream
        // and the subordinate's responses kept draining.
        assert_eq!(link.tmu().expect("attached").faults_detected(), 0);
        // The severed manager is cut off: its grant count is frozen.
        let reg = link.regulator(1).expect("attached");
        let (grants_frozen, greedy_completed) = (reg.grants(), link.stats(1).total_completed());
        link.run(1000);
        assert_eq!(
            link.regulator(1).expect("attached").grants(),
            grants_frozen,
            "a severed manager must receive no further grants"
        );
        assert_eq!(
            link.stats(1).total_completed(),
            greedy_completed,
            "a severed manager must complete no further transactions"
        );
    }

    /// An isolation that meets an address the mux has not yet accepted
    /// waits for its handshake: the address stays valid, so the trunk
    /// TMU's wire rules see no retraction and the shared memory is never
    /// severed under the healthy managers.
    #[test]
    fn isolating_a_manager_never_retracts_its_pending_address() {
        for seed in 0..40 {
            let mut managers = vec![(modest_pattern(), None); 3];
            managers.push((modest_pattern(), Some(tight_isolating())));
            let mut link = RegulatedLink::new(managers, Some(TmuConfig::default()), mem(), seed);
            link.arm_exhaustion(3, BudgetExhaustion::at_cycle(300));
            link.run(20_000);
            let reg = link.regulator(3).expect("attached");
            assert_eq!(
                reg.isolations(),
                1,
                "seed {seed}: the greedy port is isolated"
            );
            let tmu = link.tmu().expect("attached");
            assert_eq!(
                tmu.faults_detected(),
                0,
                "seed {seed}: trunk fault {:?}",
                tmu.error_log().last()
            );
            for port in 0..3 {
                let stats = link.stats(port);
                assert_eq!(
                    stats.writes_errored + stats.reads_errored,
                    0,
                    "seed {seed} port {port}"
                );
            }
        }
    }

    #[test]
    fn released_manager_resumes_after_isolation() {
        let mut link = RegulatedLink::new(
            vec![(modest_pattern(), Some(tight_isolating()))],
            None,
            mem(),
            5,
        );
        link.arm_exhaustion(0, BudgetExhaustion::at_cycle(100));
        let isolated = link.run_until(20_000, |l| {
            l.regulator(0).is_some_and(Regulator::is_isolated)
        });
        assert!(isolated);
        // Drain the abort backlog, then release.
        let released = {
            let mut ok = false;
            for _ in 0..5000 {
                link.step();
                if link.fabric_mut().release(0) {
                    ok = true;
                    break;
                }
            }
            ok
        };
        assert!(released, "release must succeed once aborts drained");
        let grants_at_release = link.regulator(0).expect("attached").grants();
        link.run(2000);
        assert!(
            link.regulator(0).expect("attached").grants() > grants_at_release,
            "re-admitted manager must be granted again"
        );
    }
}
