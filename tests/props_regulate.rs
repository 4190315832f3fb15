//! Property tests: the traffic regulator's three core guarantees.
//!
//! 1. A *disabled* regulator is cycle-for-cycle wire-transparent —
//!    verified differentially against bare wire forwarding under
//!    arbitrary stimulus.
//! 2. A *compliant* manager (whose issue rate fits its budget) is never
//!    stalled, even with hair-trigger isolation configured.
//! 3. The credit bucket bounds every window's granted payload: total
//!    granted bytes per window never exceed the byte budget plus one
//!    maximal-burst carryover (the saturating-deduction overshoot).
//!
//! Three more pin the regulator's transaction bookkeeping:
//!
//! 4. Under protocol-legal traffic in back-pressure mode, the regulator
//!    drives every wire exactly as the reference design did: credit
//!    masking in front of an embedded tracker TMU.
//! 5. Isolation answers every transaction the manager issued exactly
//!    once (a scoreboard on the manager side), delivers every owed W
//!    beat downstream, and lets software re-admit the manager, after
//!    which grants resume.
//! 6. No wire input — protocol-legal or not — panics an enabled
//!    regulator or grows its open-transaction ledger past capacity.

use std::collections::{HashMap, VecDeque};

use axi_tmu::axi4::prelude::*;
use axi_tmu::soc::stage::LinkStage;
use axi_tmu::tmu::telemetry::Dir;
use axi_tmu::tmu::{BudgetConfig, CounterEngine, Tmu, TmuConfig, TmuVariant};
use axi_tmu::tmu_regulate::{
    BudgetUnit, CycleSpend, DirBudget, RegulationMode, Regulator, RegulatorConfig,
};
use proptest::prelude::*;

/// Arbitrary one-cycle wire stimulus for the differential test. The
/// pattern need not be protocol-legal: transparency is a claim about
/// wires, not about transactions.
#[derive(Debug, Clone)]
struct CycleStim {
    drive_aw: bool,
    aw_id: u16,
    aw_beats: u16,
    drive_w: bool,
    w_last: bool,
    drive_ar: bool,
    ar_id: u16,
    drive_b: bool,
    b_id: u16,
    drive_r: bool,
    r_id: u16,
    r_last: bool,
    mgr_b_ready: bool,
    mgr_r_ready: bool,
    out_aw_ready: bool,
    out_w_ready: bool,
    out_ar_ready: bool,
}

fn cycle_stim() -> impl Strategy<Value = CycleStim> {
    (
        (
            any::<bool>(),
            0u16..8,
            prop_oneof![Just(1u16), Just(2), Just(4), Just(8)],
        ),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), 0u16..8),
        (any::<bool>(), 0u16..8),
        (any::<bool>(), 0u16..8, any::<bool>()),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (drive_aw, aw_id, aw_beats),
                (drive_w, w_last),
                (drive_ar, ar_id),
                (drive_b, b_id),
                (drive_r, r_id, r_last),
                (mgr_b_ready, mgr_r_ready, out_aw_ready, out_w_ready, out_ar_ready),
            )| CycleStim {
                drive_aw,
                aw_id,
                aw_beats,
                drive_w,
                w_last,
                drive_ar,
                ar_id,
                drive_b,
                b_id,
                drive_r,
                r_id,
                r_last,
                mgr_b_ready,
                mgr_r_ready,
                out_aw_ready,
                out_w_ready,
                out_ar_ready,
            },
        )
}

fn aw_beat(id: u16, beats: u16) -> AwBeat {
    AwBeat::new(
        AxiId(id),
        Addr(0x1000),
        BurstLen::from_beats(beats).expect("generated lengths are legal"),
        BurstSize::default(),
        BurstKind::Incr,
    )
}

fn ar_beat(id: u16, beats: u16) -> ArBeat {
    ArBeat::new(
        AxiId(id),
        Addr(0x2000),
        BurstLen::from_beats(beats).expect("generated lengths are legal"),
        BurstSize::default(),
        BurstKind::Incr,
    )
}

/// Full observable wire state of the request channels of a port.
type ReqState = (
    bool,
    bool,
    Option<AwBeat>,
    bool,
    bool,
    Option<WBeat>,
    bool,
    bool,
    Option<ArBeat>,
);

/// Full observable wire state of the response channels of a port.
type RespState = (bool, bool, Option<BBeat>, bool, bool, Option<RBeat>);

fn req_state(p: &AxiPort) -> ReqState {
    (
        p.aw.valid(),
        p.aw.ready(),
        p.aw.beat().copied(),
        p.w.valid(),
        p.w.ready(),
        p.w.beat().copied(),
        p.ar.valid(),
        p.ar.ready(),
        p.ar.beat().copied(),
    )
}

fn resp_state(p: &AxiPort) -> RespState {
    (
        p.b.valid(),
        p.b.ready(),
        p.b.beat().copied(),
        p.r.valid(),
        p.r.ready(),
        p.r.beat().copied(),
    )
}

/// Drives the manager-side wires of one stimulus cycle.
fn drive_mgr(stim: &CycleStim, mgr: &mut AxiPort) {
    if stim.drive_aw {
        mgr.aw.drive(aw_beat(stim.aw_id, stim.aw_beats));
    }
    if stim.drive_w {
        mgr.w.drive(WBeat::new(0xDA7A, stim.w_last));
    }
    if stim.drive_ar {
        mgr.ar.drive(ar_beat(stim.ar_id, stim.aw_beats));
    }
    mgr.b.set_ready(stim.mgr_b_ready);
    mgr.r.set_ready(stim.mgr_r_ready);
}

/// Drives the downstream-side wires of one stimulus cycle.
fn drive_out(stim: &CycleStim, out: &mut AxiPort) {
    out.aw.set_ready(stim.out_aw_ready);
    out.w.set_ready(stim.out_w_ready);
    out.ar.set_ready(stim.out_ar_ready);
    if stim.drive_b {
        out.b.drive(BBeat::new(AxiId(stim.b_id), Resp::Okay));
    }
    if stim.drive_r {
        out.r.drive(RBeat::new(
            AxiId(stim.r_id),
            0xF00D,
            Resp::Okay,
            stim.r_last,
        ));
    }
}

/// Drives one identical stimulus cycle into the regulated path
/// (`reg`/`mgr_a`/`out_a`) and the bare-wire path (`mgr_b`/`out_b`).
fn drive_both(
    stim: &CycleStim,
    reg: &mut Regulator,
    mgr_a: &mut AxiPort,
    out_a: &mut AxiPort,
    mgr_b: &mut AxiPort,
    out_b: &mut AxiPort,
) {
    for p in [&mut *mgr_a, &mut *out_a, &mut *mgr_b, &mut *out_b] {
        p.begin_cycle();
    }
    drive_mgr(stim, mgr_a);
    drive_mgr(stim, mgr_b);
    reg.forward_request(mgr_a, out_a);
    out_b.forward_request_from(mgr_b);
    drive_out(stim, out_a);
    drive_out(stim, out_b);
    reg.forward_response(out_a, mgr_a);
    mgr_b.forward_response_from(out_b);
    reg.backprop_response_ready(mgr_a, out_a);
    out_b.b.forward_ready_from(&mgr_b.b);
    out_b.r.forward_ready_from(&mgr_b.r);
}

/// One cycle of random choices for the protocol-legal traffic models,
/// decoded from one random word.
#[derive(Debug, Clone, Copy)]
struct LegalCycle {
    /// A new write the manager offers once its AW channel is free:
    /// `(id, beats)`.
    aw: Option<(u16, u16)>,
    /// A new read, likewise.
    ar: Option<(u16, u16)>,
    /// The manager idles its W channel this cycle (unless a beat is
    /// already on the wires).
    w_gap: bool,
    mgr_b_ready: bool,
    mgr_r_ready: bool,
    sub_aw_ready: bool,
    sub_w_ready: bool,
    sub_ar_ready: bool,
    /// The subordinate idles B or R this cycle (unless a beat is already
    /// on the wires).
    b_gap: bool,
    r_gap: bool,
    /// Which ID's oldest response the subordinate answers next.
    pick: usize,
}

impl LegalCycle {
    fn from_bits(x: u64) -> Self {
        let bit = |n: u32| (x >> n) & 1 == 1;
        let id = |n: u32| ((x >> n) & 3) as u16;
        let beats = |n: u32| 1u16 << ((x >> n) & 3);
        LegalCycle {
            aw: bit(0).then(|| (id(1), beats(3))),
            ar: bit(5).then(|| (id(6), beats(8))),
            w_gap: bit(10) && bit(11),
            mgr_b_ready: bit(12) || bit(13),
            mgr_r_ready: bit(14) || bit(15),
            sub_aw_ready: bit(16),
            sub_w_ready: bit(17) || bit(18),
            sub_ar_ready: bit(19),
            b_gap: bit(20),
            r_gap: bit(21) && bit(22),
            pick: ((x >> 24) & 0xFF) as usize,
        }
    }

    /// Nothing new issued, no gaps, every `ready` high: drains all
    /// traffic in flight.
    fn quiet() -> Self {
        LegalCycle {
            aw: None,
            ar: None,
            w_gap: false,
            mgr_b_ready: true,
            mgr_r_ready: true,
            sub_aw_ready: true,
            sub_w_ready: true,
            sub_ar_ready: true,
            b_gap: false,
            r_gap: false,
            pick: 0,
        }
    }
}

fn legal_plan() -> impl Strategy<Value = Vec<LegalCycle>> {
    proptest::collection::vec(any::<u64>().prop_map(LegalCycle::from_bits), 200..500)
}

/// A protocol-legal manager with a response scoreboard: it holds every
/// offered address until accepted, sends W data in AW order once the AW
/// is accepted, and checks that each write gets one B and each read its
/// `len` R beats with `RLAST` on the final one.
#[derive(Debug, Default)]
struct LegalManager {
    aw: Option<AwBeat>,
    ar: Option<ArBeat>,
    /// W beats still to send per accepted AW, in AW order.
    w_owed: VecDeque<u16>,
    /// A W beat is on the wires and must stay until accepted.
    w_holding: bool,
    /// Scoreboard: writes awaiting their B, per ID.
    writes_open: HashMap<u16, u32>,
    /// Scoreboard: R beats still expected per open read, per ID in
    /// issue order.
    reads_open: HashMap<u16, VecDeque<u16>>,
    issued: u64,
    answered: u64,
}

impl LegalManager {
    fn drive(&mut self, c: &LegalCycle, port: &mut AxiPort) {
        if self.aw.is_none() {
            self.aw = c.aw.map(|(id, beats)| aw_beat(id, beats));
        }
        if let Some(aw) = self.aw {
            port.aw.drive(aw);
        }
        if self.ar.is_none() {
            self.ar = c.ar.map(|(id, beats)| ar_beat(id, beats));
        }
        if let Some(ar) = self.ar {
            port.ar.drive(ar);
        }
        if let Some(&left) = self.w_owed.front() {
            if self.w_holding || !c.w_gap {
                port.w.drive(WBeat::new(0xDA7A, left == 1));
                self.w_holding = true;
            }
        }
        port.b.set_ready(c.mgr_b_ready);
        port.r.set_ready(c.mgr_r_ready);
    }

    #[allow(clippy::panic)] // a test helper's panic is the failure report
    fn commit(&mut self, port: &AxiPort) {
        if let Some(aw) = port.aw.fired_beat() {
            self.aw = None;
            self.w_owed.push_back(aw.len.beats());
            *self.writes_open.entry(aw.id.0).or_default() += 1;
            self.issued += 1;
        }
        if port.w.fires() {
            self.w_holding = false;
            let left = self
                .w_owed
                .front_mut()
                .expect("a W fire implies an open burst");
            *left -= 1;
            if *left == 0 {
                self.w_owed.pop_front();
            }
        }
        if let Some(b) = port.b.fired_beat() {
            let open = self.writes_open.entry(b.id.0).or_default();
            assert!(*open > 0, "B for ID {} with no write awaiting one", b.id.0);
            *open -= 1;
            self.answered += 1;
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.ar = None;
            self.reads_open
                .entry(ar.id.0)
                .or_default()
                .push_back(ar.len.beats());
            self.issued += 1;
        }
        if let Some(r) = port.r.fired_beat() {
            let reads = self.reads_open.entry(r.id.0).or_default();
            let left = reads
                .front_mut()
                .unwrap_or_else(|| panic!("R beat for ID {} with no read awaiting one", r.id.0));
            *left -= 1;
            assert_eq!(
                r.last,
                *left == 0,
                "RLAST must close exactly the burst (ID {})",
                r.id.0
            );
            if *left == 0 {
                reads.pop_front();
                self.answered += 1;
            }
        }
    }

    /// Nothing held on the wires and nothing awaiting a response.
    fn idle(&self) -> bool {
        self.aw.is_none()
            && self.ar.is_none()
            && self.w_owed.is_empty()
            && self.writes_open.values().all(|&n| n == 0)
            && self.reads_open.values().all(VecDeque::is_empty)
    }
}

/// A subordinate stub that stalls at random: it accepts addresses and
/// data when its `ready` coin says so, answers each write with one B
/// after its last W beat, and streams read data, picking at random which
/// ID's oldest response goes next (same-ID order, cross-ID
/// interleaving).
#[derive(Debug, Default)]
struct StubSub {
    /// W beats still expected per accepted AW, in AW order.
    w_owed: VecDeque<(u16, u16)>,
    /// IDs of completed writes awaiting their B.
    b_owed: Vec<u16>,
    /// Reads awaiting data: `(id, beats left)`.
    r_owed: Vec<(u16, u16)>,
    /// Index into `b_owed` / `r_owed` of the beat held on the wires.
    b_driving: Option<usize>,
    r_driving: Option<usize>,
}

/// Index of the oldest entry of the `pick`-th distinct ID in `ids`.
fn pick_id_head(ids: impl Iterator<Item = u16>, pick: usize) -> Option<usize> {
    let mut heads: Vec<(u16, usize)> = Vec::new();
    for (at, id) in ids.enumerate() {
        if heads.iter().all(|&(seen, _)| seen != id) {
            heads.push((id, at));
        }
    }
    (!heads.is_empty()).then(|| heads[pick % heads.len()].1)
}

impl StubSub {
    fn drive(&mut self, c: &LegalCycle, port: &mut AxiPort) {
        port.aw.set_ready(c.sub_aw_ready);
        port.w.set_ready(c.sub_w_ready);
        port.ar.set_ready(c.sub_ar_ready);
        if self.b_driving.is_none() && !c.b_gap {
            self.b_driving = pick_id_head(self.b_owed.iter().copied(), c.pick);
        }
        if let Some(at) = self.b_driving {
            port.b.drive(BBeat::new(AxiId(self.b_owed[at]), Resp::Okay));
        }
        if self.r_driving.is_none() && !c.r_gap {
            self.r_driving = pick_id_head(self.r_owed.iter().map(|&(id, _)| id), c.pick);
        }
        if let Some(at) = self.r_driving {
            let (id, left) = self.r_owed[at];
            port.r
                .drive(RBeat::new(AxiId(id), 0xF00D, Resp::Okay, left == 1));
        }
    }

    fn commit(&mut self, port: &AxiPort) {
        if let Some(aw) = port.aw.fired_beat() {
            self.w_owed.push_back((aw.id.0, aw.len.beats()));
        }
        if port.w.fires() {
            let (id, left) = self
                .w_owed
                .front_mut()
                .expect("W data only follows an accepted AW");
            *left -= 1;
            if *left == 0 {
                self.b_owed.push(*id);
                self.w_owed.pop_front();
            }
        }
        if port.b.fires() {
            let at = self.b_driving.take().expect("a B fire implies a driven B");
            self.b_owed.remove(at);
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.r_owed.push((ar.id.0, ar.len.beats()));
        }
        if port.r.fires() {
            let at = self.r_driving.take().expect("an R fire implies a driven R");
            self.r_owed[at].1 -= 1;
            if self.r_owed[at].1 == 0 {
                self.r_owed.remove(at);
            }
        }
    }

    fn idle(&self) -> bool {
        self.w_owed.is_empty() && self.b_owed.is_empty() && self.r_owed.is_empty()
    }
}

/// The reference design for back-pressure mode: the credit bucket masks
/// denied address beats in front of a tracker TMU — Tiny-Counter,
/// per-cycle engine, checker off, a timeout budget it can never reach —
/// whose outstanding-transaction table sizes the port.
struct TrackerRegulator {
    budget: BudgetUnit,
    tracker: Tmu,
    grants: u64,
}

impl TrackerRegulator {
    fn new(cfg: &RegulatorConfig) -> Self {
        let tracker = TmuConfig::builder()
            .variant(TmuVariant::TinyCounter)
            .engine(CounterEngine::PerCycle)
            .check_protocol(false)
            .max_uniq_ids(cfg.max_uniq_ids())
            .txn_per_id(cfg.txn_per_id())
            .budgets(BudgetConfig {
                tiny_total_override: Some(1 << 40),
                ..BudgetConfig::default()
            })
            .build()
            .expect("the regulator's sizing is a valid tracker sizing");
        TrackerRegulator {
            budget: BudgetUnit::new(cfg),
            tracker: Tmu::new(tracker),
            grants: 0,
        }
    }

    /// Whether the manager's AW and AR are credit-denied.
    fn denies(&self, mgr: &AxiPort) -> (bool, bool) {
        (
            mgr.aw.valid() && !self.budget.may_grant(Dir::Write),
            mgr.ar.valid() && !self.budget.may_grant(Dir::Read),
        )
    }

    fn masked(&self, mgr: &AxiPort) -> AxiPort {
        let (deny_aw, deny_ar) = self.denies(mgr);
        let mut masked = mgr.clone();
        if deny_aw {
            masked.aw.suppress_valid();
        }
        if deny_ar {
            masked.ar.suppress_valid();
        }
        masked
    }
}

impl LinkStage for TrackerRegulator {
    fn forward_request(&self, mgr: &AxiPort, out: &mut AxiPort) {
        let masked = self.masked(mgr);
        self.tracker.forward_request(&masked, out);
    }
    fn forward_response(&self, out: &AxiPort, mgr: &mut AxiPort) {
        let (deny_aw, deny_ar) = self.denies(mgr);
        self.tracker.forward_response(out, mgr);
        if deny_aw {
            mgr.aw.set_ready(false);
        }
        if deny_ar {
            mgr.ar.set_ready(false);
        }
    }
    fn backprop_response_ready(&self, mgr: &AxiPort, out: &mut AxiPort) {
        self.tracker.backprop_response_ready(mgr, out);
    }
    fn commit(&mut self, mgr: &AxiPort, _out: &AxiPort, cycle: u64) -> bool {
        let (deny_aw, deny_ar) = self.denies(mgr);
        let masked = self.masked(mgr);
        let mut spend = CycleSpend {
            denied: deny_aw || deny_ar,
            ..CycleSpend::default()
        };
        if let Some(aw) = masked.aw.fired_beat() {
            spend.write_bytes = aw.total_bytes();
            spend.write_txns = 1;
            self.grants += 1;
        }
        if let Some(ar) = masked.ar.fired_beat() {
            spend.read_bytes = ar.total_bytes();
            spend.read_txns = 1;
            self.grants += 1;
        }
        self.budget.commit(&spend, cycle);
        self.tracker.commit_port(&masked, cycle);
        false
    }
}

/// A legal manager and a random-stall subordinate around one stage.
#[derive(Debug, Default)]
struct LegalRig {
    manager: LegalManager,
    sub: StubSub,
    mgr: AxiPort,
    out: AxiPort,
}

impl LegalRig {
    fn step(&mut self, stage: &mut impl LinkStage, c: &LegalCycle, cycle: u64) {
        self.mgr.begin_cycle();
        self.out.begin_cycle();
        self.manager.drive(c, &mut self.mgr);
        stage.forward_request(&self.mgr, &mut self.out);
        self.sub.drive(c, &mut self.out);
        stage.forward_response(&self.out, &mut self.mgr);
        stage.backprop_response_ready(&self.mgr, &mut self.out);
        self.manager.commit(&self.mgr);
        self.sub.commit(&self.out);
        stage.commit(&self.mgr, &self.out, cycle);
    }
}

proptest! {
    /// (1) Disabled transparency: under arbitrary stimulus, every wire
    /// of both the downstream and the manager-side port matches bare
    /// forwarding, every cycle.
    #[test]
    fn disabled_regulator_is_cycle_for_cycle_transparent(
        stims in proptest::collection::vec(cycle_stim(), 20..120),
    ) {
        let cfg = RegulatorConfig::builder()
            .enabled(false)
            .build()
            .expect("disabled configuration is valid");
        let mut reg = Regulator::new(cfg);
        let (mut mgr_a, mut out_a) = (AxiPort::new(), AxiPort::new());
        let (mut mgr_b, mut out_b) = (AxiPort::new(), AxiPort::new());
        for (cycle, stim) in stims.iter().enumerate() {
            drive_both(stim, &mut reg, &mut mgr_a, &mut out_a, &mut mgr_b, &mut out_b);
            prop_assert_eq!(
                req_state(&out_a), req_state(&out_b),
                "cycle {}: downstream request wires diverged", cycle
            );
            prop_assert_eq!(
                resp_state(&out_a), resp_state(&out_b),
                "cycle {}: downstream response wires diverged", cycle
            );
            prop_assert_eq!(
                req_state(&mgr_a), req_state(&mgr_b),
                "cycle {}: manager request wires diverged", cycle
            );
            prop_assert_eq!(
                resp_state(&mgr_a), resp_state(&mgr_b),
                "cycle {}: manager response wires diverged", cycle
            );
            reg.commit_port(&mgr_a, &out_a, cycle as u64);
        }
        prop_assert_eq!((reg.grants(), reg.denies()), (0, 0));
    }

    /// (2) A compliant manager — issuing one burst every `gap` cycles
    /// against a budget provisioned for that rate — is granted on the
    /// same cycle every time, never denied, and never isolated even
    /// with a single-window isolation trigger armed.
    #[test]
    fn compliant_manager_is_never_stalled(
        gap in 4u64..32,
        beats in prop_oneof![Just(1u16), Just(2), Just(4), Just(8)],
        window in 64u64..256,
        total in 20u64..60,
    ) {
        // Keep the W channel drained between issues so the only thing
        // that could stall the AW is the credit gate under test.
        prop_assume!(u64::from(beats) < gap);
        let bytes_per_txn = u64::from(beats) * 8;
        let per_window = window / gap + 2;
        let cfg = RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: per_window * bytes_per_txn,
                txns_per_window: per_window,
            })
            .read_budget(DirBudget::unlimited())
            .window_cycles(window)
            .mode(RegulationMode::Isolate { overrun_windows: 1 })
            .build()
            .expect("compliant-rate configuration is valid");
        let mut reg = Regulator::new(cfg);
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        let mut b_queue: Vec<BBeat> = Vec::new();
        let mut w_rem: VecDeque<(u16, u16)> = VecDeque::new();
        let mut issued = 0u64;
        for cycle in 0..total * gap + 4 * window {
            mgr.begin_cycle();
            out.begin_cycle();
            let drive_aw = cycle.is_multiple_of(gap) && issued < total;
            if drive_aw {
                mgr.aw.drive(aw_beat((issued % 4) as u16, beats));
            }
            if let Some(&(_, rem)) = w_rem.front() {
                mgr.w.drive(WBeat::new(cycle, rem == 1));
            }
            mgr.b.set_ready(true);
            mgr.r.set_ready(true);
            reg.forward_request(&mgr, &mut out);
            out.aw.set_ready(true);
            out.w.set_ready(true);
            out.ar.set_ready(true);
            if let Some(b) = b_queue.first() {
                out.b.drive(*b);
            }
            reg.forward_response(&out, &mut mgr);
            if drive_aw {
                prop_assert!(
                    mgr.aw.fires(),
                    "cycle {}: a compliant AW must be granted immediately", cycle
                );
                issued += 1;
            }
            if let Some(aw) = mgr.aw.fired_beat() {
                w_rem.push_back((aw.id.0, aw.len.beats()));
            }
            if out.b.fires() {
                b_queue.remove(0);
            }
            if mgr.w.fires() {
                let (id, rem) = w_rem
                    .front_mut()
                    .map(|e| { e.1 -= 1; *e })
                    .expect("a W fire implies an open burst");
                if rem == 0 {
                    w_rem.pop_front();
                    b_queue.push(BBeat::new(AxiId(id), Resp::Okay));
                }
            }
            reg.commit_port(&mgr, &out, cycle);
        }
        prop_assert_eq!(reg.grants(), total);
        prop_assert_eq!(reg.denies(), 0, "a compliant manager is never denied");
        prop_assert!(!reg.is_isolated());
    }

    /// (3) Credit-bucket soundness: however greedy the (random) traffic,
    /// the bytes granted inside any one window never exceed the byte
    /// budget plus one maximal burst (the saturating-deduction
    /// carryover).
    #[test]
    fn granted_bytes_per_window_respect_the_budget(
        plan in proptest::collection::vec(
            (any::<bool>(), prop_oneof![Just(1u16), Just(2), Just(4), Just(8)]),
            300..700,
        ),
        budget_bytes in 64u64..512,
        window in 32u64..128,
    ) {
        const MAX_BURST_BYTES: u64 = 8 * 8;
        let cfg = RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: budget_bytes,
                txns_per_window: 1 << 20,
            })
            .read_budget(DirBudget::unlimited())
            .window_cycles(window)
            .build()
            .expect("greedy-stress configuration is valid");
        let mut reg = Regulator::new(cfg);
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        let mut b_queue: Vec<BBeat> = Vec::new();
        let mut w_rem: VecDeque<(u16, u16)> = VecDeque::new();
        let mut pending: Option<AwBeat> = None;
        let mut issued = 0u64;
        let mut window_bytes = 0u64;
        for (cycle, &(issue, beats)) in plan.iter().enumerate() {
            let cycle = cycle as u64;
            mgr.begin_cycle();
            out.begin_cycle();
            if pending.is_none() && issue {
                pending = Some(aw_beat((issued % 4) as u16, beats));
                issued += 1;
            }
            if let Some(aw) = pending {
                mgr.aw.drive(aw);
            }
            if let Some(&(_, rem)) = w_rem.front() {
                mgr.w.drive(WBeat::new(cycle, rem == 1));
            }
            mgr.b.set_ready(true);
            mgr.r.set_ready(true);
            reg.forward_request(&mgr, &mut out);
            out.aw.set_ready(true);
            out.w.set_ready(true);
            out.ar.set_ready(true);
            if let Some(b) = b_queue.first() {
                out.b.drive(*b);
            }
            reg.forward_response(&out, &mut mgr);
            if let Some(aw) = mgr.aw.fired_beat() {
                window_bytes += aw.total_bytes();
                w_rem.push_back((aw.id.0, aw.len.beats()));
                pending = None;
            }
            if out.b.fires() {
                b_queue.remove(0);
            }
            if mgr.w.fires() {
                let (id, rem) = w_rem
                    .front_mut()
                    .map(|e| { e.1 -= 1; *e })
                    .expect("a W fire implies an open burst");
                if rem == 0 {
                    w_rem.pop_front();
                    b_queue.push(BBeat::new(AxiId(id), Resp::Okay));
                }
            }
            reg.commit_port(&mgr, &out, cycle);
            if (cycle + 1).is_multiple_of(window) {
                prop_assert!(
                    window_bytes <= budget_bytes + MAX_BURST_BYTES,
                    "window ending at cycle {}: granted {} bytes against a budget of {} (+{} carryover)",
                    cycle, window_bytes, budget_bytes, MAX_BURST_BYTES
                );
                window_bytes = 0;
            }
        }
    }

    /// (4) Cycle-exact bookkeeping: against the reference design, with
    /// a ledger of 2 IDs x 2 transactions so admission stalls really
    /// occur, every wire of both ports matches on every cycle, as do the
    /// open-transaction count and the grants.
    #[test]
    fn ledger_matches_the_tracker_reference_cycle_for_cycle(
        plan in legal_plan(),
        write_txns in 1u64..6,
        read_txns in 1u64..6,
        window in 8u64..64,
    ) {
        let cfg = RegulatorConfig::builder()
            .write_budget(DirBudget { bytes_per_window: 256, txns_per_window: write_txns })
            .read_budget(DirBudget { bytes_per_window: 256, txns_per_window: read_txns })
            .window_cycles(window)
            .max_uniq_ids(2)
            .txn_per_id(2)
            .build()
            .expect("small back-pressure configuration is valid");
        let mut reg = Regulator::new(cfg);
        let mut reference = TrackerRegulator::new(&cfg);
        let (mut rig, mut ref_rig) = (LegalRig::default(), LegalRig::default());
        for (cycle, c) in plan.iter().enumerate() {
            rig.step(&mut reg, c, cycle as u64);
            ref_rig.step(&mut reference, c, cycle as u64);
            prop_assert_eq!(
                (req_state(&rig.out), resp_state(&rig.out)),
                (req_state(&ref_rig.out), resp_state(&ref_rig.out)),
                "cycle {}: downstream wires diverged", cycle
            );
            prop_assert_eq!(
                (req_state(&rig.mgr), resp_state(&rig.mgr)),
                (req_state(&ref_rig.mgr), resp_state(&ref_rig.mgr)),
                "cycle {}: manager wires diverged", cycle
            );
            prop_assert_eq!(
                reg.outstanding(), reference.tracker.outstanding(),
                "cycle {}: open transactions diverged", cycle
            );
        }
        prop_assert_eq!(reg.grants(), reference.grants);
    }

    /// (5) Isolation scoreboard: a greedy legal manager is isolated at a
    /// random window; every transaction it issued is answered exactly
    /// once, every W beat owed to the subordinate reaches it,
    /// `release()` succeeds within a bounded number of cycles, and
    /// grants resume afterwards.
    #[test]
    fn isolation_answers_every_transaction_exactly_once(
        plan in legal_plan(),
        txns in 1u64..3,
        window in 16u64..64,
        overrun_windows in 1u32..4,
    ) {
        const BOUND: u64 = 4_000;
        let budget = DirBudget { bytes_per_window: 1 << 20, txns_per_window: txns };
        let cfg = RegulatorConfig::builder()
            .write_budget(budget)
            .read_budget(budget)
            .window_cycles(window)
            .mode(RegulationMode::Isolate { overrun_windows })
            .max_uniq_ids(2)
            .txn_per_id(4)
            .build()
            .expect("greedy isolating configuration is valid");
        let mut reg = Regulator::new(cfg);
        let mut rig = LegalRig::default();
        let mut cycle = 0u64;
        let at = |cycle: u64| &plan[cycle as usize % plan.len()];
        while !reg.is_isolated() {
            prop_assert!(cycle < BOUND, "a greedy manager must be isolated");
            rig.step(&mut reg, at(cycle), cycle);
            cycle += 1;
        }
        let (isolated_at, grants) = (cycle, reg.grants());
        loop {
            rig.step(&mut reg, at(cycle), cycle);
            cycle += 1;
            prop_assert_eq!(reg.grants(), grants, "an isolated manager is granted nothing");
            if reg.release() {
                break;
            }
            prop_assert!(
                cycle - isolated_at < BOUND,
                "release must succeed once the aborts are delivered and the owed beats drained"
            );
        }
        let released_at = cycle;
        while reg.grants() == grants {
            prop_assert!(cycle - released_at < BOUND, "grants must resume after release");
            rig.step(&mut reg, at(cycle), cycle);
            cycle += 1;
        }
        // Quiesce: nothing new is issued; a held address may still be
        // denied into another isolation, which software lifts again.
        let quiet_from = cycle;
        while !(rig.manager.idle() && rig.sub.idle()) {
            prop_assert!(
                cycle - quiet_from < BOUND,
                "every transaction must be answered and every owed W beat delivered"
            );
            rig.step(&mut reg, &LegalCycle::quiet(), cycle);
            cycle += 1;
            if reg.is_isolated() {
                reg.release();
            }
        }
        prop_assert_eq!(rig.manager.answered, rig.manager.issued);
        prop_assert_eq!(reg.outstanding(), 0);
    }

    /// (6) Wire fuzz: arbitrary, protocol-illegal wires into an enabled
    /// regulator in both modes never panic it, and its ledgers never
    /// hold more than their capacity per direction.
    #[test]
    fn enabled_regulator_survives_arbitrary_wires(
        stims in proptest::collection::vec(cycle_stim(), 200..400),
        isolate in any::<bool>(),
        window in 4u64..32,
    ) {
        let (ids, per_id) = (2, 2);
        let budget = DirBudget { bytes_per_window: 64, txns_per_window: 2 };
        let cfg = RegulatorConfig::builder()
            .write_budget(budget)
            .read_budget(budget)
            .window_cycles(window)
            .mode(if isolate {
                RegulationMode::Isolate { overrun_windows: 1 }
            } else {
                RegulationMode::BackPressure
            })
            .max_uniq_ids(ids)
            .txn_per_id(per_id)
            .build()
            .expect("fuzz configuration is valid");
        let mut reg = Regulator::new(cfg);
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        for (cycle, stim) in stims.iter().enumerate() {
            mgr.begin_cycle();
            out.begin_cycle();
            drive_mgr(stim, &mut mgr);
            reg.forward_request(&mgr, &mut out);
            drive_out(stim, &mut out);
            reg.forward_response(&out, &mut mgr);
            reg.backprop_response_ready(&mgr, &mut out);
            reg.commit_port(&mgr, &out, cycle as u64);
            prop_assert!(
                reg.outstanding() <= 2 * ids * per_id as usize,
                "cycle {}: {} open transactions exceed the ledger capacity",
                cycle, reg.outstanding()
            );
            if reg.is_isolated() {
                reg.release();
            }
        }
    }
}
