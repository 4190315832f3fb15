//! The quiet gate's reference property: a gated regulator and one that
//! commits in full on every cycle, driven side by side by identical
//! arbitrary wires, drive every wire identically after every pass and
//! hold identical committed state after every commit.

use axi4::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use axi4::channel::AxiPort;
use axi4::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};
use proptest::prelude::*;
use tmu_telemetry::TelemetryConfig;

use crate::config::{DirBudget, RegulationMode, RegulatorConfig};
use crate::regulator::Regulator;

/// One cycle of arbitrary wires on both sides of a regulator, plus an
/// optional software release before the cycle.
#[derive(Debug, Clone)]
struct Wires {
    /// Only W data and the readys move: no address is offered and no
    /// response is driven, the shape of most quiet cycles.
    data_only: bool,
    aw: Option<(u16, u16)>,
    w: Option<bool>,
    ar: Option<(u16, u16)>,
    b: Option<u16>,
    r: Option<(u16, bool)>,
    mgr_b_ready: bool,
    mgr_r_ready: bool,
    /// The manager side's B/R `ready` settle after the response pass
    /// (a mux below), so `backprop_response_ready` carries them.
    late_ready: bool,
    aw_ready: bool,
    w_ready: bool,
    ar_ready: bool,
    release: bool,
}

/// `value` on half of the draws, `None` on the rest.
fn maybe<S: Strategy>(value: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), value).prop_map(|(on, value)| on.then_some(value))
}

/// `true` on one draw in `n`.
fn one_in(n: u8) -> impl Strategy<Value = bool> {
    (0..n).prop_map(|draw| draw == 0)
}

fn addr() -> impl Strategy<Value = Option<(u16, u16)>> {
    maybe((0u16..3, prop_oneof![Just(1u16), Just(2), Just(4)]))
}

fn wires() -> impl Strategy<Value = Wires> {
    (
        (
            addr(),
            maybe(any::<bool>()),
            addr(),
            maybe(0u16..3),
            maybe((0u16..3, any::<bool>())),
        ),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        // Addresses wait on the interconnect two cycles in three.
        (one_in(3), any::<bool>(), one_in(3)),
        // A release is tried on one cycle in four, and one cycle in
        // three moves data only.
        (one_in(4), one_in(3)),
    )
        .prop_map(
            |(
                (aw, w, ar, b, r),
                (mgr_b_ready, mgr_r_ready, late_ready),
                (aw_ready, w_ready, ar_ready),
                (release, data_only),
            )| Wires {
                data_only,
                aw,
                w,
                ar,
                b,
                r,
                mgr_b_ready,
                mgr_r_ready,
                late_ready,
                aw_ready,
                w_ready,
                ar_ready,
                release,
            },
        )
}

fn budget() -> impl Strategy<Value = DirBudget> {
    (1u64..=64, 1u64..=3).prop_map(|(bytes_per_window, txns_per_window)| DirBudget {
        bytes_per_window,
        txns_per_window,
    })
}

/// A configuration and whether (and how often) telemetry samples.
fn config() -> impl Strategy<Value = (RegulatorConfig, Option<u64>)> {
    (
        (budget(), budget(), 1u64..=8),
        (1usize..=2, 1u32..=2),
        // Two cases in three isolate, so severs and releases are common.
        prop_oneof![
            Just(RegulationMode::BackPressure),
            (1u32..=3).prop_map(|overrun_windows| RegulationMode::Isolate { overrun_windows }),
            (1u32..=3).prop_map(|overrun_windows| RegulationMode::Isolate { overrun_windows }),
        ],
        maybe(1u64..=8),
    )
        .prop_map(
            |((write, read, window), (ids, per_id), mode, sample_every)| {
                let cfg = RegulatorConfig::builder()
                    .write_budget(write)
                    .read_budget(read)
                    .window_cycles(window)
                    .max_uniq_ids(ids)
                    .txn_per_id(per_id)
                    .mode(mode)
                    .build()
                    .expect("drawn budgets and capacities are nonzero");
                (cfg, sample_every)
            },
        )
}

fn len(beats: u16) -> BurstLen {
    BurstLen::from_beats(beats).expect("drawn burst lengths are legal")
}

fn drive_manager(w: &Wires, mgr: &mut AxiPort) {
    if let Some((id, beats)) = w.aw.filter(|_| !w.data_only) {
        mgr.aw.drive(AwBeat::new(
            AxiId(id),
            Addr(0x40),
            len(beats),
            BurstSize::default(),
            BurstKind::Incr,
        ));
    }
    if let Some(last) = w.w {
        mgr.w.drive(WBeat::new(0x5A, last));
    }
    if let Some((id, beats)) = w.ar.filter(|_| !w.data_only) {
        mgr.ar.drive(ArBeat::new(
            AxiId(id),
            Addr(0x80),
            len(beats),
            BurstSize::default(),
            BurstKind::Incr,
        ));
    }
    if !w.late_ready {
        mgr.b.set_ready(w.mgr_b_ready);
        mgr.r.set_ready(w.mgr_r_ready);
    }
}

fn drive_downstream(w: &Wires, out: &mut AxiPort) {
    out.aw.set_ready(w.aw_ready);
    out.w.set_ready(w.w_ready);
    out.ar.set_ready(w.ar_ready);
    if let Some(id) = w.b.filter(|_| !w.data_only) {
        out.b.drive(BBeat::new(AxiId(id), Resp::Okay));
    }
    if let Some((id, last)) = w.r.filter(|_| !w.data_only) {
        out.r.drive(RBeat::new(AxiId(id), 0xA5, Resp::Okay, last));
    }
}

/// One regulator with its two ports.
struct Side {
    reg: Regulator,
    mgr: AxiPort,
    out: AxiPort,
}

impl Side {
    fn new(reg: Regulator) -> Self {
        Side {
            reg,
            mgr: AxiPort::new(),
            out: AxiPort::new(),
        }
    }

    fn wires(&self) -> String {
        format!("{:?} {:?}", self.mgr, self.out)
    }
}

/// Runs `pass` on both sides and requires identical wires afterwards.
fn both(sides: &mut [Side; 2], what: &str, cycle: u64, mut pass: impl FnMut(&mut Side)) {
    for side in sides.iter_mut() {
        pass(side);
    }
    prop_assert_eq!(
        sides[0].wires(),
        sides[1].wires(),
        "wires differ after {} of cycle {}",
        what,
        cycle
    );
}

proptest! {
    #[test]
    fn gated_commit_matches_the_full_commit(
        config in config(),
        stims in prop::collection::vec(wires(), 1..200),
    ) {
        let (cfg, sample_every) = config;
        let mut gated = Regulator::new(cfg);
        let mut full = Regulator::new_ungated(cfg);
        if let Some(sample_every) = sample_every {
            let telemetry = TelemetryConfig {
                sample_every,
                ..TelemetryConfig::default()
            };
            gated.enable_telemetry(telemetry);
            full.enable_telemetry(telemetry);
        }
        let mut sides = [Side::new(gated), Side::new(full)];
        for (cycle, w) in (0u64..).zip(&stims) {
            if w.release {
                let released = sides.each_mut().map(|s| s.reg.release());
                prop_assert_eq!(released[0], released[1], "release at cycle {}", cycle);
            }
            both(&mut sides, "forward_request", cycle, |s| {
                s.mgr.begin_cycle();
                s.out.begin_cycle();
                drive_manager(w, &mut s.mgr);
                s.reg.forward_request(&s.mgr, &mut s.out);
            });
            both(&mut sides, "forward_response", cycle, |s| {
                drive_downstream(w, &mut s.out);
                s.reg.forward_response(&s.out, &mut s.mgr);
            });
            both(&mut sides, "backprop_response_ready", cycle, |s| {
                if w.late_ready {
                    s.mgr.b.set_ready(w.mgr_b_ready);
                    s.mgr.r.set_ready(w.mgr_r_ready);
                }
                s.reg.backprop_response_ready(&s.mgr, &mut s.out);
            });
            for side in &mut sides {
                side.reg.commit_port(&side.mgr, &side.out, cycle);
            }
            prop_assert_eq!(
                sides[0].reg.committed_state(),
                sides[1].reg.committed_state(),
                "committed state differs after cycle {}",
                cycle
            );
        }
    }
}
