//! Property tests: cross-direction differential equivalence of the
//! generic guard engine.
//!
//! The Write Guard and Read Guard are the same `GuardCore` machinery
//! under two `Direction` implementations. For any stimulus expressible
//! in both directions — address handshake stretching, data-beat pacing,
//! total stalls — the two engines must walk in lockstep: identical
//! enqueue and retire cycles, identical timeout cycles and fault
//! records, and identical live counters, with only the direction-owned
//! phase vocabularies differing (masked here to the shared
//! address/data/response/done stages).
//!
//! Write responses are collapsed onto the final W beat (B driven
//! `valid`+`ready` the same cycle), so a write retires the cycle its
//! last data beat fires — exactly like a read retiring on its last R
//! beat. This also exercises `debug_entries()` on the read side for
//! both counter engines, including the deadline-wheel counter
//! materialization.

use axi4::prelude::*;
use axi_tmu::tmu::guard::{ReadGuard, WriteGuard};
use axi_tmu::tmu::telemetry::TelemetryHub;
use axi_tmu::tmu::{
    BudgetConfig, CounterEngine, PerfLog, ReadPhase, TmuConfig, TmuVariant, WritePhase,
};
use proptest::prelude::*;

#[path = "common/cases.rs"]
mod cases;
use cases::cases;

/// A direction-neutral transaction stimulus.
#[derive(Debug, Clone)]
struct TxnPlan {
    id: u16,
    beats: u16,
    /// Cycles the address beat is held `valid` before `ready`.
    addr_hold: u64,
    /// Idle cycles between address acceptance and the first data beat.
    pre_data_gap: u64,
    /// Idle cycles between consecutive data beats.
    beat_gap: u64,
    /// Idle cycles after retirement before the next transaction.
    gap_after: u64,
}

/// One cycle of shared stimulus, interpreted per direction.
#[derive(Debug, Clone, Copy)]
enum Op {
    Idle,
    /// Offer the address beat; fire (`ready`) if so marked.
    Addr {
        id: u16,
        beats: u16,
        fire: bool,
    },
    /// Fire one data beat (`valid`+`ready`).
    Beat {
        id: u16,
        last: bool,
    },
}

fn compile(plans: &[TxnPlan]) -> Vec<Op> {
    let mut script = Vec::new();
    for plan in plans {
        for _ in 0..plan.addr_hold {
            script.push(Op::Addr {
                id: plan.id,
                beats: plan.beats,
                fire: false,
            });
        }
        script.push(Op::Addr {
            id: plan.id,
            beats: plan.beats,
            fire: true,
        });
        for _ in 0..plan.pre_data_gap {
            script.push(Op::Idle);
        }
        for beat in 0..plan.beats {
            for _ in 0..plan.beat_gap {
                script.push(Op::Idle);
            }
            script.push(Op::Beat {
                id: plan.id,
                last: beat + 1 == plan.beats,
            });
        }
        for _ in 0..plan.gap_after {
            script.push(Op::Idle);
        }
    }
    script
}

fn aw(id: u16, beats: u16) -> AwBeat {
    AwBeat::new(
        AxiId(id),
        Addr(0x4000),
        BurstLen::from_beats(beats).expect("1..=256 beats are legal"),
        BurstSize::from_bytes(8).expect("8-byte beats are legal"),
        BurstKind::Incr,
    )
}

fn ar(id: u16, beats: u16) -> ArBeat {
    ArBeat::new(
        AxiId(id),
        Addr(0x4000),
        BurstLen::from_beats(beats).expect("1..=256 beats are legal"),
        BurstSize::from_bytes(8).expect("8-byte beats are legal"),
        BurstKind::Incr,
    )
}

/// Applies `op` to a write-side port. The B response rides on the final
/// W beat so retirement timing matches the read side.
fn drive_write(port: &mut AxiPort, op: Op) {
    match op {
        Op::Idle => {}
        Op::Addr { id, beats, fire } => {
            port.aw.drive(aw(id, beats));
            if fire {
                port.aw.set_ready(true);
            }
        }
        Op::Beat { id, last } => {
            port.w.drive(WBeat::new(0xDA7A, last));
            port.w.set_ready(true);
            if last {
                port.b.drive(BBeat::new(AxiId(id), Resp::Okay));
                port.b.set_ready(true);
            }
        }
    }
}

fn drive_read(port: &mut AxiPort, op: Op) {
    match op {
        Op::Idle => {}
        Op::Addr { id, beats, fire } => {
            port.ar.drive(ar(id, beats));
            if fire {
                port.ar.set_ready(true);
            }
        }
        Op::Beat { id, last } => {
            port.r
                .drive(RBeat::new(AxiId(id), 0xDA7A, Resp::Okay, last));
            port.r.set_ready(true);
        }
    }
}

/// The shared phase vocabulary: address / data / response / done.
fn mask_write(phase: WritePhase) -> u8 {
    match phase {
        WritePhase::AwHandshake => 0,
        WritePhase::DataEntry | WritePhase::FirstData | WritePhase::BurstTransfer => 1,
        WritePhase::RespWait | WritePhase::RespReady => 2,
        WritePhase::Done => 3,
    }
}

fn mask_read(phase: ReadPhase) -> u8 {
    match phase {
        ReadPhase::ArHandshake => 0,
        ReadPhase::DataWait | ReadPhase::BurstTransfer => 1,
        ReadPhase::LastReady => 2,
        ReadPhase::Done => 3,
    }
}

fn tiny_cfg(engine: CounterEngine, budget: u64, prescale: u64) -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .engine(engine)
        .prescaler(prescale)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .budgets(BudgetConfig {
            tiny_total_override: Some(budget),
            ..BudgetConfig::default()
        })
        .build()
        .expect("valid differential configuration")
}

/// Runs the same script through both engines, asserting lockstep state
/// after every committed cycle. Returns the per-direction fault cycles.
fn run_lockstep(script: &[Op], cfg: &TmuConfig) -> (Vec<u64>, Vec<u64>) {
    let mut wg = WriteGuard::new(cfg);
    let mut rg = ReadGuard::new(cfg);
    let mut w_perf = PerfLog::new();
    let mut r_perf = PerfLog::new();
    let mut w_hub = TelemetryHub::default();
    let mut r_hub = TelemetryHub::default();
    let mut w_fault_cycles = Vec::new();
    let mut r_fault_cycles = Vec::new();

    for (cycle, &op) in script.iter().enumerate() {
        let cycle = cycle as u64;
        let mut wp = AxiPort::new();
        let mut rp = AxiPort::new();
        wp.begin_cycle();
        rp.begin_cycle();
        drive_write(&mut wp, op);
        drive_read(&mut rp, op);

        let mut w_faults = Vec::new();
        let mut r_faults = Vec::new();
        wg.commit(&wp, cycle, &mut w_perf, &mut w_hub, &mut w_faults);
        rg.commit(&rp, cycle, &mut r_perf, &mut r_hub, &mut r_faults);

        // Faults must agree in every direction-neutral field.
        prop_assert_eq!(w_faults.len(), r_faults.len(), "fault count @{}", cycle);
        for (wf, rf) in w_faults.iter().zip(&r_faults) {
            prop_assert_eq!(wf.kind, rf.kind);
            prop_assert_eq!(wf.id, rf.id);
            prop_assert_eq!(wf.addr, rf.addr);
            prop_assert_eq!(wf.inflight_cycles, rf.inflight_cycles);
            prop_assert!(wf.phase.is_none(), "Tc reports transaction-level only");
            prop_assert!(rf.phase.is_none(), "Tc reports transaction-level only");
        }
        w_fault_cycles.extend(w_faults.iter().map(|_| cycle));
        r_fault_cycles.extend(r_faults.iter().map(|_| cycle));

        // Occupancy and the full debug view walk in lockstep: same IDs,
        // same masked phases, identical counters.
        prop_assert_eq!(wg.outstanding(), rg.outstanding(), "occupancy @{}", cycle);
        let w_entries = wg.debug_entries();
        let r_entries = rg.debug_entries();
        prop_assert_eq!(w_entries.len(), r_entries.len());
        for ((wid, wphase, wcounter), (rid, rphase, rcounter)) in w_entries.iter().zip(&r_entries) {
            prop_assert_eq!(wid, rid, "entry id @{}", cycle);
            prop_assert_eq!(
                mask_write(*wphase),
                mask_read(*rphase),
                "masked phase @{}",
                cycle
            );
            prop_assert_eq!(wcounter, rcounter, "counter state @{}", cycle);
        }
        if let Op::Addr { id, .. } = op {
            let wp_masked = wg.head_phase(AxiId(id)).map(mask_write);
            let rp_masked = rg.head_phase(AxiId(id)).map(mask_read);
            prop_assert_eq!(wp_masked, rp_masked, "head phase @{}", cycle);
        }
    }

    // Completed transactions were recorded symmetrically.
    prop_assert_eq!(w_perf.writes(), r_perf.reads(), "retire counts");
    (w_fault_cycles, r_fault_cycles)
}

fn txn_plans() -> impl Strategy<Value = Vec<TxnPlan>> {
    proptest::collection::vec(
        (0u16..4, 1u16..6, 0u64..5, 0u64..4, 0u64..3, 0u64..4).prop_map(
            |(id, beats, addr_hold, pre_data_gap, beat_gap, gap_after)| TxnPlan {
                id,
                beats,
                addr_hold,
                pre_data_gap,
                beat_gap,
                gap_after,
            },
        ),
        1..8,
    )
}

fn any_engine() -> impl Strategy<Value = CounterEngine> {
    prop_oneof![
        Just(CounterEngine::PerCycle),
        Just(CounterEngine::DeadlineWheel)
    ]
}

proptest! {
    #![proptest_config(cases(48))]

    /// Healthy traffic: both directions enqueue, advance and retire on
    /// identical cycles, with identical counters, and never fault.
    #[test]
    fn healthy_stimulus_is_direction_symmetric(
        plans in txn_plans(),
        engine in any_engine(),
        prescale_pow in 0u32..4,
    ) {
        let cfg = tiny_cfg(engine, 400, 1 << prescale_pow);
        let script = compile(&plans);
        let (w_faults, r_faults) = run_lockstep(&script, &cfg);
        prop_assert!(w_faults.is_empty(), "no false write timeouts");
        prop_assert!(r_faults.is_empty(), "no false read timeouts");
    }

    /// A total stall (address beat held forever) times out on the same
    /// cycle in both directions, for both counter engines.
    #[test]
    fn stalled_stimulus_times_out_symmetrically(
        warmup in txn_plans(),
        engine in any_engine(),
        budget in 8u64..80,
        prescale_pow in 0u32..4,
    ) {
        let cfg = tiny_cfg(engine, budget, 1 << prescale_pow);
        let mut script = compile(&warmup);
        // Offer an address beat that is never accepted, long enough to
        // blow any budget in range (prescaler overshoot included).
        let stall = Op::Addr { id: 1, beats: 2, fire: false };
        script.extend(std::iter::repeat_n(stall, (budget * 3 + 64) as usize));
        let (w_faults, r_faults) = run_lockstep(&script, &cfg);
        prop_assert!(!w_faults.is_empty(), "the stall must time out");
        prop_assert_eq!(&w_faults, &r_faults, "identical timeout cycles");
    }
}
