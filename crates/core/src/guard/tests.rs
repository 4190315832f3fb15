//! Direct unit tests of the Write/Read Guard state machines: phase
//! transitions, EI routing, adaptive budgets and timeout flagging,
//! exercised wire-by-wire without the full TMU wrapper.

use axi4::prelude::*;

use super::{Direction, GuardCore, ReadGuard, WriteGuard};
use crate::budget::{BudgetConfig, QueueLoad};
use crate::config::{CounterEngine, TmuConfig, TmuVariant};
use crate::log::PerfLog;
use crate::phase::{ReadPhase, WritePhase};
use tmu_telemetry::TelemetryHub;

fn cfg(variant: TmuVariant) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()
        .expect("valid")
}

fn aw(id: u16, beats: u16) -> AwBeat {
    AwBeat::new(
        AxiId(id),
        Addr(0x100),
        BurstLen::from_beats(beats).unwrap(),
        BurstSize::from_bytes(8).unwrap(),
        BurstKind::Incr,
    )
}

fn ar(id: u16, beats: u16) -> ArBeat {
    ArBeat::new(
        AxiId(id),
        Addr(0x200),
        BurstLen::from_beats(beats).unwrap(),
        BurstSize::from_bytes(8).unwrap(),
        BurstKind::Incr,
    )
}

/// One cycle against a write guard: set up the port, let the guard
/// decide stalls, commit from the port.
fn wg_cycle(
    guard: &mut WriteGuard,
    cycle: u64,
    perf: &mut PerfLog,
    setup: impl FnOnce(&mut AxiPort),
) -> Vec<super::GuardFault> {
    let mut port = AxiPort::new();
    port.begin_cycle();
    setup(&mut port);
    guard.decide_stall(port.aw.beat());
    let mut faults = Vec::new();
    guard.commit(
        &port,
        cycle,
        perf,
        &mut TelemetryHub::default(),
        &mut faults,
    );
    faults
}

fn rg_cycle(
    guard: &mut ReadGuard,
    cycle: u64,
    perf: &mut PerfLog,
    setup: impl FnOnce(&mut AxiPort),
) -> Vec<super::GuardFault> {
    let mut port = AxiPort::new();
    port.begin_cycle();
    setup(&mut port);
    guard.decide_stall(port.ar.beat());
    let mut faults = Vec::new();
    guard.commit(
        &port,
        cycle,
        perf,
        &mut TelemetryHub::default(),
        &mut faults,
    );
    faults
}

#[test]
fn write_walks_all_six_phases() {
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    let id = AxiId(1);
    let mut cycle = 0;
    let mut step =
        |guard: &mut WriteGuard, perf: &mut PerfLog, f: Box<dyn FnOnce(&mut AxiPort)>| {
            let faults = wg_cycle(guard, cycle, perf, f);
            cycle += 1;
            faults
        };

    // aw_valid without ready: AwHandshake.
    step(
        &mut guard,
        &mut perf,
        Box::new(move |p| p.aw.drive(aw(1, 2))),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::AwHandshake));
    // aw fires: DataEntry.
    step(
        &mut guard,
        &mut perf,
        Box::new(move |p| {
            p.aw.drive(aw(1, 2));
            p.aw.set_ready(true);
        }),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::DataEntry));
    // w_valid without ready: FirstData.
    step(
        &mut guard,
        &mut perf,
        Box::new(|p| p.w.drive(WBeat::new(0, false))),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::FirstData));
    // first beat fires: BurstTransfer.
    step(
        &mut guard,
        &mut perf,
        Box::new(|p| {
            p.w.drive(WBeat::new(0, false));
            p.w.set_ready(true);
        }),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::BurstTransfer));
    // last beat fires: RespWait.
    step(
        &mut guard,
        &mut perf,
        Box::new(|p| {
            p.w.drive(WBeat::new(1, true));
            p.w.set_ready(true);
        }),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::RespWait));
    // b_valid without ready: RespReady.
    step(
        &mut guard,
        &mut perf,
        Box::new(move |p| p.b.drive(BBeat::new(id, Resp::Okay))),
    );
    assert_eq!(guard.head_phase(id), Some(WritePhase::RespReady));
    // b fires: retired, perf recorded.
    step(
        &mut guard,
        &mut perf,
        Box::new(move |p| {
            p.b.drive(BBeat::new(id, Resp::Okay));
            p.b.set_ready(true);
        }),
    );
    assert_eq!(guard.head_phase(id), None);
    assert_eq!(guard.outstanding(), 0);
    assert_eq!(perf.writes(), 1);
    let rec = perf.iter_recent().next().expect("recorded");
    assert_eq!(rec.beats, 2);
    // Every monitored phase spent at least one cycle.
    for phase in WritePhase::ALL {
        assert!(rec.write_phase(phase) >= 1, "{phase} latency");
    }
    guard.assert_consistent();
}

#[test]
fn read_walks_all_four_phases() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    let id = AxiId(2);

    rg_cycle(&mut guard, 0, &mut perf, |p| p.ar.drive(ar(2, 2)));
    assert_eq!(guard.head_phase(id), Some(ReadPhase::ArHandshake));
    rg_cycle(&mut guard, 1, &mut perf, |p| {
        p.ar.drive(ar(2, 2));
        p.ar.set_ready(true);
    });
    assert_eq!(guard.head_phase(id), Some(ReadPhase::DataWait));
    // Non-final beat offered: BurstTransfer.
    rg_cycle(&mut guard, 2, &mut perf, move |p| {
        p.r.drive(RBeat::new(id, 0, Resp::Okay, false));
        p.r.set_ready(true);
    });
    assert_eq!(guard.head_phase(id), Some(ReadPhase::BurstTransfer));
    // Final beat offered but stalled: LastReady.
    rg_cycle(&mut guard, 3, &mut perf, move |p| {
        p.r.drive(RBeat::new(id, 0, Resp::Okay, true));
    });
    assert_eq!(guard.head_phase(id), Some(ReadPhase::LastReady));
    // Final beat fires: retired.
    rg_cycle(&mut guard, 4, &mut perf, move |p| {
        p.r.drive(RBeat::new(id, 0, Resp::Okay, true));
        p.r.set_ready(true);
    });
    assert_eq!(guard.head_phase(id), None);
    assert_eq!(perf.reads(), 1);
    guard.assert_consistent();
}

#[test]
fn ei_routes_w_beats_to_oldest_write() {
    // Two writes on different IDs: W beats must advance the first-issued
    // transaction, not the second.
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    wg_cycle(&mut guard, 0, &mut perf, |p| {
        p.aw.drive(aw(1, 2));
        p.aw.set_ready(true);
    });
    wg_cycle(&mut guard, 1, &mut perf, |p| {
        p.aw.drive(aw(2, 2));
        p.aw.set_ready(true);
    });
    assert_eq!(guard.outstanding(), 2);
    // A W beat: belongs to id 1 (EI order), id 2 stays in DataEntry.
    wg_cycle(&mut guard, 2, &mut perf, |p| {
        p.w.drive(WBeat::new(0, false));
        p.w.set_ready(true);
    });
    assert_eq!(guard.head_phase(AxiId(1)), Some(WritePhase::BurstTransfer));
    assert_eq!(guard.head_phase(AxiId(2)), Some(WritePhase::DataEntry));
    guard.assert_consistent();
}

#[test]
fn tiny_counter_times_out_at_total_budget() {
    let budgets = BudgetConfig {
        tiny_total_override: Some(10),
        ..BudgetConfig::default()
    };
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .budgets(budgets)
        .build()
        .expect("valid");
    let mut guard = WriteGuard::new(&cfg);
    let mut perf = PerfLog::new();
    // AW held forever: the single counter covers the whole transaction.
    let mut fault_at = None;
    for cycle in 0..40 {
        let faults = wg_cycle(&mut guard, cycle, &mut perf, |p| p.aw.drive(aw(1, 4)));
        if !faults.is_empty() {
            assert!(faults[0].phase.is_none(), "Tc has no phase localization");
            fault_at = Some(cycle);
            break;
        }
    }
    // Budget 10, detection at budget + 1.
    assert_eq!(fault_at, Some(11));
}

#[test]
fn full_counter_rearms_budget_per_phase() {
    // Phase budgets of 5: each phase gets its own deadline, so a
    // transaction can spend 4 cycles per phase indefinitely without
    // tripping, but 6 cycles in one phase trips.
    let budgets = BudgetConfig {
        addr_handshake: 5,
        data_entry: 5,
        first_data: 5,
        per_beat: 5,
        resp_wait: 5,
        resp_ready: 5,
        queue_wait_per_txn: 0,
        queue_wait_per_beat: 0,
        tiny_total_override: None,
    };
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .budgets(budgets)
        .build()
        .expect("valid");
    let mut guard = WriteGuard::new(&cfg);
    let mut perf = PerfLog::new();
    let mut cycle = 0;
    // 4 cycles held in AwHandshake: no fault.
    for _ in 0..4 {
        let faults = wg_cycle(&mut guard, cycle, &mut perf, |p| p.aw.drive(aw(1, 1)));
        assert!(faults.is_empty(), "cycle {cycle}: within AW budget");
        cycle += 1;
    }
    // Fire AW: DataEntry phase starts with a fresh 5-cycle budget.
    wg_cycle(&mut guard, cycle, &mut perf, |p| {
        p.aw.drive(aw(1, 1));
        p.aw.set_ready(true);
    });
    cycle += 1;
    // Hold in DataEntry past its budget: fault localized to DataEntry.
    let mut tripped = None;
    for _ in 0..10 {
        let faults = wg_cycle(&mut guard, cycle, &mut perf, |_| {});
        if let Some(fault) = faults.first() {
            assert_eq!(fault.phase, Some(WritePhase::DataEntry.into()));
            tripped = Some(cycle);
            break;
        }
        cycle += 1;
    }
    assert!(tripped.is_some(), "DataEntry budget must trip");
}

#[test]
fn stalled_aw_is_not_tracked() {
    // 1x1 capacity: a second, different-ID AW must not allocate.
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .max_uniq_ids(1)
        .txn_per_id(1)
        .build()
        .expect("valid");
    let mut guard = WriteGuard::new(&cfg);
    let mut perf = PerfLog::new();
    wg_cycle(&mut guard, 0, &mut perf, |p| {
        p.aw.drive(aw(1, 1));
        p.aw.set_ready(true);
    });
    assert_eq!(guard.outstanding(), 1);
    // Different ID while saturated: stall decision prevents tracking.
    wg_cycle(&mut guard, 1, &mut perf, |p| p.aw.drive(aw(2, 1)));
    assert_eq!(guard.outstanding(), 1, "stalled AW not enqueued");
    guard.assert_consistent();
}

#[test]
fn same_id_writes_complete_in_order() {
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    for cycle in 0..2 {
        wg_cycle(&mut guard, cycle, &mut perf, |p| {
            p.aw.drive(aw(7, 1));
            p.aw.set_ready(true);
        });
    }
    // Both data beats flow (EI order).
    for cycle in 2..4 {
        wg_cycle(&mut guard, cycle, &mut perf, |p| {
            p.w.drive(WBeat::new(0, true));
            p.w.set_ready(true);
        });
    }
    // Two B responses retire both, FIFO per ID.
    for cycle in 4..6 {
        wg_cycle(&mut guard, cycle, &mut perf, |p| {
            p.b.drive(BBeat::new(AxiId(7), Resp::Okay));
            p.b.set_ready(true);
        });
    }
    assert_eq!(guard.outstanding(), 0);
    assert_eq!(perf.writes(), 2);
    let totals: Vec<u64> = perf.iter_recent().map(|r| r.total_cycles).collect();
    assert!(
        totals[0] >= totals[1],
        "older transaction lived longer: {totals:?}"
    );
    guard.assert_consistent();
}

#[test]
fn adaptive_budget_grows_with_ott_load() {
    // Enqueue a big write first; a second write's DataEntry budget must
    // absorb the first one's beats (no false timeout while waiting).
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    wg_cycle(&mut guard, 0, &mut perf, |p| {
        p.aw.drive(aw(1, 64));
        p.aw.set_ready(true);
    });
    wg_cycle(&mut guard, 1, &mut perf, |p| {
        p.aw.drive(aw(2, 1));
        p.aw.set_ready(true);
    });
    // Drain the first write's 64 beats at one per cycle; the second
    // write waits in DataEntry the whole time. Default budgets:
    // data_entry 16 + queue (8/txn + 4/beat * 64) >> 64 cycles.
    for (cycle, beat) in (2..).zip(0..64u64) {
        let faults = wg_cycle(&mut guard, cycle, &mut perf, |p| {
            p.w.drive(WBeat::new(beat, beat == 63));
            p.w.set_ready(true);
        });
        assert!(
            faults.is_empty(),
            "cycle {cycle}: adaptive budget must hold"
        );
    }
    assert_eq!(guard.head_phase(AxiId(2)), Some(WritePhase::DataEntry));
    guard.assert_consistent();
}

#[test]
fn drain_set_accounts_residual_beats() {
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    // One write mid-burst (2 of 4 beats done), one not yet fired.
    wg_cycle(&mut guard, 0, &mut perf, |p| {
        p.aw.drive(aw(1, 4));
        p.aw.set_ready(true);
    });
    for cycle in 1..3 {
        wg_cycle(&mut guard, cycle, &mut perf, |p| {
            p.w.drive(WBeat::new(0, false));
            p.w.set_ready(true);
        });
    }
    // A second AW held (valid, no ready).
    wg_cycle(&mut guard, 3, &mut perf, |p| p.aw.drive(aw(2, 8)));
    let set = guard.drain_for_abort();
    assert_eq!(set.responses.len(), 2, "both owe a B");
    assert_eq!(set.drain_w_beats, 2 + 8, "residual beats of both writes");
    assert!(set.accept_pending_addr, "held AW must be accepted");
    assert_eq!(guard.outstanding(), 0, "cleared after drain");
}

#[test]
fn read_guard_drain_counts_remaining_beats() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    rg_cycle(&mut guard, 0, &mut perf, |p| {
        p.ar.drive(ar(1, 4));
        p.ar.set_ready(true);
    });
    // One beat delivered.
    rg_cycle(&mut guard, 1, &mut perf, |p| {
        p.r.drive(RBeat::new(AxiId(1), 0, Resp::Okay, false));
        p.r.set_ready(true);
    });
    let set = guard.drain_for_abort();
    assert_eq!(set.responses.len(), 1);
    assert_eq!(
        set.responses[0].beats_remaining, 3,
        "4 beats minus 1 delivered"
    );
    assert_eq!(set.drain_w_beats, 0, "reads owe no W drain");
}

/// One cycle of either guard on the wires `setup` drives.
fn engine_cycle<D: Direction>(
    guard: &mut GuardCore<D>,
    cycle: u64,
    perf: &mut PerfLog,
    setup: impl FnOnce(&mut AxiPort),
) -> Vec<super::GuardFault> {
    let mut port = AxiPort::new();
    port.begin_cycle();
    setup(&mut port);
    guard.decide_stall(D::addr(&port).beat());
    let mut faults = Vec::new();
    guard.commit(
        &port,
        cycle,
        perf,
        &mut TelemetryHub::default(),
        &mut faults,
    );
    faults
}

/// The queue load as a scan of every LD row's remaining beats: the
/// reference the running `beats_owed` count must reproduce.
fn scanned_load<D: Direction>(guard: &GuardCore<D>) -> QueueLoad {
    QueueLoad {
        txns_ahead: guard.ott.len(),
        beats_ahead: guard.scan_beats_owed(),
    }
}

/// One guard cycle that also checks the adaptive-budget input: a
/// transaction allocated this cycle must carry the budgets of the load
/// the scan saw before the cycle, and afterwards the running count must
/// still equal the scan.
fn checked_cycle<D: Direction>(
    guard: &mut GuardCore<D>,
    cycle: u64,
    perf: &mut PerfLog,
    setup: impl FnOnce(&mut AxiPort),
) {
    let before = scanned_load(guard);
    assert_eq!(guard.queue_load(), before, "cycle {cycle}: load before");
    engine_cycle(guard, cycle, perf, setup);
    for (_, e) in guard.ott.iter() {
        if e.tracker.enqueued_at == cycle {
            let beats = e.tracker.req.burst_len().beats();
            assert_eq!(
                e.tracker.budgets,
                D::budgets(&BudgetConfig::default(), beats, before),
                "cycle {cycle}: budgets must come from the scanned load"
            );
        }
    }
    assert_eq!(guard.queue_load(), scanned_load(guard), "cycle {cycle}");
}

fn load(txns_ahead: usize, beats_ahead: u64) -> QueueLoad {
    QueueLoad {
        txns_ahead,
        beats_ahead,
    }
}

#[test]
fn early_rlast_takes_unsent_beats_out_of_the_load() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    checked_cycle(&mut guard, 0, &mut perf, |p| {
        p.ar.drive(ar(1, 8));
        p.ar.set_ready(true);
    });
    checked_cycle(&mut guard, 1, &mut perf, |p| {
        p.ar.drive(ar(2, 4));
        p.ar.set_ready(true);
    });
    assert_eq!(guard.queue_load(), load(2, 12));
    for cycle in 2..4 {
        checked_cycle(&mut guard, cycle, &mut perf, |p| {
            p.r.drive(RBeat::new(AxiId(1), 0, Resp::Okay, false));
            p.r.set_ready(true);
        });
    }
    assert_eq!(guard.queue_load(), load(2, 10));
    // RLAST on the third of eight beats retires the read: its five
    // unsent beats leave the count with it.
    checked_cycle(&mut guard, 4, &mut perf, |p| {
        p.r.drive(RBeat::new(AxiId(1), 0, Resp::Okay, true));
        p.r.set_ready(true);
    });
    assert_eq!(perf.reads(), 1);
    assert_eq!(guard.queue_load(), load(1, 4));
    // The next arrival is budgeted against the surviving read only.
    checked_cycle(&mut guard, 5, &mut perf, |p| {
        p.ar.drive(ar(3, 2));
        p.ar.set_ready(true);
    });
    assert_eq!(guard.queue_load(), load(2, 6));
}

#[test]
fn severed_write_resets_the_load() {
    let mut guard = WriteGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    checked_cycle(&mut guard, 0, &mut perf, |p| {
        p.aw.drive(aw(1, 4));
        p.aw.set_ready(true);
    });
    for cycle in 1..3 {
        checked_cycle(&mut guard, cycle, &mut perf, |p| {
            p.w.drive(WBeat::new(0, false));
            p.w.set_ready(true);
        });
    }
    // A second AW held (valid, no ready) while the first is mid-burst.
    checked_cycle(&mut guard, 3, &mut perf, |p| p.aw.drive(aw(2, 8)));
    assert_eq!(guard.queue_load(), load(2, 2 + 8));
    let set = guard.drain_for_abort();
    assert_eq!(set.drain_w_beats, 2 + 8);
    assert_eq!(guard.queue_load(), QueueLoad::empty());
    // After the sever a fresh write is budgeted against an empty OTT.
    checked_cycle(&mut guard, 4, &mut perf, |p| {
        p.aw.drive(aw(3, 2));
        p.aw.set_ready(true);
    });
    assert_eq!(guard.queue_load(), load(1, 2));
    guard.clear();
    assert_eq!(guard.queue_load(), QueueLoad::empty());
    guard.assert_consistent();
}

#[test]
fn load_count_matches_scan_for_both_variants() {
    for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
        // Back-to-back bursts: a new AW and AR every cycle while earlier
        // bursts stream their data, and the writes then collect their
        // B responses.
        let mut wg = WriteGuard::new(&cfg(variant));
        let mut rg = ReadGuard::new(&cfg(variant));
        let mut perf = PerfLog::new();
        for cycle in 0..4u64 {
            checked_cycle(&mut wg, cycle, &mut perf, |p| {
                p.aw.drive(aw(cycle as u16, 2));
                p.aw.set_ready(true);
                if cycle > 0 {
                    p.w.drive(WBeat::new(cycle, cycle % 2 == 0));
                    p.w.set_ready(true);
                }
            });
            checked_cycle(&mut rg, cycle, &mut perf, |p| {
                p.ar.drive(ar(cycle as u16, 3));
                p.ar.set_ready(true);
                if cycle > 0 {
                    p.r.drive(RBeat::new(AxiId(0), cycle, Resp::Okay, cycle == 3));
                    p.r.set_ready(true);
                }
            });
        }
        assert_eq!(wg.queue_load(), load(4, 8 - 3), "{variant:?}");
        assert_eq!(rg.queue_load(), load(3, 9), "{variant:?}");
        for cycle in 4..9u64 {
            checked_cycle(&mut wg, cycle, &mut perf, |p| {
                p.w.drive(WBeat::new(cycle, cycle % 2 == 0));
                p.w.set_ready(true);
                p.b.drive(BBeat::new(AxiId((cycle - 4) as u16), Resp::Okay));
                p.b.set_ready(true);
            });
        }
        // ID 3's B came a cycle before its data finished: it still
        // waits for a response but owes no beats.
        assert_eq!(wg.queue_load(), load(1, 0), "{variant:?}");
        checked_cycle(&mut wg, 9, &mut perf, |p| {
            p.b.drive(BBeat::new(AxiId(3), Resp::Okay));
            p.b.set_ready(true);
        });
        assert_eq!(wg.queue_load(), QueueLoad::empty(), "{variant:?}");
    }
}

/// Opens one transaction with `open` at cycle 0, then leaves every wire
/// idle, so the wheel engine's commits are gated until the deadline is
/// due. The timeout must land on the per-cycle engine's cycle with the
/// same record, and the materialized counters must match after every
/// gated commit.
fn quiet_expiry_matches_per_cycle<D: Direction>(open: impl Fn(&mut AxiPort)) {
    for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
        for step in [1, 8] {
            let build = |engine| {
                let cfg = TmuConfig::builder()
                    .variant(variant)
                    .prescaler(step)
                    .engine(engine)
                    .build()
                    .expect("valid");
                GuardCore::<D>::new(&cfg)
            };
            let mut reference = build(CounterEngine::PerCycle);
            let mut wheel = build(CounterEngine::DeadlineWheel);
            let mut perf = PerfLog::new();
            let mut first_fault = None;
            for cycle in 0..2_000 {
                let faults = if cycle == 0 {
                    engine_cycle(&mut reference, cycle, &mut perf, &open);
                    engine_cycle(&mut wheel, cycle, &mut perf, &open)
                } else {
                    let expected = engine_cycle(&mut reference, cycle, &mut perf, |_| {});
                    let got = engine_cycle(&mut wheel, cycle, &mut perf, |_| {});
                    assert_eq!(got, expected, "{variant:?} step {step} cycle {cycle}");
                    got
                };
                assert_eq!(
                    wheel.debug_entries(),
                    reference.debug_entries(),
                    "{variant:?} step {step} cycle {cycle}: counters"
                );
                if let Some(fault) = faults.first() {
                    first_fault = Some(cycle);
                    assert_eq!(fault.kind, crate::log::FaultKind::Timeout);
                    break;
                }
            }
            assert!(
                first_fault.is_some(),
                "{variant:?} step {step}: the idle transaction must time out"
            );
        }
    }
}

#[test]
fn quiet_write_expires_on_the_per_cycle_engines_cycle() {
    // AW accepted, then no W, no B: the deadline falls due on a cycle
    // with no wire activity.
    quiet_expiry_matches_per_cycle::<super::WriteDir>(|p| {
        p.aw.drive(aw(3, 4));
        p.aw.set_ready(true);
    });
}

#[test]
fn quiet_read_expires_on_the_per_cycle_engines_cycle() {
    quiet_expiry_matches_per_cycle::<super::ReadDir>(|p| {
        p.ar.drive(ar(5, 2));
        p.ar.set_ready(true);
    });
}

/// One read-guard cycle that also collects the context-rule violations
/// it found and checks the memoized response route against a fresh
/// remapper and head lookup (`assert_consistent`, in every profile).
fn memo_cycle(
    guard: &mut ReadGuard,
    cycle: u64,
    perf: &mut PerfLog,
    setup: impl FnOnce(&mut AxiPort),
) -> Vec<axi4::checker::Rule> {
    rg_cycle(guard, cycle, perf, setup);
    guard.assert_consistent();
    let mut violations = Vec::new();
    guard.take_violations(&mut violations);
    violations.into_iter().map(|v| v.rule).collect()
}

fn r_beat(id: u16, last: bool) -> impl FnOnce(&mut AxiPort) {
    move |p| {
        p.r.drive(RBeat::new(AxiId(id), 0, Resp::Okay, last));
        p.r.set_ready(true);
    }
}

fn fired_ar(id: u16, beats: u16) -> impl FnOnce(&mut AxiPort) {
    move |p| {
        p.ar.drive(ar(id, beats));
        p.ar.set_ready(true);
    }
}

#[test]
fn memoized_route_follows_same_id_reads_across_a_retirement() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    let id = AxiId(1);
    memo_cycle(&mut guard, 0, &mut perf, fired_ar(1, 2));
    memo_cycle(&mut guard, 1, &mut perf, fired_ar(1, 2));
    // The first read's beats, then the second's with no gap: the beat
    // after the retirement belongs to the new FIFO head.
    let beats = [(2, false), (3, true), (4, false), (5, true)];
    for (cycle, last) in beats {
        let rules = memo_cycle(&mut guard, cycle, &mut perf, r_beat(1, last));
        assert_eq!(rules, [], "cycle {cycle}");
        let expected = match cycle {
            2 => Some(ReadPhase::BurstTransfer),
            3 => Some(ReadPhase::DataWait),
            4 => Some(ReadPhase::BurstTransfer),
            _ => None,
        };
        assert_eq!(guard.head_phase(id), expected, "cycle {cycle}");
    }
    assert_eq!(perf.reads(), 2);
    assert!(perf.iter_recent().all(|r| r.beats == 2));
    assert_eq!(guard.outstanding(), 0);
}

#[test]
fn memoized_route_forgets_an_id_whose_slot_is_reacquired() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    // ID 1 takes unique-ID slot 0 and LD row 0, then retires, releasing
    // both; ID 2 then takes the same slot and row.
    memo_cycle(&mut guard, 0, &mut perf, fired_ar(1, 1));
    assert_eq!(memo_cycle(&mut guard, 1, &mut perf, r_beat(1, true)), []);
    memo_cycle(&mut guard, 2, &mut perf, fired_ar(2, 2));
    // A stray beat of ID 1 must not reach ID 2's read.
    assert_eq!(
        memo_cycle(&mut guard, 3, &mut perf, r_beat(1, false)),
        [Rule::RWithoutTxn]
    );
    let entries = guard.debug_entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        (entries[0].0, entries[0].1),
        (AxiId(2), ReadPhase::DataWait)
    );
    assert_eq!(memo_cycle(&mut guard, 4, &mut perf, r_beat(2, false)), []);
    assert_eq!(memo_cycle(&mut guard, 5, &mut perf, r_beat(2, true)), []);
    assert_eq!(perf.reads(), 2);
    assert_eq!(guard.outstanding(), 0);
}

#[test]
fn sever_mid_burst_clears_the_memoized_route() {
    let mut guard = ReadGuard::new(&cfg(TmuVariant::FullCounter));
    let mut perf = PerfLog::new();
    memo_cycle(&mut guard, 0, &mut perf, fired_ar(1, 4));
    memo_cycle(&mut guard, 1, &mut perf, r_beat(1, false));
    memo_cycle(&mut guard, 2, &mut perf, r_beat(1, false));
    // The TMU severs the link in the middle of the burst.
    let set = guard.drain_for_abort();
    assert_eq!(set.responses[0].beats_remaining, 2);
    guard.assert_consistent();
    // A new read of another ID reuses slot 0 and LD row 0; the rest of
    // the aborted burst must not be counted against it.
    memo_cycle(&mut guard, 3, &mut perf, fired_ar(3, 2));
    assert_eq!(
        memo_cycle(&mut guard, 4, &mut perf, r_beat(1, false)),
        [Rule::RWithoutTxn]
    );
    let entries = guard.debug_entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        (entries[0].0, entries[0].1),
        (AxiId(3), ReadPhase::DataWait)
    );
    assert_eq!(memo_cycle(&mut guard, 5, &mut perf, r_beat(3, false)), []);
    assert_eq!(memo_cycle(&mut guard, 6, &mut perf, r_beat(3, true)), []);
    assert_eq!(perf.reads(), 1, "only the new read completed");
}
