use super::*;

use crate::config::Reg;
use crate::log::FaultKind;
use crate::phase::{TxnPhase, WritePhase};
use axi4::prelude::*;
use tmu_telemetry::{FaultClass, RecoveryStage, TelemetryConfig, TraceEvent};

/// A perfectly behaved in-test subordinate: accepts addresses and
/// data immediately, responds after a fixed delay, optionally
/// "breaks" (stops responding entirely) at a given cycle.
#[derive(Debug, Default)]
struct TestSub {
    // (id, beats_left) of writes in data phase, in AW order.
    w_inflight: std::collections::VecDeque<(u16, u16)>,
    // write responses owed: (id, cycles until valid)
    b_queue: std::collections::VecDeque<(u16, u32)>,
    // read bursts owed: (id, beats_left, warmup)
    r_queue: std::collections::VecDeque<(u16, u16, u32)>,
    broken: bool,
}

impl TestSub {
    fn drive(&mut self, port: &mut AxiPort) {
        if self.broken {
            return; // total stall: no ready, no valid
        }
        port.aw.set_ready(true);
        port.ar.set_ready(true);
        port.w.set_ready(!self.w_inflight.is_empty());
        if let Some((id, delay)) = self.b_queue.front() {
            if *delay == 0 {
                port.b.drive(BBeat::new(AxiId(*id), Resp::Okay));
            }
        }
        if let Some((id, beats_left, warmup)) = self.r_queue.front() {
            if *warmup == 0 {
                port.r
                    .drive(RBeat::new(AxiId(*id), 7, Resp::Okay, *beats_left == 1));
            }
        }
    }

    fn commit(&mut self, port: &AxiPort) {
        if let Some(aw) = port.aw.fired_beat() {
            self.w_inflight.push_back((aw.id.0, aw.len.beats()));
        }
        if port.w.fires() {
            if let Some(front) = self.w_inflight.front_mut() {
                front.1 -= 1;
                if front.1 == 0 {
                    let (id, _) = self.w_inflight.pop_front().unwrap();
                    self.b_queue.push_back((id, 2));
                }
            }
        }
        if port.b.fires() {
            self.b_queue.pop_front();
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.r_queue.push_back((ar.id.0, ar.len.beats(), 2));
        }
        if port.r.fires() {
            if let Some(front) = self.r_queue.front_mut() {
                front.1 -= 1;
                if front.1 == 0 {
                    self.r_queue.pop_front();
                }
            }
        }
        for item in self.b_queue.iter_mut() {
            item.1 = item.1.saturating_sub(1);
        }
        if let Some(front) = self.r_queue.front_mut() {
            front.2 = front.2.saturating_sub(1);
        }
    }
}

/// A scripted manager driving one write then one read.
#[derive(Debug)]
struct TestMgr {
    write: Option<WriteTxn>,
    read: Option<ReadTxn>,
    w_sent: u16,
    aw_done: bool,
    ar_done: bool,
    b_seen: Option<Resp>,
    r_beats: u16,
    r_done: bool,
    r_error: bool,
}

impl TestMgr {
    fn new(write: Option<WriteTxn>, read: Option<ReadTxn>) -> Self {
        TestMgr {
            write,
            read,
            w_sent: 0,
            aw_done: false,
            ar_done: false,
            b_seen: None,
            r_beats: 0,
            r_done: false,
            r_error: false,
        }
    }

    fn drive(&mut self, port: &mut AxiPort) {
        if let Some(wr) = &self.write {
            if !self.aw_done {
                port.aw.drive(wr.aw_beat());
            }
            // AXI forbids cancelling an issued burst: data keeps
            // flowing even after an (abort) response arrived.
            if self.aw_done && self.w_sent < wr.beats() {
                port.w.drive(wr.w_beat(self.w_sent));
            }
        }
        if let Some(rd) = &self.read {
            if !self.ar_done {
                port.ar.drive(rd.ar_beat());
            }
        }
        port.b.set_ready(true);
        port.r.set_ready(true);
    }

    fn commit(&mut self, port: &AxiPort) {
        if port.aw.fires() {
            self.aw_done = true;
        }
        if port.w.fires() {
            self.w_sent += 1;
        }
        if let Some(b) = port.b.fired_beat() {
            self.b_seen = Some(b.resp);
        }
        if port.ar.fires() {
            self.ar_done = true;
        }
        if let Some(r) = port.r.fired_beat() {
            self.r_beats += 1;
            if r.resp.is_error() {
                self.r_error = true;
            }
            if r.last {
                self.r_done = true;
            }
        }
    }
}

fn cfg(variant: TmuVariant) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()
        .unwrap()
}

/// Runs the full pipeline for `cycles` cycles.
fn run(tmu: &mut Tmu, mgr: &mut TestMgr, sub: &mut TestSub, cycles: u64, start: u64) -> u64 {
    let mut mgr_port = AxiPort::new();
    let mut sub_port = AxiPort::new();
    for n in start..start + cycles {
        mgr_port.begin_cycle();
        sub_port.begin_cycle();
        mgr.drive(&mut mgr_port);
        tmu.forward_request(&mgr_port, &mut sub_port);
        sub.drive(&mut sub_port);
        tmu.forward_response(&sub_port, &mut mgr_port);
        mgr.commit(&mgr_port);
        sub.commit(&sub_port);
        tmu.commit_port(&mgr_port, n);
    }
    start + cycles
}

fn write_txn(id: u16, beats: u16) -> WriteTxn {
    TxnBuilder::new(AxiId(id), Addr(0x1000))
        .incr(beats)
        .write((0..beats as u64).collect())
        .unwrap()
}

fn read_txn(id: u16, beats: u16) -> ReadTxn {
    TxnBuilder::new(AxiId(id), Addr(0x2000))
        .incr(beats)
        .read()
        .unwrap()
}

#[test]
fn clean_write_and_read_complete_without_faults() {
    for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
        let mut tmu = Tmu::new(cfg(variant));
        let mut mgr = TestMgr::new(Some(write_txn(1, 4)), Some(read_txn(2, 4)));
        let mut sub = TestSub::default();
        run(&mut tmu, &mut mgr, &mut sub, 60, 0);
        assert_eq!(
            mgr.b_seen,
            Some(Resp::Okay),
            "{variant}: write must complete"
        );
        assert!(mgr.r_done, "{variant}: read must complete");
        assert!(!mgr.r_error);
        assert_eq!(tmu.faults_detected(), 0, "{variant}");
        assert!(!tmu.irq_pending());
        assert_eq!(tmu.outstanding(), 0);
        assert_eq!(tmu.perf_log().writes(), 1);
        assert_eq!(tmu.perf_log().reads(), 1);
    }
}

#[test]
fn fc_records_per_phase_latencies() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
    let mut sub = TestSub::default();
    run(&mut tmu, &mut mgr, &mut sub, 60, 0);
    let rec = tmu.perf_log().iter_recent().next().expect("one record");
    assert!(rec.is_write);
    assert_eq!(rec.beats, 4);
    let burst = rec.write_phase(WritePhase::BurstTransfer);
    assert!(burst >= 3, "4 beats need >= 4 cycles of burst, got {burst}");
    assert!(rec.total_cycles >= 6);
}

#[test]
fn broken_subordinate_triggers_timeout_irq_and_reset() {
    for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
        let mut tmu = Tmu::new(cfg(variant));
        let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
        let mut sub = TestSub {
            broken: true,
            ..TestSub::default()
        };
        let end = run(&mut tmu, &mut mgr, &mut sub, 400, 0);
        assert_eq!(tmu.faults_detected(), 1, "{variant}");
        assert!(tmu.irq_pending(), "{variant}");
        let fault = tmu.last_fault().expect("fault logged").clone();
        assert_eq!(fault.kind, FaultKind::Timeout);
        match variant {
            TmuVariant::FullCounter => {
                assert_eq!(fault.phase, Some(TxnPhase::Write(WritePhase::AwHandshake)));
            }
            TmuVariant::TinyCounter => assert_eq!(fault.phase, None),
        }
        // The manager got an SLVERR abort for its outstanding write.
        assert_eq!(mgr.b_seen, Some(Resp::SlvErr), "{variant}");
        // The reset request fired.
        assert!(tmu.take_reset_request(), "{variant}");
        assert!(!tmu.take_reset_request(), "pulse consumed");
        assert_eq!(tmu.state(), TmuState::WaitReset);
        // Recovery: reset completes, a healthy transaction succeeds.
        tmu.reset_done();
        assert_eq!(tmu.state(), TmuState::Monitoring);
        let mut mgr2 = TestMgr::new(Some(write_txn(1, 2)), None);
        let mut sub2 = TestSub::default();
        run(&mut tmu, &mut mgr2, &mut sub2, 60, end);
        assert_eq!(
            mgr2.b_seen,
            Some(Resp::Okay),
            "{variant}: post-reset traffic works"
        );
        assert_eq!(tmu.faults_detected(), 1, "{variant}: no new fault");
    }
}

#[test]
fn fc_detects_earlier_than_tc() {
    let mut latencies = Vec::new();
    for variant in [TmuVariant::FullCounter, TmuVariant::TinyCounter] {
        let mut tmu = Tmu::new(cfg(variant));
        let mut mgr = TestMgr::new(Some(write_txn(1, 64)), None);
        let mut sub = TestSub {
            broken: true,
            ..TestSub::default()
        };
        run(&mut tmu, &mut mgr, &mut sub, 1000, 0);
        latencies.push(tmu.last_fault().expect("fault").cycle);
    }
    assert!(
        latencies[0] < latencies[1],
        "Fc ({}) must detect before Tc ({})",
        latencies[0],
        latencies[1]
    );
}

#[test]
fn aborted_read_drains_remaining_beats_with_slverr() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(None, Some(read_txn(3, 4)));
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    assert!(mgr.r_error, "SLVERR beats delivered");
    assert!(mgr.r_done, "last abort beat carries RLAST");
    assert_eq!(mgr.r_beats, 4, "all four owed beats drained");
}

#[test]
fn protocol_violation_triggers_fault() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    // Hand-drive a W beat with no AW: W_NO_AW violation.
    let mut mgr_port = AxiPort::new();
    let mut sub_port = AxiPort::new();
    mgr_port.begin_cycle();
    sub_port.begin_cycle();
    mgr_port.w.drive(WBeat::new(1, true));
    tmu.forward_request(&mgr_port, &mut sub_port);
    sub_port.w.set_ready(true);
    tmu.forward_response(&sub_port, &mut mgr_port);
    tmu.commit_port(&mgr_port, 0);
    assert_eq!(tmu.faults_detected(), 1);
    assert!(matches!(
        tmu.last_fault().unwrap().kind,
        FaultKind::Protocol(_)
    ));
    assert_eq!(tmu.state(), TmuState::Aborting);
}

#[test]
fn disabled_tmu_is_transparent() {
    let mut tmu = Tmu::new(cfg(TmuVariant::TinyCounter));
    tmu.write_reg(Reg::Ctrl, 0); // disable
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    assert_eq!(tmu.faults_detected(), 0, "disabled TMU must not monitor");
    assert_eq!(mgr.b_seen, None, "stall passes through unmodified");
}

#[test]
fn saturation_backpressure_stalls_new_ids() {
    // 1 unique ID x 1 txn: the second write with a different ID must
    // wait until the first completes, then proceed.
    let cfg = TmuConfig::builder()
        .max_uniq_ids(1)
        .txn_per_id(1)
        .build()
        .unwrap();
    let mut tmu = Tmu::new(cfg);
    let mut mgr1 = TestMgr::new(Some(write_txn(1, 2)), None);
    let mut sub = TestSub::default();
    // Issue first write partially: run a couple of cycles.
    let mut mgr_port = AxiPort::new();
    let mut sub_port = AxiPort::new();
    // Drive the first write a few cycles to occupy the single slot.
    for cycle in 0..3u64 {
        mgr_port.begin_cycle();
        sub_port.begin_cycle();
        mgr1.drive(&mut mgr_port);
        tmu.forward_request(&mgr_port, &mut sub_port);
        sub.drive(&mut sub_port);
        tmu.forward_response(&sub_port, &mut mgr_port);
        mgr1.commit(&mgr_port);
        sub.commit(&sub_port);
        tmu.commit_port(&mgr_port, cycle);
    }
    assert_eq!(tmu.outstanding(), 1);
    // A new AW with a different ID would stall (slots exhausted).
    let other = write_txn(2, 1).aw_beat();
    let mut probe_port = AxiPort::new();
    probe_port.begin_cycle();
    probe_port.aw.drive(other);
    let mut probe_sub = AxiPort::new();
    probe_sub.begin_cycle();
    tmu.forward_request(&probe_port, &mut probe_sub);
    assert!(
        !probe_sub.aw.valid(),
        "stalled AW must not reach the subordinate"
    );
}

#[test]
fn err_count_register_reflects_log() {
    let mut tmu = Tmu::new(cfg(TmuVariant::TinyCounter));
    assert_eq!(tmu.read_reg(Reg::ErrCount), 0);
    let mut mgr = TestMgr::new(Some(write_txn(1, 2)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    assert!(tmu.read_reg(Reg::ErrCount) >= 1);
    assert_eq!(tmu.read_reg(Reg::FaultCount), 1);
    assert_eq!(tmu.read_reg(Reg::ResetCount), 1);
}

#[test]
fn lifecycle_trace_tells_the_recovery_story() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    tmu.enable_telemetry(TelemetryConfig::default());
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    tmu.reset_done();
    tmu.commit_port(&AxiPort::new(), 401);
    let story: Vec<TraceEvent> = tmu
        .telemetry()
        .events()
        .iter()
        .map(|r| r.event)
        .filter(|e| matches!(e, TraceEvent::Fault { .. } | TraceEvent::Recovery { .. }))
        .collect();
    assert!(
        matches!(
            story[0],
            TraceEvent::Fault {
                class: FaultClass::Timeout,
                id: 1,
                ..
            }
        ),
        "{story:?}"
    );
    let stages: Vec<RecoveryStage> = story[1..]
        .iter()
        .map(|e| match *e {
            TraceEvent::Recovery { stage } => stage,
            other => panic!("one fault, then recovery only: {other}"),
        })
        .collect();
    assert_eq!(
        stages,
        [
            RecoveryStage::Severed {
                writes: 1,
                reads: 0,
                drain: 4,
            },
            RecoveryStage::AbortsDelivered,
            RecoveryStage::ResetRequested,
            RecoveryStage::Resumed,
        ]
    );
}

#[test]
fn error_log_readable_and_poppable_via_registers() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(Some(write_txn(5, 2)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    assert!(tmu.read_reg(Reg::ErrCount) >= 1);
    let info = tmu.read_reg(Reg::ErrHeadInfo);
    assert_eq!(info >> 24, 1, "kind code: timeout");
    assert_eq!((info >> 16) & 0xFF, 1, "phase code: AW-handshake");
    assert_eq!(info & 0xFFFF, 5, "raw AXI ID");
    let cycle = tmu.read_reg(Reg::ErrHeadCycle);
    assert!(cycle > 0 && u64::from(cycle) < 400);
    // Pop drains the log.
    let before = tmu.read_reg(Reg::ErrCount);
    tmu.write_reg(Reg::ErrPop, 1);
    assert_eq!(tmu.read_reg(Reg::ErrCount), before - 1);
    // Empty log reads as zero.
    while tmu.read_reg(Reg::ErrCount) > 0 {
        tmu.write_reg(Reg::ErrPop, 1);
    }
    assert_eq!(tmu.read_reg(Reg::ErrHeadInfo), 0);
    assert_eq!(tmu.read_reg(Reg::ErrHeadCycle), 0);
}

#[test]
fn clear_irq_after_software_handling() {
    let mut tmu = Tmu::new(cfg(TmuVariant::TinyCounter));
    let mut mgr = TestMgr::new(Some(write_txn(1, 2)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    assert!(tmu.irq_pending());
    tmu.clear_irq();
    assert!(!tmu.irq_pending());
}

#[test]
fn telemetry_collects_handshakes_spans_and_samples() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    tmu.enable_telemetry(TelemetryConfig {
        sample_every: 16,
        ..TelemetryConfig::default()
    });
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), Some(read_txn(2, 4)));
    let mut sub = TestSub::default();
    run(&mut tmu, &mut mgr, &mut sub, 60, 0);
    assert!(tmu.telemetry().seq() > 0, "events were recorded");
    let kinds: Vec<&str> = tmu
        .telemetry()
        .events()
        .iter()
        .map(|r| r.event.kind())
        .collect();
    assert!(kinds.contains(&"handshake"));
    assert!(kinds.contains(&"ott-enqueue"));
    assert!(kinds.contains(&"phase-transition"));
    assert!(kinds.contains(&"ott-dequeue"));
    // One finished span per transaction, both closed cleanly.
    let spans = tmu.telemetry().spans().expect("spans enabled").spans();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|s| !s.aborted));
    assert!(tmu.chrome_trace_json().contains("\"ph\":\"X\""));
    // The periodic sampler ran and captured occupancy gauges.
    let samples = tmu.telemetry().metrics().samples();
    assert!(samples.len() >= 3, "60 cycles / 16 per sample");
    assert!(tmu
        .telemetry()
        .metrics()
        .gauges()
        .any(|(name, _)| name == "tmu.outstanding"));
}

#[test]
fn telemetry_records_recovery_stages_and_aborted_spans() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    tmu.enable_telemetry(TelemetryConfig::default());
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
    let mut sub = TestSub {
        broken: true,
        ..TestSub::default()
    };
    run(&mut tmu, &mut mgr, &mut sub, 400, 0);
    tmu.reset_done();
    tmu.commit_port(&AxiPort::new(), 401);
    let stages: Vec<String> = tmu
        .telemetry()
        .events()
        .iter()
        .filter(|r| r.event.kind() == "recovery")
        .map(|r| r.event.to_string())
        .collect();
    let story = stages.join("\n");
    assert!(story.contains("severed"), "{story}");
    assert!(story.contains("aborts-delivered"), "{story}");
    assert!(story.contains("reset-requested"), "{story}");
    assert!(story.contains("resumed"), "{story}");
    let spans = tmu.telemetry().spans().expect("spans enabled").spans();
    assert!(spans.iter().any(|s| s.aborted), "sever closes open spans");
}

#[test]
fn report_capture_reads_the_latency_histogram() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(Some(write_txn(1, 4)), None);
    let mut sub = TestSub::default();
    run(&mut tmu, &mut mgr, &mut sub, 60, 0);
    // Works even with telemetry disabled.
    let report = crate::TmuReport::capture(&tmu);
    assert_eq!(report.outstanding, 0);
    assert_eq!(tmu.perf_log().total_latency().count(), 1);
    assert!(report.p99_latency.is_some());
    assert_eq!(report.max_latency, tmu.perf_log().total_latency().max());
}

#[test]
fn guards_stay_consistent_through_traffic() {
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let mut mgr = TestMgr::new(Some(write_txn(1, 8)), Some(read_txn(2, 8)));
    let mut sub = TestSub::default();
    let mut mgr_port = AxiPort::new();
    let mut sub_port = AxiPort::new();
    for n in 0..80 {
        mgr_port.begin_cycle();
        sub_port.begin_cycle();
        mgr.drive(&mut mgr_port);
        tmu.forward_request(&mgr_port, &mut sub_port);
        sub.drive(&mut sub_port);
        tmu.forward_response(&sub_port, &mut mgr_port);
        mgr.commit(&mgr_port);
        sub.commit(&sub_port);
        tmu.commit_port(&mgr_port, n);
        tmu.write_guard().assert_consistent();
        tmu.read_guard().assert_consistent();
    }
}

/// Runs one hand-driven cycle: `mgr_wires` on the manager side,
/// `sub_wires` on the subordinate side.
fn hand_cycle(
    tmu: &mut Tmu,
    cycle: u64,
    mgr_wires: impl Fn(&mut AxiPort),
    sub_wires: impl Fn(&mut AxiPort),
) {
    let (mut mgr_port, mut sub_port) = (AxiPort::new(), AxiPort::new());
    mgr_port.begin_cycle();
    sub_port.begin_cycle();
    mgr_wires(&mut mgr_port);
    tmu.forward_request(&mgr_port, &mut sub_port);
    sub_wires(&mut sub_port);
    tmu.forward_response(&sub_port, &mut mgr_port);
    tmu.commit_port(&mgr_port, cycle);
}

#[test]
fn beat_held_when_checks_pause_is_not_compared_on_resume() {
    use crate::config::{CTRL_ENABLE, CTRL_IRQ_ENABLE, CTRL_PROT_CHECK};
    let mut tmu = Tmu::new(cfg(TmuVariant::FullCounter));
    let write = write_txn(1, 1);
    // Cycle 0: the AW waits for ready while checks are on.
    hand_cycle(&mut tmu, 0, |m| m.aw.drive(write.aw_beat()), |_| {});
    tmu.write_reg(Reg::Ctrl, CTRL_ENABLE | CTRL_IRQ_ENABLE);
    // With checks off: the AW and its one W beat fire, then the B.
    hand_cycle(
        &mut tmu,
        1,
        |m| {
            m.aw.drive(write.aw_beat());
            m.w.drive(write.w_beat(0));
        },
        |s| {
            s.aw.set_ready(true);
            s.w.set_ready(true);
        },
    );
    hand_cycle(
        &mut tmu,
        2,
        |m| m.b.set_ready(true),
        |s| s.b.drive(BBeat::new(AxiId(1), Resp::Okay)),
    );
    tmu.write_reg(Reg::Ctrl, CTRL_ENABLE | CTRL_IRQ_ENABLE | CTRL_PROT_CHECK);
    // An idle cycle after resuming: the AW held at cycle 0 is gone, but
    // checks resume from what they see now.
    hand_cycle(&mut tmu, 3, |_| {}, |_| {});
    assert_eq!(tmu.faults_detected(), 0, "{:?}", tmu.last_fault());
    assert_eq!(tmu.outstanding(), 0);
    // Checking is live again: a B with nothing outstanding is caught.
    hand_cycle(
        &mut tmu,
        4,
        |m| m.b.set_ready(true),
        |s| s.b.drive(BBeat::new(AxiId(1), Resp::Okay)),
    );
    assert_eq!(
        tmu.last_fault().map(|r| r.kind),
        Some(FaultKind::Protocol(Rule::BWithoutTxn))
    );
}
