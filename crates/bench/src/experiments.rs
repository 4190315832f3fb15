//! The computation behind every table and figure of the paper's
//! evaluation, as plain functions returning data.
//!
//! The `src/bin/*` binaries print these results; the workspace
//! integration tests assert on them. Each function documents which paper
//! artefact it regenerates.

use faults::{FaultClass, FaultPlan, Trigger};
use gf12_area::cells::EVAL_MAX_BEATS;
use gf12_area::model::tmu_area;
use soc::link::{DeadSub, GuardedLink};
use soc::manager::TrafficPattern;
use soc::memory::MemSub;
use soc::system::{System, SystemConfig, ETH_BASE};
use soc::{EthConfig, MemConfig};
use tmu::counter::PrescaledCounter;
use tmu::phase::TxnPhase;
use tmu::{BudgetConfig, TmuConfig, TmuVariant};

/// Prescaler step used by the paper's `+Pre` configurations in Fig. 7.
pub const FIG7_PRESCALE: u64 = 32;

/// One row of Fig. 7: area of the four configurations at a given
/// outstanding-transaction capacity (4 unique IDs × `txn_per_id`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Total outstanding transactions (`MaxOutstdTxns`).
    pub outstanding: usize,
    /// Tiny-Counter, no prescaler.
    pub tc_um2: f64,
    /// Full-Counter, no prescaler.
    pub fc_um2: f64,
    /// Tiny-Counter with prescaler 32 + sticky.
    pub tc_pre_um2: f64,
    /// Full-Counter with prescaler 32 + sticky.
    pub fc_pre_um2: f64,
}

fn area_cfg(variant: TmuVariant, txn_per_id: u32, step: u64) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(txn_per_id)
        .prescaler(step)
        .build()
        .expect("valid sweep configuration")
}

/// Fig. 7: area of Tc/Fc/Tc+Pre/Fc+Pre versus outstanding transactions.
/// `txn_per_ids` follows the paper: 4 unique IDs, 1–32 transactions per
/// ID (4–128 total).
#[must_use]
pub fn fig7(txn_per_ids: &[u32]) -> Vec<Fig7Row> {
    txn_per_ids
        .iter()
        .map(|&per_id| Fig7Row {
            outstanding: 4 * per_id as usize,
            tc_um2: tmu_area(
                &area_cfg(TmuVariant::TinyCounter, per_id, 1),
                EVAL_MAX_BEATS,
            )
            .total_um2(),
            fc_um2: tmu_area(
                &area_cfg(TmuVariant::FullCounter, per_id, 1),
                EVAL_MAX_BEATS,
            )
            .total_um2(),
            tc_pre_um2: tmu_area(
                &area_cfg(TmuVariant::TinyCounter, per_id, FIG7_PRESCALE),
                EVAL_MAX_BEATS,
            )
            .total_um2(),
            fc_pre_um2: tmu_area(
                &area_cfg(TmuVariant::FullCounter, per_id, FIG7_PRESCALE),
                EVAL_MAX_BEATS,
            )
            .total_um2(),
        })
        .collect()
}

/// One point of Fig. 8: prescaler step versus area and detection
/// latency (model-predicted and simulation-measured) at a fixed
/// 128-outstanding capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Prescaler step.
    pub step: u64,
    /// Modelled area in µm².
    pub area_um2: f64,
    /// Analytic worst-case detection latency (cycles).
    pub latency_model: u64,
    /// Simulated detection latency under total stall (cycles).
    pub latency_sim: u64,
}

/// The stall budget of the Fig. 8 scenario (the paper's 256-cycle
/// maximum transaction duration).
pub const FIG8_BUDGET: u64 = 256;

fn stall_budgets() -> BudgetConfig {
    BudgetConfig {
        addr_handshake: FIG8_BUDGET,
        data_entry: FIG8_BUDGET,
        first_data: FIG8_BUDGET,
        per_beat: FIG8_BUDGET,
        resp_wait: FIG8_BUDGET,
        resp_ready: FIG8_BUDGET,
        queue_wait_per_txn: 0,
        queue_wait_per_beat: 0,
        tiny_total_override: Some(FIG8_BUDGET),
    }
}

/// Simulates the total-stall scenario: a subordinate that never responds
/// ("the datapath never asserts a valid signal"). Returns the measured
/// detection latency in cycles from transaction issue.
///
/// # Panics
///
/// Panics if the stalled transaction never times out within the
/// simulation horizon — a monitor bug, not a caller error.
#[must_use]
pub fn simulate_stall_latency(variant: TmuVariant, step: u64, sticky: bool) -> u64 {
    let cfg = TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(32)
        .prescaler(step)
        .sticky(sticky)
        .budgets(stall_budgets())
        .build()
        .expect("valid stall configuration");
    let mut link = GuardedLink::new(TrafficPattern::single_write(1, 0x1000, 16), cfg, DeadSub, 7);
    let detected = link.run_until(FIG8_BUDGET * (step + 4) + 10_000, |l| {
        l.tmu.faults_detected() > 0
    });
    assert!(detected, "stall must eventually be detected");
    link.tmu
        .last_fault()
        .expect("fault recorded")
        .inflight_cycles
}

/// Fig. 8: prescaler exploration for one variant at 128 outstanding.
///
/// # Panics
///
/// Panics if a sweep point fails to detect its injected stall — a
/// monitor bug, not a caller error.
#[must_use]
pub fn fig8(variant: TmuVariant, steps: &[u64]) -> Vec<Fig8Point> {
    steps
        .iter()
        .map(|&step| {
            let sticky = step > 1;
            let cfg = TmuConfig::builder()
                .variant(variant)
                .max_uniq_ids(4)
                .txn_per_id(32)
                .prescaler(step)
                .budgets(stall_budgets())
                .build()
                .expect("valid sweep configuration");
            Fig8Point {
                step,
                area_um2: tmu_area(&cfg, EVAL_MAX_BEATS).total_um2(),
                latency_model: PrescaledCounter::detection_latency(FIG8_BUDGET, step, sticky),
                latency_sim: simulate_stall_latency(variant, step, sticky),
            }
        })
        .collect()
}

/// One row of the Fig. 9 fault-injection experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Injected fault class.
    pub class: FaultClass,
    /// Detection latency in cycles from fault activation.
    pub latency: u64,
    /// Phase the fault was localized to (Full-Counter only).
    pub phase: Option<TxnPhase>,
    /// Whether the system recovered (reset issued and traffic resumed).
    pub recovered: bool,
}

/// The burst length used by the IP-level fault-injection runs.
pub const FIG9_BEATS: u16 = 64;

fn fig9_pattern(class: FaultClass) -> TrafficPattern {
    let is_read = FaultClass::READ_CLASSES.contains(&class);
    TrafficPattern {
        write_ratio: if is_read { 0.0 } else { 1.0 },
        burst_lens: vec![FIG9_BEATS],
        ids: vec![2],
        addr_base: 0x4000,
        addr_span: 1,
        max_outstanding: 1,
        issue_gap: 8,
        total_txns: None,
        verify_data: false,
    }
}

fn fig9_trigger(class: FaultClass) -> Trigger {
    match class {
        FaultClass::MidBurstStall => Trigger::AfterWBeats(u64::from(FIG9_BEATS) / 2),
        FaultClass::RMidBurstStall => Trigger::AfterRBeats(u64::from(FIG9_BEATS) / 2),
        // Activate once steady-state traffic is flowing.
        _ => Trigger::AtCycle(50),
    }
}

/// Runs one IP-level fault injection (paper Fig. 9) and reports the
/// detection outcome.
///
/// # Panics
///
/// Panics if the scenario reports a fault without logging a fault
/// record — a monitor bug, not a caller error.
#[must_use]
pub fn fig9_single(variant: TmuVariant, class: FaultClass) -> Fig9Row {
    let cfg = TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()
        .expect("valid configuration");
    let mut link = GuardedLink::new(
        fig9_pattern(class),
        cfg,
        MemSub::new(MemConfig {
            b_latency: 2,
            r_warmup: 2,
            r_beat_gap: 0,
            max_inflight: 8,
        }),
        11,
    );
    link.inject(FaultPlan::new(class, fig9_trigger(class)));
    let detected = link.run_until(100_000, |l| l.tmu.faults_detected() > 0);
    assert!(detected, "{class}: fault must be detected");
    let latency = link.detection_latency().expect("injection recorded");
    let phase = link.tmu.last_fault().expect("fault recorded").phase;
    let completed_before = link.mgr.stats().total_completed();
    let recovered = link.run_until(50_000, |l| {
        l.tmu.faults_detected() == 1 && l.mgr.stats().total_completed() > completed_before + 3
    });
    Fig9Row {
        class,
        latency,
        phase,
        recovered,
    }
}

/// The full Fig. 9 campaign for one variant across the given classes.
#[must_use]
pub fn fig9(variant: TmuVariant, classes: &[FaultClass]) -> Vec<Fig9Row> {
    classes.iter().map(|&c| fig9_single(variant, c)).collect()
}

/// Where in the Fig. 11 Ethernet transaction the fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPosition {
    /// During the address phase (AW stage error).
    Beginning,
    /// Mid-burst (data transfer error at beat 125 of 250).
    Middle,
    /// After the data (response suppressed).
    End,
}

impl FaultPosition {
    /// All three injection points of Fig. 11.
    pub const ALL: [FaultPosition; 3] = [
        FaultPosition::Beginning,
        FaultPosition::Middle,
        FaultPosition::End,
    ];

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultPosition::Beginning => "beginning (AW stage)",
            FaultPosition::Middle => "middle (beat 125/250)",
            FaultPosition::End => "end (no B response)",
        }
    }

    fn plan(self) -> FaultPlan {
        match self {
            FaultPosition::Beginning => FaultPlan::new(FaultClass::AwReadyDrop, Trigger::Immediate),
            FaultPosition::Middle => {
                FaultPlan::new(FaultClass::MidBurstStall, Trigger::AfterWBeats(125))
            }
            FaultPosition::End => FaultPlan::new(FaultClass::BValidSuppress, Trigger::Immediate),
        }
    }
}

/// One row of Fig. 11: detection latency (cycles the transaction was in
/// flight when the fault was flagged) for a fault at `position`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Injection point.
    pub position: FaultPosition,
    /// In-flight cycles at detection.
    pub detection_inflight: u64,
    /// Phase localized (Full-Counter only).
    pub phase: Option<TxnPhase>,
    /// The Ethernet IP was reset afterwards.
    pub reset_issued: bool,
}

/// Runs the system-level Fig. 11 scenario: one 250-beat write on a
/// 64-bit bus towards the Ethernet IP, with a fault at `position`.
/// Tiny-Counter uses the paper's single 320-cycle budget; Full-Counter
/// the paper's per-phase budgets (10 for AW, 250 for W, …).
///
/// # Panics
///
/// Panics if the scenario reports a fault without logging a fault
/// record — a monitor bug, not a caller error.
#[must_use]
pub fn fig11_single(variant: TmuVariant, position: FaultPosition) -> Fig11Row {
    let budgets = match variant {
        TmuVariant::TinyCounter => BudgetConfig::fig11_tiny(),
        TmuVariant::FullCounter => BudgetConfig::fig11_full(),
    };
    let cfg = SystemConfig {
        tmu: TmuConfig::builder()
            .variant(variant)
            .max_uniq_ids(4)
            .txn_per_id(4)
            .budgets(budgets)
            .build()
            .expect("valid configuration"),
        eth: EthConfig {
            pace_on: 1,
            pace_off: 0,
            ..EthConfig::default()
        },
        cpu_pattern: TrafficPattern {
            total_txns: Some(0),
            ..TrafficPattern::default()
        },
        dma_pattern: TrafficPattern::single_write(0, ETH_BASE, 250),
        ..SystemConfig::default()
    };
    let mut system = System::new(cfg);
    system.inject(position.plan());
    let detected = system.run_until(10_000, |s| s.tmu().faults_detected() > 0);
    assert!(detected, "{}: fault must be detected", position.label());
    let fault = system.tmu().last_fault().expect("fault recorded").clone();
    let reset_issued = system.run_until(5_000, |s| s.eth_resets() > 0);
    Fig11Row {
        position,
        detection_inflight: fault.inflight_cycles,
        phase: fault.phase,
        reset_issued,
    }
}

/// The full Fig. 11 comparison: `(position, Tc row, Fc row)` triples.
#[must_use]
pub fn fig11() -> Vec<(FaultPosition, Fig11Row, Fig11Row)> {
    FaultPosition::ALL
        .into_iter()
        .map(|p| {
            (
                p,
                fig11_single(TmuVariant::TinyCounter, p),
                fig11_single(TmuVariant::FullCounter, p),
            )
        })
        .collect()
}

/// Result of the adaptive-budget ablation: false-fault counts under
/// healthy but highly bursty traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetAblation {
    /// False faults with the adaptive budgets (paper mechanism).
    pub adaptive_false_faults: u64,
    /// False faults with fixed budgets sized for 16-beat bursts.
    pub fixed_false_faults: u64,
    /// Transactions completed under the adaptive configuration.
    pub adaptive_completed: u64,
}

/// Ablation: adaptive versus fixed time budgets (paper §II-F's
/// motivation). Healthy traffic with large, chained bursts: fixed
/// budgets sized for short bursts cause false timeouts; the adaptive
/// mechanism does not.
///
/// # Panics
///
/// Panics if the adaptive-budget run drops a transaction — a
/// monitor bug, not a caller error.
#[must_use]
pub fn ablation_budgets() -> BudgetAblation {
    let bursty = TrafficPattern {
        write_ratio: 0.8,
        burst_lens: vec![64, 128, 256],
        ids: vec![0, 1],
        addr_base: 0x8000_0000,
        addr_span: 0x4000,
        max_outstanding: 4,
        issue_gap: 1,
        total_txns: Some(40),
        verify_data: false,
    };
    // A deliberately slow memory: long bursts queue behind each other.
    let slow_mem = || {
        MemSub::new(MemConfig {
            b_latency: 8,
            r_warmup: 12,
            r_beat_gap: 0,
            max_inflight: 8,
        })
    };
    let run = |budgets: BudgetConfig| {
        let cfg = TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .max_uniq_ids(4)
            .txn_per_id(4)
            .budgets(budgets)
            .build()
            .expect("valid configuration");
        let mut link = GuardedLink::new(bursty.clone(), cfg, slow_mem(), 13);
        link.run(60_000);
        (
            link.tmu.faults_detected(),
            link.mgr.stats().total_completed(),
        )
    };
    let (adaptive_false_faults, adaptive_completed) = run(BudgetConfig::default());
    let (fixed_false_faults, _) = run(BudgetConfig::fixed(16));
    BudgetAblation {
        adaptive_false_faults,
        fixed_false_faults,
        adaptive_completed,
    }
}

/// One row of the sticky-bit ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StickyRow {
    /// Prescaler step.
    pub step: u64,
    /// Simulated stall-detection latency with the sticky bit.
    pub with_sticky: u64,
    /// Simulated stall-detection latency without it.
    pub without_sticky: u64,
}

/// Ablation: the sticky bit's effect on detection latency across
/// prescaler steps (paper §II-G: the sticky bit keeps near-timeouts
/// detectable despite delayed counter updates).
#[must_use]
pub fn ablation_sticky(steps: &[u64]) -> Vec<StickyRow> {
    steps
        .iter()
        .map(|&step| StickyRow {
            step,
            with_sticky: simulate_stall_latency(TmuVariant::TinyCounter, step, true),
            without_sticky: simulate_stall_latency(TmuVariant::TinyCounter, step, false),
        })
        .collect()
}

/// Result of the ID-remapper ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapAblation {
    /// Transactions completed through 4 remapper slots with 16 distinct
    /// sparse IDs in flight.
    pub completed_with_remap: u64,
    /// False faults observed (must be zero: stalls, not errors).
    pub false_faults: u64,
    /// Modelled area of the 4-slot remapped TMU.
    pub remapped_area_um2: f64,
    /// Modelled area of a TMU sized for the full 256-value raw ID space
    /// without a remapper.
    pub direct_area_um2: f64,
}

/// Ablation: the ID remapper (paper §II-A). Sparse-ID traffic flows
/// correctly through 4 dense slots (with back-pressure stalls instead of
/// faults), and the area of a direct-mapped alternative is dramatically
/// larger.
///
/// # Panics
///
/// Panics if sparse-ID traffic fails to complete through the dense
/// remapper — a monitor bug, not a caller error.
#[must_use]
pub fn ablation_remapper() -> RemapAblation {
    let sparse = TrafficPattern {
        write_ratio: 0.6,
        burst_lens: vec![4, 8],
        // 16 distinct sparse IDs, far more than the 4 dense slots.
        ids: (0..16).map(|i| i * 17 + 3).collect(),
        addr_base: 0x8000_0000,
        addr_span: 0x4000,
        max_outstanding: 8,
        issue_gap: 1,
        total_txns: Some(60),
        verify_data: true,
    };
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()
        .expect("valid configuration");
    let mut link = GuardedLink::new(sparse, cfg.clone(), MemSub::default(), 17);
    link.run_until(100_000, |l| l.mgr.is_done());
    let completed_with_remap = link.mgr.stats().total_completed();
    let false_faults = link.tmu.faults_detected();

    let direct = TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .max_uniq_ids(256) // one slot per raw ID value
        .txn_per_id(4)
        .build()
        .expect("valid configuration");
    RemapAblation {
        completed_with_remap,
        false_faults,
        remapped_area_um2: tmu_area(&cfg, EVAL_MAX_BEATS).total_um2(),
        direct_area_um2: tmu_area(&direct, EVAL_MAX_BEATS).total_um2(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_orderings_hold() {
        let rows = fig7(&[4, 8, 16]);
        for row in &rows {
            assert!(row.fc_um2 > row.tc_um2, "Fc must exceed Tc");
            assert!(row.tc_pre_um2 < row.tc_um2, "prescaler must save Tc area");
            assert!(row.fc_pre_um2 < row.fc_um2, "prescaler must save Fc area");
        }
        for pair in rows.windows(2) {
            assert!(pair[1].tc_um2 > pair[0].tc_um2, "area grows with capacity");
        }
    }

    #[test]
    fn fig8_sim_matches_model() {
        for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
            for point in fig8(variant, &[1, 8, 32]) {
                let diff = point.latency_sim.abs_diff(point.latency_model);
                // The simulation includes the enqueue cycle and the
                // prescaler phase alignment: allow one step + 2 cycles.
                assert!(
                    diff <= point.step + 2,
                    "{variant:?} step {}: sim {} vs model {}",
                    point.step,
                    point.latency_sim,
                    point.latency_model
                );
            }
        }
    }

    #[test]
    fn fig9_all_classes_recover_deterministically_in_both_variants() {
        let classes: Vec<FaultClass> = FaultClass::WRITE_CLASSES
            .iter()
            .chain(&FaultClass::READ_CLASSES)
            .copied()
            .collect();
        for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
            let rows = fig9(variant, &classes);
            for row in &rows {
                assert!(row.recovered, "{variant:?} {}: must recover", row.class);
            }
            assert_eq!(rows, fig9(variant, &classes), "{variant:?}: reruns differ");
        }
    }

    #[test]
    fn fig11_tc_detects_at_budget_fc_earlier() {
        let rows = fig11();
        for (position, tc, fc) in &rows {
            assert!(
                tc.detection_inflight >= 320,
                "{}: Tc detects only after its 320-cycle budget, got {}",
                position.label(),
                tc.detection_inflight
            );
            assert!(
                fc.detection_inflight < tc.detection_inflight,
                "{}: Fc ({}) must beat Tc ({})",
                position.label(),
                fc.detection_inflight,
                tc.detection_inflight
            );
            assert!(tc.reset_issued && fc.reset_issued);
        }
        // The earlier the fault, the bigger Fc's advantage.
        let begin = &rows[0].2;
        let end = &rows[2].2;
        assert!(begin.detection_inflight < end.detection_inflight);
    }
}
