//! A single guarded manager↔subordinate link — the IP-level evaluation
//! harness (paper Fig. 9).
//!
//! [`GuardedLink`] wires one manager — a [`TrafficGen`] by default, or
//! any other [`AxiManager`] such as the
//! [`DmaEngine`](crate::dma::DmaEngine) — straight to one
//! subordinate through a [`Tmu`], with a fault [`Injector`] spliced onto
//! the wires and a reset controller closing the recovery loop. This is
//! the setup of the paper's IP-level fault-injection experiments; the
//! full Fig. 10 topology lives in [`crate::system`].

use axi4::channel::AxiPort;
use faults::{FaultPlan, Injector};
use sim::Reset;
use tmu::{Tmu, TmuConfig};
use tmu_telemetry::{MetricsHub, TelemetryConfig};

use crate::manager::{TrafficGen, TrafficPattern};
use crate::probe::WaveProbe;
use crate::stage::commit_guarded;

/// Behaviour every AXI manager model exposes to a harness: the
/// manager-side twin of [`AxiSubordinate`].
pub trait AxiManager {
    /// Drive pass: manager-side wires for `cycle`.
    fn drive(&mut self, port: &mut AxiPort, cycle: u64);
    /// Commit pass: absorb fired handshakes.
    fn commit(&mut self, port: &AxiPort, cycle: u64);
    /// Publishes the manager's progress gauges into a periodic
    /// telemetry sample.
    fn publish_metrics(&self, metrics: &mut MetricsHub);
}

// `GuardedLink`'s passes are generic over the manager, so they are
// compiled in the crate that names it; without LTO the per-cycle
// forwards reach that busy loop only when `#[inline]`, and the lint
// keeps them so.
#[warn(clippy::missing_inline_in_public_items)]
impl AxiManager for TrafficGen {
    #[inline]
    fn drive(&mut self, port: &mut AxiPort, cycle: u64) {
        TrafficGen::drive(self, port, cycle);
    }

    #[inline]
    fn commit(&mut self, port: &AxiPort, cycle: u64) {
        TrafficGen::commit(self, port, cycle);
    }

    /// The `link.mgr.*` gauges.
    #[allow(clippy::missing_inline_in_public_items)] // once per telemetry sample
    fn publish_metrics(&self, metrics: &mut MetricsHub) {
        let stats = self.stats();
        let errored = stats.writes_errored + stats.reads_errored;
        metrics.gauge_set("link.mgr.txns_completed", stats.total_completed());
        metrics.gauge_set("link.mgr.txns_errored", errored);
        metrics.gauge_set("link.mgr.w_beats", stats.w_beats);
        metrics.gauge_set("link.mgr.r_beats", stats.r_beats);
    }
}

/// Behaviour every AXI subordinate model exposes to a harness.
pub trait AxiSubordinate {
    /// Drive pass: subordinate-side wires for this cycle.
    fn drive(&mut self, port: &mut AxiPort);
    /// Commit pass: absorb fired handshakes.
    fn commit(&mut self, port: &AxiPort);
    /// Hardware reset input.
    fn reset(&mut self);
}

/// A subordinate that never responds — not even with `ready` — modelling
/// the total-stall scenario of the paper's Fig. 8 ("the datapath never
/// asserts a valid signal").
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadSub;

impl AxiSubordinate for DeadSub {
    fn drive(&mut self, _port: &mut AxiPort) {}

    fn commit(&mut self, _port: &AxiPort) {}

    fn reset(&mut self) {}
}

/// A subordinate that accepts every request handshake (AW/W/AR `ready`
/// high) but never produces a B or R response: transactions sail through
/// their address and data phases and then pile up awaiting responses
/// until the OTT saturates. This is the worst case for a per-cycle
/// counter engine — the maximum number of live counters, all ticking —
/// and the benchmark scenario for the deadline-wheel fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlackHoleSub;

impl AxiSubordinate for BlackHoleSub {
    fn drive(&mut self, port: &mut AxiPort) {
        port.aw.set_ready(true);
        port.w.set_ready(true);
        port.ar.set_ready(true);
    }

    fn commit(&mut self, _port: &AxiPort) {}

    fn reset(&mut self) {}
}

/// One guarded link. See the [module docs](self).
///
/// # Example
///
/// ```
/// use soc::link::GuardedLink;
/// use soc::manager::TrafficPattern;
/// use soc::memory::MemSub;
/// use tmu::TmuConfig;
///
/// let mut link = GuardedLink::new(
///     TrafficPattern::single_write(1, 0x1000, 16),
///     TmuConfig::default(),
///     MemSub::default(),
///     42,
/// );
/// assert!(link.run_until(1000, |l| l.mgr.is_done()));
/// assert_eq!(link.tmu.faults_detected(), 0);
/// ```
#[derive(Debug)]
pub struct GuardedLink<S, M = TrafficGen> {
    /// The manager.
    pub mgr: M,
    /// The monitor under test.
    pub tmu: Tmu,
    /// The guarded subordinate.
    pub sub: S,
    /// The wire-level fault injector.
    pub injector: Injector,
    reset: Reset,
    mgr_port: AxiPort,
    sub_port: AxiPort,
    /// Committed state: the link's cycle counter.
    cycle: u64,
    irq_first_at: Option<u64>,
    probe: Option<WaveProbe>,
}

impl<S: AxiSubordinate> GuardedLink<S> {
    /// Assembles a link: `pattern`-driven manager, a TMU built from
    /// `cfg`, and `sub` as the endpoint.
    #[must_use]
    pub fn new(pattern: TrafficPattern, cfg: TmuConfig, sub: S, seed: u64) -> Self {
        GuardedLink::with_manager(TrafficGen::new(pattern, seed), cfg, sub)
    }
}

impl<S: AxiSubordinate, M: AxiManager> GuardedLink<S, M> {
    /// Assembles a link: `mgr` as the manager, a TMU built from `cfg`,
    /// and `sub` as the endpoint.
    #[must_use]
    pub fn with_manager(mgr: M, cfg: TmuConfig, sub: S) -> Self {
        GuardedLink {
            mgr,
            tmu: Tmu::new(cfg),
            sub,
            injector: Injector::idle(),
            reset: Reset::new(),
            mgr_port: AxiPort::new(),
            sub_port: AxiPort::new(),
            cycle: 0,
            irq_first_at: None,
            probe: None,
        }
    }

    /// Attaches a VCD waveform probe to the manager-side port; retrieve
    /// the document with [`Self::probe`] after running.
    pub fn attach_probe(&mut self) {
        self.probe = Some(WaveProbe::new("tmu_mgr_port"));
    }

    /// The attached waveform probe, if any.
    #[must_use]
    pub fn probe(&self) -> Option<&WaveProbe> {
        self.probe.as_ref()
    }

    /// Arms a fault plan.
    pub fn inject(&mut self, plan: FaultPlan) {
        self.injector.arm(plan);
    }

    /// Switches the TMU's unified telemetry layer on; the link publishes
    /// its manager's gauges ([`AxiManager::publish_metrics`]) into each
    /// periodic sample.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.tmu.enable_telemetry(config);
    }

    /// Simulates one cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        self.mgr_port.begin_cycle();
        self.sub_port.begin_cycle();

        self.mgr.drive(&mut self.mgr_port, cycle);
        self.injector
            .corrupt_manager_side(&mut self.mgr_port, cycle);
        self.tmu.forward_request(&self.mgr_port, &mut self.sub_port);
        self.sub.drive(&mut self.sub_port);
        self.injector
            .corrupt_subordinate_side(&mut self.sub_port, cycle);
        self.tmu
            .forward_response(&self.sub_port, &mut self.mgr_port);
        self.tmu.observe(&self.mgr_port);
        if let Some(probe) = &mut self.probe {
            probe.sample(cycle, &self.mgr_port);
        }

        self.mgr.commit(&self.mgr_port, cycle);
        self.sub.commit(&self.sub_port);
        self.injector.note_commit(&self.sub_port, cycle);
        // Publish link-level gauges just before the TMU's sampler runs,
        // so every periodic sample carries fresh manager-side levels.
        if self.tmu.telemetry().should_sample(cycle) {
            let metrics = self.tmu.telemetry_mut().metrics_mut();
            self.mgr.publish_metrics(metrics);
            if let Some(probe) = &self.probe {
                probe.publish_metrics(metrics);
            }
        }
        if commit_guarded(&mut self.tmu, &mut self.reset, cycle) {
            self.sub.reset();
            self.injector.disarm();
        }
        if self.irq_first_at.is_none() && self.tmu.irq_pending() {
            self.irq_first_at = Some(cycle);
        }
        self.cycle += 1;
    }

    /// Simulates `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until `pred` holds or `max_cycles` pass; `true` when met.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Self) -> bool) -> bool {
        for _ in 0..max_cycles {
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Jumps the link's cycle counter to `cycle` without simulating the
    /// cycles in between; a target at or before the current cycle is a
    /// no-op.
    ///
    /// This is the event-driven fast-forward hook (the plain loop in
    /// `tmu_bench::hotpath::run_saturated_stall_fastforward` uses it):
    /// the **caller** asserts that the skipped stretch is quiescent —
    /// every wire stalled, no fault recovery or reset in progress, no
    /// injector activation pending — so that the skipped `step()` calls
    /// would not have changed any observable state. Under the TMU's deadline-wheel engine, the
    /// latest safe target is `tmu.next_deadline()`.
    pub fn fast_forward_to(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }

    /// Cycle the TMU interrupt first asserted.
    #[must_use]
    pub fn irq_first_at(&self) -> Option<u64> {
        self.irq_first_at
    }

    /// Detection latency of the most recent fault: cycles from the
    /// injector's activation to the TMU's fault record.
    #[must_use]
    pub fn detection_latency(&self) -> Option<u64> {
        let detected = self.tmu.last_fault()?.cycle;
        let injected = self.injector.activation_cycle()?;
        Some(detected.saturating_sub(injected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EthSub;
    use crate::memory::MemSub;
    use faults::{FaultClass, Trigger};
    use tmu::TmuVariant;

    fn write_pattern(beats: u16) -> TrafficPattern {
        TrafficPattern {
            write_ratio: 1.0,
            burst_lens: vec![beats],
            ids: vec![1],
            addr_base: 0x1000,
            addr_span: 1,
            max_outstanding: 1,
            issue_gap: 4,
            total_txns: None,
            verify_data: false,
        }
    }

    fn cfg(variant: TmuVariant) -> TmuConfig {
        TmuConfig::builder().variant(variant).build().unwrap()
    }

    #[test]
    fn healthy_link_flows() {
        let mut link = GuardedLink::new(
            TrafficPattern::default(),
            cfg(TmuVariant::FullCounter),
            MemSub::default(),
            1,
        );
        link.run(2000);
        assert!(link.mgr.stats().total_completed() > 20);
        assert_eq!(link.tmu.faults_detected(), 0);
        assert!(link.detection_latency().is_none());
    }

    #[test]
    fn fault_detect_and_recover_on_link() {
        let mut link = GuardedLink::new(
            write_pattern(8),
            cfg(TmuVariant::FullCounter),
            MemSub::default(),
            2,
        );
        link.inject(FaultPlan::new(
            FaultClass::BValidSuppress,
            Trigger::AtCycle(100),
        ));
        assert!(link.run_until(2000, |l| l.tmu.faults_detected() > 0));
        let lat = link.detection_latency().expect("latency measurable");
        assert!(lat > 0 && lat < 500, "latency {lat}");
        assert!(link.run_until(2000, |l| l.mgr.stats().writes_completed > 5));
        assert!(link.irq_first_at().is_some());
        assert_eq!(link.tmu.faults_detected(), 1, "recovered cleanly");
    }

    #[test]
    fn telemetry_spans_and_samples_on_link() {
        let mut link = GuardedLink::new(
            TrafficPattern::default(),
            cfg(TmuVariant::FullCounter),
            MemSub::default(),
            1,
        );
        link.attach_probe();
        link.enable_telemetry(TelemetryConfig {
            sample_every: 64,
            ..TelemetryConfig::default()
        });
        link.run(2000);
        let hub = link.tmu.telemetry();
        assert!(hub.seq() > 0, "events recorded");
        assert!(hub.spans().expect("spans on").spans().len() > 10);
        let jsonl = hub.metrics_jsonl();
        assert!(jsonl.contains("link.mgr.txns_completed"), "{jsonl}");
        assert!(jsonl.contains("probe.w_handshakes"), "{jsonl}");
        assert!(jsonl.contains("tmu.outstanding"), "{jsonl}");
    }

    #[test]
    fn capturing_a_report_leaves_the_trace_alone() {
        let mut link = GuardedLink::new(
            TrafficPattern::default(),
            cfg(TmuVariant::FullCounter),
            MemSub::default(),
            1,
        );
        link.enable_telemetry(TelemetryConfig::default());
        link.run(1000);
        let hub = link.tmu.telemetry();
        let (seq, ring) = (hub.seq(), hub.events().to_json());
        let first = tmu::TmuReport::capture(&link.tmu);
        let second = tmu::TmuReport::capture(&link.tmu);
        let hub = link.tmu.telemetry();
        assert_eq!(hub.seq(), seq, "a capture records no events");
        assert_eq!(hub.events().to_json(), ring);
        assert_eq!(first, second);
        assert_eq!(first.telemetry_events, seq);
        assert_eq!(first.outstanding, link.tmu.outstanding());
    }

    #[test]
    fn ethernet_endpoint_works_on_link() {
        let mut link = GuardedLink::new(
            write_pattern(16),
            cfg(TmuVariant::TinyCounter),
            EthSub::default(),
            3,
        );
        link.run(1000);
        assert!(link.sub.frames_txed() > 3);
        assert_eq!(link.tmu.faults_detected(), 0);
    }
}
