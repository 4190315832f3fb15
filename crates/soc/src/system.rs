//! The full system assembly of the paper's Fig. 10.
//!
//! Two traffic-generating managers (the "CPU" and "DMA" roles) feed an
//! AXI mux; its trunk is demultiplexed by address onto a memory
//! subordinate and an Ethernet-like peripheral. A [`StageBank`] of
//! [`TmuStage`]s sits between the crossbar and the subordinates with one
//! TMU slot per demux port: the Ethernet port is always monitored,
//! the memory port optionally (the paper's mixed-criticality
//! deployment). Per-port reset lines and the merged interrupt line close
//! the recovery loop: on a fault a slot's TMU severs its link, aborts
//! outstanding transactions with `SLVERR`, raises the interrupt, and
//! requests a reset of its subordinate; once that reset completes,
//! monitoring resumes — on that port alone, while the others keep moving
//! traffic.
//!
//! [`System::step`] wires the two-phase combinational passes in the
//! exact dependency order; see the source for the pass list.

use axi4::channel::AxiPort;
use faults::{FaultPlan, Injector};
use tmu::{Tmu, TmuConfig};
use tmu_telemetry::TelemetryConfig;

use crate::demux::{AddrRegion, Demux};
use crate::ethernet::{EthConfig, EthSub};
use crate::manager::{MgrStats, TrafficGen, TrafficPattern};
use crate::memory::{MemConfig, MemSub};
use crate::mux::Mux;
use crate::probe::WaveProbe;
use crate::stage::{StageBank, TmuStage};

/// Base address of the memory region.
pub const MEM_BASE: u64 = 0x8000_0000;
/// Size of the memory region.
pub const MEM_SIZE: u64 = 0x1000_0000;
/// Base address of the Ethernet region.
pub const ETH_BASE: u64 = 0x2000_0000;
/// Size of the Ethernet region (one 4 KiB page, like an MMIO window).
pub const ETH_SIZE: u64 = 0x1000;

const MEM_IDX: usize = 0;
const ETH_IDX: usize = 1;

/// Everything configurable about the assembled system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// TMU instance guarding the Ethernet link.
    pub tmu: TmuConfig,
    /// Optional second TMU guarding the memory link — the paper's
    /// mixed-criticality deployment (§IV: Tiny- and Full-Counter
    /// monitors can coexist in one SoC, tailored per subordinate).
    pub mem_tmu: Option<TmuConfig>,
    /// Memory-model latencies.
    pub mem: MemConfig,
    /// Ethernet-model pacing.
    pub eth: EthConfig,
    /// Traffic of manager 0 (CPU role; memory-heavy by default).
    pub cpu_pattern: TrafficPattern,
    /// Traffic of manager 1 (DMA role; Ethernet frames by default).
    pub dma_pattern: TrafficPattern,
    /// Root RNG seed.
    pub seed: u64,
    /// Reset-controller assertion length, in cycles.
    pub reset_duration: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            tmu: TmuConfig::default(),
            mem_tmu: None,
            mem: MemConfig::default(),
            eth: EthConfig::default(),
            cpu_pattern: TrafficPattern {
                addr_base: MEM_BASE,
                addr_span: 0x10_0000,
                ..TrafficPattern::default()
            },
            dma_pattern: TrafficPattern {
                write_ratio: 0.9,
                burst_lens: vec![16, 32, 64],
                ids: vec![0, 1],
                addr_base: ETH_BASE,
                addr_span: ETH_SIZE,
                max_outstanding: 2,
                issue_gap: 16,
                total_txns: None,
                verify_data: false,
            },
            seed: 0xC0FFEE,
            reset_duration: 8,
        }
    }
}

/// Interrupt-line bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrqInfo {
    /// Cycle the interrupt first asserted, if ever.
    pub first_asserted_at: Option<u64>,
    /// Rising edges seen.
    pub assertions: u64,
}

/// The assembled Fig. 10 system. See the [module docs](self).
#[derive(Debug)]
pub struct System {
    cpu: TrafficGen,
    dma: TrafficGen,
    mux: Mux,
    demux: Demux,
    mem: MemSub,
    eth: EthSub,
    fabric: StageBank<TmuStage>,
    injector: Injector,
    mem_injector: Injector,
    // Ports.
    mgr_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_ports: Vec<AxiPort>,
    /// The subordinates' own ports, below the monitor bank.
    dev_ports: Vec<AxiPort>,
    // Plumbing state.
    /// Committed state: the system's cycle counter.
    cycle: u64,
    irq: IrqInfo,
    irq_level_last: bool,
    probe: Option<WaveProbe>,
}

impl System {
    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Panics, naming the manager port and the ID, if the CPU's (port 0)
    /// or the DMA's (port 1) pattern holds an ID that does not fit below
    /// the mux's ID shift (bit 12).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let mux = Mux::new(2, 12);
        mux.assert_ids_fit(0, &cfg.cpu_pattern.ids);
        mux.assert_ids_fit(1, &cfg.dma_pattern.ids);
        let mut fabric = StageBank::new(2);
        fabric.attach(ETH_IDX, TmuStage::new(cfg.tmu, cfg.reset_duration));
        if let Some(mem_cfg) = cfg.mem_tmu {
            fabric.attach(MEM_IDX, TmuStage::new(mem_cfg, cfg.reset_duration));
        }
        System {
            cpu: TrafficGen::new(cfg.cpu_pattern, cfg.seed ^ 0x1),
            dma: TrafficGen::new(cfg.dma_pattern, cfg.seed ^ 0x2),
            mux,
            demux: Demux::new(vec![
                AddrRegion {
                    base: MEM_BASE,
                    size: MEM_SIZE,
                },
                AddrRegion {
                    base: ETH_BASE,
                    size: ETH_SIZE,
                },
            ]),
            mem: MemSub::new(cfg.mem),
            eth: EthSub::new(cfg.eth),
            fabric,
            injector: Injector::idle(),
            mem_injector: Injector::idle(),
            mgr_ports: vec![AxiPort::new(), AxiPort::new()],
            trunk: AxiPort::new(),
            sub_ports: vec![AxiPort::new(), AxiPort::new()],
            dev_ports: vec![AxiPort::new(), AxiPort::new()],
            cycle: 0,
            irq: IrqInfo::default(),
            irq_level_last: false,
            probe: None,
        }
    }

    /// Attaches a VCD waveform probe to the TMU's manager-side port (the
    /// link between the crossbar and the Ethernet IP); retrieve the
    /// document with [`Self::probe`] after running.
    pub fn attach_probe(&mut self) {
        self.probe = Some(WaveProbe::new("eth_tmu_port"));
    }

    /// The attached waveform probe, if any.
    #[must_use]
    pub fn probe(&self) -> Option<&WaveProbe> {
        self.probe.as_ref()
    }

    /// Switches the unified telemetry layer on for every TMU in the
    /// system. The system publishes manager and Ethernet gauges
    /// (`system.*`, `eth.*`) into the Ethernet TMU's periodic samples.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.fabric.enable_telemetry(config);
    }

    /// Chrome trace-event JSON of the Ethernet TMU's transaction spans.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        self.tmu().chrome_trace_json()
    }

    /// The Ethernet TMU's periodic metrics samples as JSON lines.
    #[must_use]
    pub fn metrics_jsonl(&self) -> String {
        self.tmu().metrics_jsonl()
    }

    /// Arms a fault on the Ethernet link.
    pub fn inject(&mut self, plan: FaultPlan) {
        self.injector.arm(plan);
    }

    /// Arms a fault on the memory link (only meaningful when a memory
    /// TMU is configured — otherwise the fault simply hangs the link).
    pub fn inject_mem(&mut self, plan: FaultPlan) {
        self.mem_injector.arm(plan);
    }

    /// Simulates one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics only if fabric bookkeeping invariants are violated — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn step(&mut self) {
        let cycle = self.cycle;
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        for p in self.sub_ports.iter_mut().chain(&mut self.dev_ports) {
            p.begin_cycle();
        }

        // Pass 1: managers drive requests and response readys.
        self.cpu.drive(&mut self.mgr_ports[0], cycle);
        self.dma.drive(&mut self.mgr_ports[1], cycle);
        // Pass 2: mux arbitration onto the trunk.
        self.mux.forward_requests(&self.mgr_ports, &mut self.trunk);
        // Pass 3: address decode onto the subordinate ports.
        self.demux
            .forward_requests(&self.trunk, &mut self.sub_ports);
        // Manager-side fault injection at the TMUs' manager ports.
        self.injector
            .corrupt_manager_side(&mut self.sub_ports[ETH_IDX], cycle);
        self.mem_injector
            .corrupt_manager_side(&mut self.sub_ports[MEM_IDX], cycle);
        // Pass 4: fabric request forwarding (possibly severed; plain
        // wire copy on unmonitored ports).
        self.fabric
            .forward_requests(&self.sub_ports, &mut self.dev_ports);
        // Pass 5: subordinates drive.
        self.mem.drive(&mut self.dev_ports[MEM_IDX]);
        self.eth.drive(&mut self.dev_ports[ETH_IDX]);
        // Subordinate-side fault injection below the TMUs.
        self.injector
            .corrupt_subordinate_side(&mut self.dev_ports[ETH_IDX], cycle);
        self.mem_injector
            .corrupt_subordinate_side(&mut self.dev_ports[MEM_IDX], cycle);
        // Pass 6: fabric response forwarding (possibly SLVERR aborts).
        self.fabric
            .forward_responses(&self.dev_ports, &mut self.sub_ports);
        // Pass 7: demux response arbitration onto the trunk.
        self.demux
            .forward_responses(&self.sub_ports, &mut self.trunk);
        // Pass 8: mux response routing back to the managers.
        self.mux
            .forward_responses(&mut self.trunk, &mut self.mgr_ports);
        // Pass 9: response-ready back-propagation down the hierarchy.
        self.demux
            .backprop_response_ready(&self.trunk, &mut self.sub_ports);
        self.fabric
            .backprop_response_ready(&self.sub_ports, &mut self.dev_ports);
        if let Some(probe) = &mut self.probe {
            probe.sample(cycle, &self.sub_ports[ETH_IDX]);
        }

        // Clock commit.
        self.cpu.commit(&self.mgr_ports[0], cycle);
        self.dma.commit(&self.mgr_ports[1], cycle);
        self.mux.commit(&self.trunk);
        self.demux.commit(&self.trunk);
        self.mem.commit(&self.dev_ports[MEM_IDX]);
        self.eth.commit(&self.dev_ports[ETH_IDX]);
        self.injector.note_commit(&self.dev_ports[ETH_IDX], cycle);
        self.mem_injector
            .note_commit(&self.dev_ports[MEM_IDX], cycle);
        // Publish system-level gauges just before the Ethernet TMU's
        // sampler runs, so each sample carries fresh SoC-wide levels.
        if self.tmu().telemetry().should_sample(cycle) {
            let cpu_done = self.cpu.stats().total_completed();
            let dma_done = self.dma.stats().total_completed();
            let decode_errors = self.demux.decode_errors();
            let metrics = self
                .fabric
                .tmu_mut(ETH_IDX)
                .expect("the ethernet port is always monitored")
                .telemetry_mut()
                .metrics_mut();
            metrics.gauge_set("system.cpu.txns_completed", cpu_done);
            metrics.gauge_set("system.dma.txns_completed", dma_done);
            metrics.gauge_set("system.decode_errors", decode_errors);
            self.eth.publish_metrics(metrics);
            if let Some(probe) = &self.probe {
                probe.publish_metrics(metrics);
            }
        }
        // Fabric commit and per-port recovery plumbing: each slot's TMU
        // reads its settled manager-side wires, and it and its reset line
        // advance independently; the fabric reports which subordinates
        // completed their reset this cycle.
        // Note: no demux route flush is needed on a fault — the TMU
        // drains the remaining W beats of aborted bursts through the
        // normal path, so every route entry retires on its own WLAST.
        self.fabric
            .commit(&self.sub_ports, &self.dev_ports, cycle, |port| {
                if port == ETH_IDX {
                    self.eth.reset();
                    self.injector.disarm();
                } else {
                    self.mem.reset();
                    self.mem_injector.disarm();
                }
            });

        // Interrupt-line edge bookkeeping (the lines are ORed towards
        // the CPU, like a shared interrupt controller input).
        let level = self.fabric.irq_pending();
        if level && !self.irq_level_last {
            self.irq.assertions += 1;
            if self.irq.first_asserted_at.is_none() {
                self.irq.first_asserted_at = Some(cycle);
            }
        }
        self.irq_level_last = level;

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
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&System) -> bool) -> bool {
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

    /// The monitor bank (one TMU slot per demux port).
    #[must_use]
    pub fn fabric(&self) -> &StageBank<TmuStage> {
        &self.fabric
    }

    /// Mutable fabric access (merged deadline queries, per-slot register
    /// writes).
    pub fn fabric_mut(&mut self) -> &mut StageBank<TmuStage> {
        &mut self.fabric
    }

    /// The TMU guarding the Ethernet link.
    ///
    /// # Panics
    ///
    /// Panics only if the fabric lost the Ethernet monitor, which is
    /// instantiated unconditionally — an internal invariant violation.
    #[must_use]
    pub fn tmu(&self) -> &Tmu {
        self.fabric
            .tmu(ETH_IDX)
            .expect("the ethernet port is always monitored")
    }

    /// Software access to the TMU (register writes, IRQ clearing).
    ///
    /// # Panics
    ///
    /// Panics only if the fabric lost the Ethernet monitor, which is
    /// instantiated unconditionally — an internal invariant violation.
    pub fn tmu_mut(&mut self) -> &mut Tmu {
        self.fabric
            .tmu_mut(ETH_IDX)
            .expect("the ethernet port is always monitored")
    }

    /// The optional memory-link TMU.
    #[must_use]
    pub fn mem_tmu(&self) -> Option<&Tmu> {
        self.fabric.tmu(MEM_IDX)
    }

    /// Hardware resets the memory controller has received.
    #[must_use]
    pub fn mem_resets(&self) -> u64 {
        self.fabric.reset_requests(MEM_IDX)
    }

    /// The Ethernet peripheral.
    #[must_use]
    pub fn eth(&self) -> &EthSub {
        &self.eth
    }

    /// The memory subordinate.
    #[must_use]
    pub fn mem(&self) -> &MemSub {
        &self.mem
    }

    /// CPU-role manager statistics.
    #[must_use]
    pub fn cpu_stats(&self) -> &MgrStats {
        self.cpu.stats()
    }

    /// DMA-role manager statistics.
    #[must_use]
    pub fn dma_stats(&self) -> &MgrStats {
        self.dma.stats()
    }

    /// True once both managers exhausted their scripted traffic.
    #[must_use]
    pub fn traffic_done(&self) -> bool {
        self.cpu.is_done() && self.dma.is_done()
    }

    /// Interrupt-line bookkeeping.
    #[must_use]
    pub fn irq(&self) -> IrqInfo {
        self.irq
    }

    /// The fault injector (activation-time queries).
    #[must_use]
    pub fn injector(&self) -> &Injector {
        &self.injector
    }

    /// DECERR transactions answered by the crossbar's default
    /// subordinate.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.demux.decode_errors()
    }

    /// Hardware resets the Ethernet IP has received.
    #[must_use]
    pub fn eth_resets(&self) -> u64 {
        self.eth.resets_seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultClass, Trigger};
    use tmu::{TmuState, TmuVariant};

    fn quiet_cpu() -> TrafficPattern {
        TrafficPattern {
            total_txns: Some(0),
            ..TrafficPattern::default()
        }
    }

    #[test]
    #[should_panic(expected = "manager port 0: ID 0x1000 does not fit")]
    fn a_manager_id_overlapping_the_port_bits_is_rejected() {
        // Extended at bit 12, ID 0x1000 would read back as port 1's ID 0.
        let _ = System::new(SystemConfig {
            cpu_pattern: TrafficPattern {
                ids: vec![0, 0x1000],
                ..quiet_cpu()
            },
            ..SystemConfig::default()
        });
    }

    #[test]
    fn healthy_system_moves_traffic() {
        let mut system = System::new(SystemConfig::default());
        system.run(3000);
        let cpu = system.cpu_stats();
        let dma = system.dma_stats();
        assert!(
            cpu.writes_completed + cpu.reads_completed > 10,
            "cpu: {cpu:?}"
        );
        assert!(dma.writes_completed > 5, "dma: {dma:?}");
        assert_eq!(cpu.writes_errored + cpu.reads_errored, 0);
        assert_eq!(dma.writes_errored + dma.reads_errored, 0);
        assert_eq!(system.tmu().faults_detected(), 0);
        assert!(system.eth().frames_txed() > 0);
        assert_eq!(system.decode_errors(), 0);
    }

    #[test]
    fn ethernet_fault_detected_isolated_recovered() {
        let mut system = System::new(SystemConfig::default());
        // Warm up healthy, then break the Ethernet W datapath.
        system.run(500);
        let frames_before = system.eth().frames_txed();
        system.inject(FaultPlan::new(
            FaultClass::WReadyDrop,
            Trigger::AtCycle(600),
        ));
        let detected = system.run_until(5000, |s| s.tmu().faults_detected() > 0);
        assert!(detected, "TMU must detect the injected fault");
        // Interrupt raised; reset flows; monitoring resumes.
        let recovered = system.run_until(5000, |s| {
            s.eth_resets() > 0 && s.tmu().state() == TmuState::Monitoring
        });
        assert!(recovered, "system must recover");
        assert!(system.irq().first_asserted_at.is_some());
        // Traffic continues after recovery.
        system.run(3000);
        assert!(
            system.eth().frames_txed() > frames_before,
            "frames must flow again after the reset"
        );
        assert_eq!(system.tmu().faults_detected(), 1, "single fault event");
    }

    #[test]
    fn cpu_memory_traffic_survives_ethernet_fault() {
        let mut system = System::new(SystemConfig::default());
        system.inject(FaultPlan::new(
            FaultClass::BValidSuppress,
            Trigger::AtCycle(200),
        ));
        system.run(6000);
        let cpu = system.cpu_stats();
        assert!(system.tmu().faults_detected() >= 1);
        assert!(
            cpu.writes_completed + cpu.reads_completed > 20,
            "memory path must keep flowing: {cpu:?}"
        );
    }

    #[test]
    fn fig11_single_transaction_shape() {
        // One 250-beat write to the Ethernet, Fc variant with the paper's
        // per-phase budgets; no fault: it must complete within budget.
        let cfg = SystemConfig {
            tmu: TmuConfig::builder()
                .variant(TmuVariant::FullCounter)
                .budgets(tmu::BudgetConfig::fig11_full())
                .build()
                .unwrap(),
            eth: EthConfig {
                pace_on: 1,
                pace_off: 0,
                ..EthConfig::default()
            },
            cpu_pattern: quiet_cpu(),
            dma_pattern: TrafficPattern::single_write(0, ETH_BASE, 250),
            ..SystemConfig::default()
        };
        let mut system = System::new(cfg);
        let done = system.run_until(2000, System::traffic_done);
        assert!(done, "250-beat frame must complete");
        assert_eq!(system.dma_stats().writes_completed, 1);
        assert_eq!(system.tmu().faults_detected(), 0, "no false timeout");
        assert_eq!(system.eth().beats_txed(), 250);
    }

    #[test]
    fn decode_error_answered_not_hung() {
        let cfg = SystemConfig {
            cpu_pattern: TrafficPattern {
                addr_base: 0x0,
                addr_span: 0x1000, // unmapped
                total_txns: Some(4),
                ..TrafficPattern::default()
            },
            dma_pattern: TrafficPattern {
                total_txns: Some(0),
                ..TrafficPattern::default()
            },
            ..SystemConfig::default()
        };
        let mut system = System::new(cfg);
        let done = system.run_until(3000, System::traffic_done);
        assert!(done, "DECERR transactions must complete");
        let cpu = system.cpu_stats();
        assert_eq!(cpu.writes_errored + cpu.reads_errored, 4);
        assert_eq!(system.decode_errors(), 4);
    }

    #[test]
    fn probe_captures_system_waveform() {
        let mut system = System::new(SystemConfig::default());
        system.attach_probe();
        system.run(300);
        let probe = system.probe().expect("attached");
        assert_eq!(probe.samples(), 300);
        let vcd = probe.render();
        assert!(vcd.contains("eth_tmu_port"));
        // Traffic flowed, so at least one W handshake left its mark.
        assert!(vcd.contains("w_valid"));
        assert!(vcd.lines().filter(|l| l.starts_with('#')).count() > 5);
    }

    #[test]
    fn telemetry_samples_carry_system_gauges() {
        let mut system = System::new(SystemConfig::default());
        system.attach_probe();
        system.enable_telemetry(TelemetryConfig {
            sample_every: 128,
            ..TelemetryConfig::default()
        });
        system.run(3000);
        assert!(system.tmu().telemetry().seq() > 0, "events recorded");
        let jsonl = system.metrics_jsonl();
        assert!(jsonl.contains("eth.frames_txed"), "{jsonl}");
        assert!(jsonl.contains("system.cpu.txns_completed"), "{jsonl}");
        assert!(jsonl.contains("probe.w_handshakes"), "{jsonl}");
        let trace = system.chrome_trace_json();
        assert!(trace.contains("\"ph\":\"X\""), "complete slices exported");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut system = System::new(SystemConfig {
                seed,
                ..SystemConfig::default()
            });
            system.run(2000);
            (
                system.cpu_stats().total_completed(),
                system.dma_stats().total_completed(),
                system.eth().beats_txed(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
