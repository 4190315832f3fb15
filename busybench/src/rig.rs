//! Component loops for the traced run.
//!
//! Each rig owns the same components as one public harness and calls
//! their public per-cycle functions in the harness's pass order, marking
//! a span after every call. With [`Untimed`] spans a rig is the harness's
//! step loop; the end-of-run differential against the harness proves it.
//!
//! The rigs call `Tmu` and `Regulator` directly instead of going through
//! `MonitorFabric` or `RegulatedFabric`, so the span boundaries sit on the
//! components themselves and survive the planned replacement of both
//! fabrics by a generic stage bank.

use axi4::channel::AxiPort;
use sim::Reset;
use soc::demux::{AddrRegion, Demux};
use soc::ethernet::EthSub;
use soc::manager::{TrafficGen, TrafficPattern};
use soc::memory::MemSub;
use soc::mux::Mux;
use soc::system::{SystemConfig, ETH_BASE, ETH_SIZE, MEM_BASE, MEM_SIZE};
use tmu::{TelemetryConfig, Tmu, TmuConfig};
use tmu_regulate::{Regulator, RegulatorConfig};

use crate::spans::{Layer, Spans, Untimed};
use crate::workload::{Model, Outcome};

/// Counts the benchmark takes on the wires, outside every component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probe {
    /// Manager-side AW and AR channel-cycles with `valid` high.
    pub addr_offered: u64,
    /// Of those, channel-cycles where `ready` stayed low.
    pub addr_waited: u64,
    /// Sum over cycles of the workload TMUs' `outstanding()`.
    pub outstanding_sum: u64,
}

impl Probe {
    fn addr(&mut self, port: &AxiPort) {
        for (valid, ready) in [
            (port.aw.valid(), port.aw.ready()),
            (port.ar.valid(), port.ar.ready()),
        ] {
            if valid {
                self.addr_offered += 1;
                self.addr_waited += u64::from(!ready);
            }
        }
    }
}

/// A workload as a component loop.
#[derive(Debug)]
pub enum Rig {
    /// `link_deep`.
    Link(Box<LinkRig>),
    /// `soc_fig10`.
    Soc(Box<SocRig>),
    /// `regulated_4mgr`.
    Reg(Box<RegRig>),
}

impl Rig {
    /// Simulates `cycles` cycles, reporting spans to `spans`.
    pub fn run_with<S: Spans>(&mut self, cycles: u64, spans: &mut S) {
        match self {
            Rig::Link(r) => (0..cycles).for_each(|_| r.step(spans)),
            Rig::Soc(r) => (0..cycles).for_each(|_| r.step(spans)),
            Rig::Reg(r) => (0..cycles).for_each(|_| r.step(spans)),
        }
    }

    /// The wire counts so far.
    pub fn probe(&self) -> Probe {
        match self {
            Rig::Link(r) => r.probe,
            Rig::Soc(r) => r.probe,
            Rig::Reg(r) => r.probe,
        }
    }
}

impl Model for Rig {
    fn step(&mut self) {
        self.run_with(1, &mut Untimed);
    }

    fn run(&mut self, cycles: u64) {
        self.run_with(cycles, &mut Untimed);
    }

    fn outcome(&self) -> Outcome {
        match self {
            Rig::Link(r) => Outcome {
                cycle: r.cycle,
                mem_beats: r.mem.beats_written() + r.mem.beats_read(),
                ..Outcome::default()
            }
            .with_managers([r.mgr.stats()])
            .with_tmu(&r.tmu),
            Rig::Soc(r) => Outcome {
                cycle: r.cycle,
                mem_beats: r.mem.beats_written() + r.mem.beats_read(),
                eth_beats: r.eth.beats_txed() + r.eth.beats_rxed(),
                ..Outcome::default()
            }
            .with_managers([r.cpu.stats(), r.dma.stats()])
            .with_tmu(&r.eth_tmu)
            .with_tmu(&r.mem_tmu),
            Rig::Reg(r) => r.regs.iter().fold(
                Outcome {
                    cycle: r.cycle,
                    mem_beats: r.mem.beats_written() + r.mem.beats_read(),
                    ..Outcome::default()
                }
                .with_managers(r.mgrs.iter().map(TrafficGen::stats))
                .with_tmu(&r.tmu),
                Outcome::with_regulator,
            ),
        }
    }

    fn mem(&self) -> &MemSub {
        match self {
            Rig::Link(r) => &r.mem,
            Rig::Soc(r) => &r.mem,
            Rig::Reg(r) => &r.mem,
        }
    }

    fn outstanding(&self) -> usize {
        match self {
            Rig::Link(r) => r.tmu.outstanding(),
            Rig::Soc(r) => r.eth_tmu.outstanding() + r.mem_tmu.outstanding(),
            Rig::Reg(r) => r.tmu.outstanding(),
        }
    }
}

/// `GuardedLink<MemSub>` as a component loop (idle fault injector
/// omitted, no waveform probe).
#[derive(Debug)]
pub struct LinkRig {
    mgr: TrafficGen,
    tmu: Tmu,
    mem: MemSub,
    reset: Reset,
    mgr_port: AxiPort,
    sub_port: AxiPort,
    cycle: u64,
    probe: Probe,
}

impl LinkRig {
    /// Built as `GuardedLink::new` builds its parts.
    pub fn new(pattern: TrafficPattern, cfg: TmuConfig, mem: MemSub, seed: u64) -> Self {
        LinkRig {
            mgr: TrafficGen::new(pattern, seed),
            tmu: Tmu::new(cfg),
            mem,
            reset: Reset::new(),
            mgr_port: AxiPort::new(),
            sub_port: AxiPort::new(),
            cycle: 0,
            probe: Probe::default(),
        }
    }

    /// One cycle in `GuardedLink::step` order.
    fn step<S: Spans>(&mut self, s: &mut S) {
        let cycle = self.cycle;
        self.mgr_port.begin_cycle();
        self.sub_port.begin_cycle();
        s.mark(Layer::Glue);

        self.mgr.drive(&mut self.mgr_port, cycle);
        s.mark(Layer::Manager);
        self.tmu.forward_request(&self.mgr_port, &mut self.sub_port);
        s.mark(Layer::TmuForward);
        self.mem.drive(&mut self.sub_port);
        s.mark(Layer::Memory);
        self.tmu
            .forward_response(&self.sub_port, &mut self.mgr_port);
        s.mark(Layer::TmuForward);
        self.tmu.observe(&self.mgr_port);
        s.mark(Layer::TmuObserve);
        self.probe.addr(&self.mgr_port);
        s.mark(Layer::Probe);

        self.mgr.commit(&self.mgr_port, cycle);
        s.mark(Layer::Manager);
        self.mem.commit(&self.sub_port);
        s.mark(Layer::Memory);
        if self.tmu.telemetry().should_sample(cycle) {
            let stats = self.mgr.stats();
            let completed = stats.total_completed();
            let errored = stats.writes_errored + stats.reads_errored;
            let (w_beats, r_beats) = (stats.w_beats, stats.r_beats);
            let metrics = self.tmu.telemetry_mut().metrics_mut();
            metrics.gauge_set("link.mgr.txns_completed", completed);
            metrics.gauge_set("link.mgr.txns_errored", errored);
            metrics.gauge_set("link.mgr.w_beats", w_beats);
            metrics.gauge_set("link.mgr.r_beats", r_beats);
        }
        s.mark(Layer::Glue);
        self.tmu.commit(cycle);
        if self.tmu.take_reset_request() {
            self.reset.request();
        }
        s.mark(Layer::TmuCommit);
        self.reset.tick();
        if self.reset.is_done_pulse() {
            self.mem.reset();
            self.tmu.reset_done();
        }
        s.mark(Layer::Reset);
        self.probe.outstanding_sum += self.tmu.outstanding() as u64;
        self.cycle += 1;
        s.mark(Layer::Probe);
    }
}

const MEM_IDX: usize = 0;
const ETH_IDX: usize = 1;

/// The Fig. 10 `System` with both demux ports monitored, as a component
/// loop: the fabric's two slots become two `Tmu`s with their reset lines
/// (idle fault injectors omitted, no waveform probe).
#[derive(Debug)]
pub struct SocRig {
    cpu: TrafficGen,
    dma: TrafficGen,
    mux: Mux,
    demux: Demux,
    mem: MemSub,
    eth: EthSub,
    mem_tmu: Tmu,
    eth_tmu: Tmu,
    mem_reset: Reset,
    eth_reset: Reset,
    mgr_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_ports: Vec<AxiPort>,
    eth_port: AxiPort,
    mem_port: AxiPort,
    cycle: u64,
    probe: Probe,
}

impl SocRig {
    /// Built as `System::new` builds its parts.
    pub fn new(cfg: SystemConfig) -> Self {
        let mem_cfg = cfg
            .mem_tmu
            .expect("the component loop models a monitored memory port");
        SocRig {
            cpu: TrafficGen::new(cfg.cpu_pattern, cfg.seed ^ 0x1),
            dma: TrafficGen::new(cfg.dma_pattern, cfg.seed ^ 0x2),
            mux: Mux::new(2, 12),
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
            mem_tmu: Tmu::new(mem_cfg),
            eth_tmu: Tmu::new(cfg.tmu),
            mem_reset: Reset::with_duration(cfg.reset_duration),
            eth_reset: Reset::with_duration(cfg.reset_duration),
            mgr_ports: vec![AxiPort::new(), AxiPort::new()],
            trunk: AxiPort::new(),
            sub_ports: vec![AxiPort::new(), AxiPort::new()],
            eth_port: AxiPort::new(),
            mem_port: AxiPort::new(),
            cycle: 0,
            probe: Probe::default(),
        }
    }

    /// As `System::tmu_mut().enable_telemetry`: the Ethernet TMU.
    pub fn enable_eth_telemetry(&mut self, config: TelemetryConfig) {
        self.eth_tmu.enable_telemetry(config);
    }

    /// One cycle in `System::step` order.
    fn step<S: Spans>(&mut self, s: &mut S) {
        let cycle = self.cycle;
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        for p in &mut self.sub_ports {
            p.begin_cycle();
        }
        self.eth_port.begin_cycle();
        self.mem_port.begin_cycle();
        s.mark(Layer::Glue);

        self.cpu.drive(&mut self.mgr_ports[0], cycle);
        s.mark(Layer::Manager);
        self.dma.drive(&mut self.mgr_ports[1], cycle);
        s.mark(Layer::Manager);
        self.mux.forward_requests(&self.mgr_ports, &mut self.trunk);
        s.mark(Layer::Mux);
        self.demux
            .forward_requests(&self.trunk, &mut self.sub_ports);
        s.mark(Layer::Demux);
        self.eth_tmu
            .forward_request(&self.sub_ports[ETH_IDX], &mut self.eth_port);
        s.mark(Layer::TmuForward);
        self.mem_tmu
            .forward_request(&self.sub_ports[MEM_IDX], &mut self.mem_port);
        s.mark(Layer::TmuForward);
        self.mem.drive(&mut self.mem_port);
        s.mark(Layer::Memory);
        self.eth.drive(&mut self.eth_port);
        s.mark(Layer::Ethernet);
        self.eth_tmu
            .forward_response(&self.eth_port, &mut self.sub_ports[ETH_IDX]);
        s.mark(Layer::TmuForward);
        self.mem_tmu
            .forward_response(&self.mem_port, &mut self.sub_ports[MEM_IDX]);
        s.mark(Layer::TmuForward);
        self.demux
            .forward_responses(&self.sub_ports, &mut self.trunk);
        s.mark(Layer::Demux);
        self.mux
            .forward_responses(&mut self.trunk, &mut self.mgr_ports);
        s.mark(Layer::Mux);
        self.demux
            .backprop_response_ready(&self.trunk, &mut self.sub_ports);
        s.mark(Layer::Demux);
        self.eth_tmu
            .backprop_response_ready(&self.sub_ports[ETH_IDX], &mut self.eth_port);
        s.mark(Layer::TmuForward);
        self.mem_tmu
            .backprop_response_ready(&self.sub_ports[MEM_IDX], &mut self.mem_port);
        s.mark(Layer::TmuForward);
        self.eth_tmu.observe(&self.sub_ports[ETH_IDX]);
        s.mark(Layer::TmuObserve);
        self.mem_tmu.observe(&self.sub_ports[MEM_IDX]);
        s.mark(Layer::TmuObserve);
        for port in &self.mgr_ports {
            self.probe.addr(port);
        }
        s.mark(Layer::Probe);

        self.cpu.commit(&self.mgr_ports[0], cycle);
        s.mark(Layer::Manager);
        self.dma.commit(&self.mgr_ports[1], cycle);
        s.mark(Layer::Manager);
        self.mux.commit(&self.trunk);
        s.mark(Layer::Mux);
        self.demux.commit(&self.trunk);
        s.mark(Layer::Demux);
        self.mem.commit(&self.mem_port);
        s.mark(Layer::Memory);
        self.eth.commit(&self.eth_port);
        s.mark(Layer::Ethernet);
        if self.eth_tmu.telemetry().should_sample(cycle) {
            let cpu_done = self.cpu.stats().total_completed();
            let dma_done = self.dma.stats().total_completed();
            let decode_errors = self.demux.decode_errors();
            let metrics = self.eth_tmu.telemetry_mut().metrics_mut();
            metrics.gauge_set("system.cpu.txns_completed", cpu_done);
            metrics.gauge_set("system.dma.txns_completed", dma_done);
            metrics.gauge_set("system.decode_errors", decode_errors);
            self.eth.publish_metrics(metrics);
        }
        s.mark(Layer::Glue);
        // The fabric commits its slots in port order, memory first.
        self.mem_tmu.commit(cycle);
        if self.mem_tmu.take_reset_request() {
            self.mem_reset.request();
        }
        s.mark(Layer::TmuCommit);
        self.mem_reset.tick();
        let mem_reset_done = self.mem_reset.is_done_pulse();
        if mem_reset_done {
            self.mem_tmu.reset_done();
        }
        s.mark(Layer::Reset);
        self.eth_tmu.commit(cycle);
        if self.eth_tmu.take_reset_request() {
            self.eth_reset.request();
        }
        s.mark(Layer::TmuCommit);
        self.eth_reset.tick();
        if self.eth_reset.is_done_pulse() {
            self.eth_tmu.reset_done();
            self.eth.reset();
        }
        if mem_reset_done {
            self.mem.reset();
        }
        s.mark(Layer::Reset);
        self.probe.outstanding_sum +=
            (self.eth_tmu.outstanding() + self.mem_tmu.outstanding()) as u64;
        self.cycle += 1;
        s.mark(Layer::Probe);
    }
}

/// `RegulatedLink<MemSub>` with a regulator on every port and a trunk
/// TMU, as a component loop: the regulator bank becomes one `Regulator`
/// per port.
#[derive(Debug)]
pub struct RegRig {
    mgrs: Vec<TrafficGen>,
    regs: Vec<Regulator>,
    mux: Mux,
    tmu: Tmu,
    reset: Reset,
    mem: MemSub,
    mgr_ports: Vec<AxiPort>,
    reg_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_port: AxiPort,
    cycle: u64,
    probe: Probe,
}

impl RegRig {
    /// Built as `RegulatedLink::new` builds its parts.
    pub fn new(
        managers: Vec<(TrafficPattern, Option<RegulatorConfig>)>,
        trunk: TmuConfig,
        mem: MemSub,
        seed: u64,
    ) -> Self {
        let n = managers.len();
        let mut mgrs = Vec::with_capacity(n);
        let mut regs = Vec::with_capacity(n);
        for (i, (pattern, cfg)) in managers.into_iter().enumerate() {
            mgrs.push(TrafficGen::new(pattern, seed ^ (i as u64 + 1)));
            let cfg = cfg.expect("the component loop models a regulator on every port");
            assert!(cfg.enabled(), "every regulator is enabled");
            regs.push(Regulator::new(cfg));
        }
        let mut mux = Mux::new(n, 12);
        let priorities: Vec<u8> = regs.iter().map(|r| r.config().priority()).collect();
        if priorities.iter().any(|&p| p != 0) {
            mux.set_priorities(priorities);
        }
        RegRig {
            mgrs,
            regs,
            mux,
            tmu: Tmu::new(trunk),
            reset: Reset::with_duration(8),
            mem,
            mgr_ports: (0..n).map(|_| AxiPort::new()).collect(),
            reg_ports: (0..n).map(|_| AxiPort::new()).collect(),
            trunk: AxiPort::new(),
            sub_port: AxiPort::new(),
            cycle: 0,
            probe: Probe::default(),
        }
    }

    /// One cycle in `RegulatedLink::step` order.
    fn step<S: Spans>(&mut self, s: &mut S) {
        let cycle = self.cycle;
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        for p in &mut self.reg_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        self.sub_port.begin_cycle();
        s.mark(Layer::Glue);

        for (mgr, port) in self.mgrs.iter_mut().zip(&mut self.mgr_ports) {
            mgr.drive(port, cycle);
            s.mark(Layer::Manager);
        }
        for ((reg, mgr), out) in self
            .regs
            .iter_mut()
            .zip(&self.mgr_ports)
            .zip(&mut self.reg_ports)
        {
            reg.forward_request(mgr, out);
            s.mark(Layer::RegForward);
        }
        self.mux.forward_requests(&self.reg_ports, &mut self.trunk);
        s.mark(Layer::Mux);
        self.tmu.forward_request(&self.trunk, &mut self.sub_port);
        s.mark(Layer::TmuForward);
        self.mem.drive(&mut self.sub_port);
        s.mark(Layer::Memory);
        self.tmu.forward_response(&self.sub_port, &mut self.trunk);
        s.mark(Layer::TmuForward);
        self.mux
            .forward_responses(&mut self.trunk, &mut self.reg_ports);
        s.mark(Layer::Mux);
        self.tmu
            .backprop_response_ready(&self.trunk, &mut self.sub_port);
        s.mark(Layer::TmuForward);
        for ((reg, out), mgr) in self
            .regs
            .iter_mut()
            .zip(&self.reg_ports)
            .zip(&mut self.mgr_ports)
        {
            reg.forward_response(out, mgr);
            s.mark(Layer::RegForward);
        }
        for (reg, mgr) in self.regs.iter_mut().zip(&self.mgr_ports) {
            reg.observe(mgr);
            s.mark(Layer::RegObserve);
        }
        self.tmu.observe(&self.trunk);
        s.mark(Layer::TmuObserve);
        for port in &self.mgr_ports {
            self.probe.addr(port);
        }
        s.mark(Layer::Probe);

        for (mgr, port) in self.mgrs.iter_mut().zip(&self.mgr_ports) {
            mgr.commit(port, cycle);
            s.mark(Layer::Manager);
        }
        self.mux.commit(&self.trunk);
        s.mark(Layer::Mux);
        self.mem.commit(&self.sub_port);
        s.mark(Layer::Memory);
        for reg in &mut self.regs {
            reg.commit(cycle);
            s.mark(Layer::RegCommit);
        }
        self.tmu.commit(cycle);
        if self.tmu.take_reset_request() {
            self.reset.request();
        }
        s.mark(Layer::TmuCommit);
        self.reset.tick();
        if self.reset.is_done_pulse() {
            self.mem.reset();
            self.tmu.reset_done();
        }
        s.mark(Layer::Reset);
        self.probe.outstanding_sum += self.tmu.outstanding() as u64;
        self.cycle += 1;
        s.mark(Layer::Probe);
    }
}
