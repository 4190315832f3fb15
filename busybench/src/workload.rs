//! The three busy-traffic workloads: their configurations, the public
//! harness each one runs on, the warm-up to steady state, and the pinned
//! simulated outcome of the default seed.
//!
//! Every workload is closed loop: each manager is a `TrafficGen` with a
//! fixed outstanding window, so a slower subordinate receives less load.
//! Every memory-facing pattern addresses one 16 KiB window, so the
//! `MemSub` word store fills during warm-up and stops growing; without
//! that, the store would keep growing through the measured stretch and
//! both throughput and peak memory would depend on how long the run
//! lasted.

use soc::link::GuardedLink;
use soc::manager::{MgrStats, TrafficPattern};
use soc::memory::{pattern_word, MemConfig, MemSub};
use soc::regulated::RegulatedLink;
use soc::system::{System, SystemConfig, MEM_BASE};
use tmu::{BudgetConfig, TelemetryConfig, Tmu, TmuConfig, TmuVariant};
use tmu_regulate::{DirBudget, Regulator, RegulatorConfig};

use crate::rig::{LinkRig, RegRig, Rig, SocRig};

/// The seed whose simulated outcome is pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Base of the memory window every memory-facing manager addresses.
pub const MEM_WINDOW_BASE: u64 = MEM_BASE;
/// Size of that window: 2048 words, four 4 KiB pages.
pub const MEM_WINDOW_BYTES: u64 = 0x4000;

/// Simulated cycles after warm-up over which the modelled statistics
/// (`txns_per_kcycle`, latency p99s, per-layer counts) are taken, so they
/// repeat exactly whatever the host speed.
pub const MODEL_CYCLES: u64 = 1_000_000;

/// Warm-up advances in blocks of this many cycles between steadiness
/// checks.
const WARM_BLOCK: u64 = 1024;
/// Written share of the memory window that counts as a full store. The
/// last words to fill sit at page starts and are hit rarely, so waiting
/// for all of them would make the warm-up length swing with the seed.
const STEADY_COVERAGE: f64 = 0.99;
/// A warm-up longer than this means the workload never became steady.
const WARM_LIMIT: u64 = 4_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One manager, 32 outstanding, through a Full-Counter TMU into a
    /// 32-deep memory: the TMU passes dominate host time.
    LinkDeep,
    /// The Fig. 10 system with both fabric ports monitored and telemetry
    /// on: interconnect, Ethernet model and telemetry do the work.
    SocFig10,
    /// Four regulated managers sharing one memory behind a trunk TMU:
    /// the regulators dominate host time.
    Regulated4Mgr,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::LinkDeep,
        Workload::SocFig10,
        Workload::Regulated4Mgr,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinkDeep => "link_deep",
            Workload::SocFig10 => "soc_fig10",
            Workload::Regulated4Mgr => "regulated_4mgr",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycles per timed chunk of the end-to-end measurement.
    pub fn chunk_cycles(self) -> u64 {
        match self {
            Workload::LinkDeep => 20_000,
            Workload::SocFig10 | Workload::Regulated4Mgr => 10_000,
        }
    }

    /// Monitor occupancy the warm-up must have reached at least once
    /// (the sum of `Tmu::outstanding()` over the workload's monitors).
    fn working_depth(self) -> usize {
        match self {
            Workload::LinkDeep => 28,
            Workload::SocFig10 => 4,
            Workload::Regulated4Mgr => 10,
        }
    }

    /// The public harness, as a user of the repository would build it.
    pub fn harness(self, seed: u64) -> Harness {
        match self {
            Workload::LinkDeep => Harness::Link(Box::new(GuardedLink::new(
                link_pattern(),
                link_tmu(),
                link_mem(),
                seed,
            ))),
            Workload::SocFig10 => {
                let mut system = System::new(soc_config(seed));
                system
                    .tmu_mut()
                    .enable_telemetry(TelemetryConfig::default());
                Harness::Soc(Box::new(system))
            }
            Workload::Regulated4Mgr => Harness::Reg(Box::new(RegulatedLink::new(
                reg_managers(),
                Some(reg_trunk_tmu()),
                MemSub::new(MemConfig::default()),
                seed,
            ))),
        }
    }

    /// The same workload as a component loop that can be traced.
    pub fn rig(self, seed: u64) -> Rig {
        match self {
            Workload::LinkDeep => Rig::Link(Box::new(LinkRig::new(
                link_pattern(),
                link_tmu(),
                link_mem(),
                seed,
            ))),
            Workload::SocFig10 => {
                let mut rig = SocRig::new(soc_config(seed));
                rig.enable_eth_telemetry(TelemetryConfig::default());
                Rig::Soc(Box::new(rig))
            }
            Workload::Regulated4Mgr => Rig::Reg(Box::new(RegRig::new(
                reg_managers(),
                reg_trunk_tmu(),
                MemSub::new(MemConfig::default()),
                seed,
            ))),
        }
    }

    /// The pinned outcome of [`DEFAULT_SEED`] after warm-up plus
    /// [`MODEL_CYCLES`].
    pub fn pin(self) -> Pin {
        match self {
            Workload::LinkDeep => Pin {
                cycle: 1_019_456,
                issued: &[134_119],
                completed: &[134_087],
                mem_beats: 972_017,
                eth_beats: 0,
                write_p99: 64,
                read_p99: 1024,
            },
            Workload::SocFig10 => Pin {
                cycle: 1_041_984,
                issued: &[65_804, 19_078],
                completed: &[65_800, 19_076],
                mem_beats: 476_227,
                eth_beats: 715_217,
                write_p99: 256,
                read_p99: 128,
            },
            Workload::Regulated4Mgr => Pin {
                cycle: 1_017_408,
                issued: &[29_639, 56_780, 56_620, 15_900],
                completed: &[29_637, 56_776, 56_616, 15_899],
                mem_beats: 1_146_635,
                eth_beats: 0,
                write_p99: 128,
                read_p99: 256,
            },
        }
    }
}

fn link_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4, 8, 16],
        ids: vec![0, 1, 2, 3],
        addr_base: MEM_WINDOW_BASE,
        addr_span: MEM_WINDOW_BYTES,
        max_outstanding: 32,
        issue_gap: 0,
        total_txns: None,
        verify_data: false,
    }
}

/// Full-Counter with default budgets. As in the idle-path benchmark, the
/// per-ID quota (4 IDs x 32) covers the whole outstanding window, so the
/// TMU never stalls the manager on a quota.
fn link_tmu() -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .max_uniq_ids(4)
        .txn_per_id(32)
        .build()
        .expect("valid link_deep TMU configuration")
}

fn link_mem() -> MemSub {
    MemSub::new(MemConfig {
        max_inflight: 32,
        ..MemConfig::default()
    })
}

/// The Fig. 10 system with the §IV mixed-criticality monitors: Ethernet
/// on a Full-Counter, memory on a prescaled Tiny-Counter, both with the
/// repository's budgets for this topology (`BudgetConfig::system_level`;
/// the IP-level defaults time out on crossbar queueing). The protocol
/// checkers are off: with Ethernet reads and memory reads competing for
/// the demux's R arbitration they report `RStable` on healthy traffic.
/// The CPU keeps its default pattern except for the address window.
fn soc_config(seed: u64) -> SystemConfig {
    let defaults = SystemConfig::default();
    let monitor = |variant, prescaler| {
        TmuConfig::builder()
            .variant(variant)
            .prescaler(prescaler)
            .budgets(BudgetConfig::system_level())
            .check_protocol(false)
            .build()
            .expect("valid soc_fig10 TMU configuration")
    };
    SystemConfig {
        tmu: monitor(TmuVariant::FullCounter, 1),
        mem_tmu: Some(monitor(TmuVariant::TinyCounter, 32)),
        cpu_pattern: TrafficPattern {
            addr_base: MEM_WINDOW_BASE,
            addr_span: MEM_WINDOW_BYTES,
            ..defaults.cpu_pattern
        },
        seed,
        ..defaults
    }
}

fn backpressure(write: DirBudget, read: DirBudget, txn_per_id: u32) -> RegulatorConfig {
    RegulatorConfig::builder()
        .write_budget(write)
        .read_budget(read)
        .window_cycles(256)
        .txn_per_id(txn_per_id)
        .build()
        .expect("valid regulator configuration")
}

/// Critical, two background and one greedy manager, each behind an
/// enabled back-pressure regulator.
fn reg_managers() -> Vec<(TrafficPattern, Option<RegulatorConfig>)> {
    let window = TrafficPattern {
        addr_base: MEM_WINDOW_BASE,
        addr_span: MEM_WINDOW_BYTES,
        ..TrafficPattern::default()
    };
    let critical = TrafficPattern {
        burst_lens: vec![1, 2, 4],
        ids: vec![0, 1],
        max_outstanding: 2,
        ..window.clone()
    };
    let greedy = TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![16],
        max_outstanding: 8,
        issue_gap: 0,
        ..window.clone()
    };
    let critical_budget = DirBudget {
        bytes_per_window: 2048,
        txns_per_window: 32,
    };
    let background_budget = DirBudget {
        bytes_per_window: 1024,
        txns_per_window: 16,
    };
    // The greedy writer's budget, as in the mixed-criticality example.
    let greedy_budget = DirBudget {
        bytes_per_window: 512,
        txns_per_window: 4,
    };
    vec![
        (
            critical,
            Some(backpressure(critical_budget, critical_budget, 4)),
        ),
        (
            window.clone(),
            Some(backpressure(background_budget, background_budget, 4)),
        ),
        (
            window,
            Some(backpressure(background_budget, background_budget, 4)),
        ),
        (
            greedy,
            Some(backpressure(greedy_budget, DirBudget::unlimited(), 8)),
        ),
    ]
}

/// Tiny-Counter sized for the mux's extended ID space: four managers of
/// up to four IDs each, eight transactions per ID.
fn reg_trunk_tmu() -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .max_uniq_ids(16)
        .txn_per_id(8)
        .build()
        .expect("valid trunk TMU configuration")
}

/// The simulated outcome of a model at one cycle. Equal outcomes mean the
/// same simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Cycles simulated.
    pub cycle: u64,
    /// Per manager: transactions issued (AW or AR fired).
    pub issued: Vec<u64>,
    /// Per manager: transactions completed, any response.
    pub completed: Vec<u64>,
    /// Completions with SLVERR or DECERR, all managers.
    pub errored: u64,
    /// Faults detected by the workload's TMUs.
    pub faults: u64,
    /// Regulator isolations.
    pub isolations: u64,
    /// Memory beats, written plus read.
    pub mem_beats: u64,
    /// Ethernet beats, transmitted plus received.
    pub eth_beats: u64,
    /// Manager 0's write round-trip p99 (histogram bucket bound).
    pub write_p99: u64,
    /// Manager 0's read round-trip p99 (histogram bucket bound).
    pub read_p99: u64,
    /// Regulator grants.
    pub grants: u64,
    /// Regulator denial episodes.
    pub denies: u64,
    /// Telemetry events recorded (`TelemetryHub::seq`), all hubs.
    pub events: u64,
}

impl Outcome {
    /// Fills the manager-side fields from each manager's statistics.
    pub fn with_managers<'a>(mut self, stats: impl IntoIterator<Item = &'a MgrStats>) -> Self {
        for (i, s) in stats.into_iter().enumerate() {
            self.issued.push(s.writes_issued + s.reads_issued);
            self.completed.push(s.total_completed());
            self.errored += s.writes_errored + s.reads_errored;
            if i == 0 {
                self.write_p99 = s.write_latency.percentile(99.0).unwrap_or(0);
                self.read_p99 = s.read_latency.percentile(99.0).unwrap_or(0);
            }
        }
        self
    }

    /// Adds the TMU-side fields of `tmu`.
    pub fn with_tmu(mut self, tmu: &Tmu) -> Self {
        self.faults += tmu.faults_detected();
        self.events += tmu.telemetry().seq();
        self
    }

    /// Adds the fields of `reg`.
    pub fn with_regulator(mut self, reg: &Regulator) -> Self {
        self.isolations += reg.isolations();
        self.grants += reg.grants();
        self.denies += reg.denies();
        self.events += reg.telemetry().seq();
        self
    }

    /// Operations that failed: errored completions, TMU faults and
    /// regulator isolations.
    pub fn failures(&self) -> u64 {
        self.errored + self.faults + self.isolations
    }

    /// Transactions issued by all managers.
    pub fn total_issued(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Transactions completed by all managers.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }
}

/// The pinned part of an [`Outcome`]; faults, isolations and errored
/// completions are pinned at zero.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Cycles simulated: warm-up plus [`MODEL_CYCLES`].
    pub cycle: u64,
    /// Per-manager issued transactions.
    pub issued: &'static [u64],
    /// Per-manager completed transactions.
    pub completed: &'static [u64],
    /// Memory beats.
    pub mem_beats: u64,
    /// Ethernet beats.
    pub eth_beats: u64,
    /// Manager 0's write p99.
    pub write_p99: u64,
    /// Manager 0's read p99.
    pub read_p99: u64,
}

impl Pin {
    /// Describes every field in which `got` differs from the pin.
    pub fn mismatches(&self, got: &Outcome) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, want: String, have: String| {
            if want != have {
                out.push(format!("{name}: pinned {want}, got {have}"));
            }
        };
        check("cycle", self.cycle.to_string(), got.cycle.to_string());
        check(
            "issued",
            format!("{:?}", self.issued),
            format!("{:?}", got.issued),
        );
        check(
            "completed",
            format!("{:?}", self.completed),
            format!("{:?}", got.completed),
        );
        check(
            "mem_beats",
            self.mem_beats.to_string(),
            got.mem_beats.to_string(),
        );
        check(
            "eth_beats",
            self.eth_beats.to_string(),
            got.eth_beats.to_string(),
        );
        check(
            "write_p99",
            self.write_p99.to_string(),
            got.write_p99.to_string(),
        );
        check(
            "read_p99",
            self.read_p99.to_string(),
            got.read_p99.to_string(),
        );
        check("errored", "0".into(), got.errored.to_string());
        check("faults", "0".into(), got.faults.to_string());
        check("isolations", "0".into(), got.isolations.to_string());
        out
    }
}

/// What the benchmark needs from a simulation, harness or rig alike.
pub trait Model {
    /// Simulates one cycle.
    fn step(&mut self);
    /// Simulates `cycles` cycles.
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
    /// The simulated outcome so far.
    fn outcome(&self) -> Outcome;
    /// The memory subordinate.
    fn mem(&self) -> &MemSub;
    /// Transactions held by the workload's TMUs.
    fn outstanding(&self) -> usize;
}

/// A workload on its public harness.
#[derive(Debug)]
pub enum Harness {
    /// `link_deep` on `GuardedLink`.
    Link(Box<GuardedLink<MemSub>>),
    /// `soc_fig10` on `System`.
    Soc(Box<System>),
    /// `regulated_4mgr` on `RegulatedLink`.
    Reg(Box<RegulatedLink<MemSub>>),
}

impl Model for Harness {
    fn step(&mut self) {
        match self {
            Harness::Link(h) => h.step(),
            Harness::Soc(h) => h.step(),
            Harness::Reg(h) => h.step(),
        }
    }

    fn run(&mut self, cycles: u64) {
        match self {
            Harness::Link(h) => h.run(cycles),
            Harness::Soc(h) => h.run(cycles),
            Harness::Reg(h) => h.run(cycles),
        }
    }

    fn outcome(&self) -> Outcome {
        match self {
            Harness::Link(h) => Outcome {
                cycle: h.cycle(),
                mem_beats: h.sub.beats_written() + h.sub.beats_read(),
                ..Outcome::default()
            }
            .with_managers([h.mgr.stats()])
            .with_tmu(&h.tmu),
            Harness::Soc(h) => {
                let mem_tmu = h.mem_tmu().expect("soc_fig10 monitors the memory port");
                Outcome {
                    cycle: h.cycle(),
                    mem_beats: h.mem().beats_written() + h.mem().beats_read(),
                    eth_beats: h.eth().beats_txed() + h.eth().beats_rxed(),
                    ..Outcome::default()
                }
                .with_managers([h.cpu_stats(), h.dma_stats()])
                .with_tmu(h.tmu())
                .with_tmu(mem_tmu)
            }
            Harness::Reg(h) => {
                let n = h.fabric().ports();
                let mut out = Outcome {
                    cycle: h.cycle(),
                    mem_beats: h.sub().beats_written() + h.sub().beats_read(),
                    ..Outcome::default()
                }
                .with_managers((0..n).map(|i| h.stats(i)))
                .with_tmu(h.tmu().expect("regulated_4mgr has a trunk TMU"));
                for i in 0..n {
                    out = out.with_regulator(h.regulator(i).expect("every port is regulated"));
                }
                out
            }
        }
    }

    fn mem(&self) -> &MemSub {
        match self {
            Harness::Link(h) => &h.sub,
            Harness::Soc(h) => h.mem(),
            Harness::Reg(h) => h.sub(),
        }
    }

    fn outstanding(&self) -> usize {
        match self {
            Harness::Link(h) => h.tmu.outstanding(),
            Harness::Soc(h) => h.tmu().outstanding() + h.mem_tmu().map_or(0, Tmu::outstanding),
            Harness::Reg(h) => h.tmu().map_or(0, Tmu::outstanding),
        }
    }
}

/// Tracks how much of the memory window has been written, through
/// `MemSub::word` only: a written word no longer reads as its
/// never-written pattern. Words stay written, so only the words still
/// unwritten are checked again.
#[derive(Debug)]
struct Coverage {
    unwritten: Vec<u64>,
}

impl Coverage {
    fn new() -> Self {
        Coverage {
            unwritten: (0..MEM_WINDOW_BYTES / 8)
                .map(|word| MEM_WINDOW_BASE + word * 8)
                .collect(),
        }
    }

    /// Share of the window's words written so far.
    fn written_share(&mut self, mem: &MemSub) -> f64 {
        self.unwritten
            .retain(|&addr| mem.word(addr) == pattern_word(addr));
        1.0 - self.unwritten.len() as f64 / (MEM_WINDOW_BYTES / 8) as f64
    }
}

/// Runs `model` until traffic is steady: the monitors have reached the
/// workload's working depth and [`STEADY_COVERAGE`] of the memory window
/// has been written, so the word store has all but stopped growing.
/// Returns the warm-up length in cycles.
///
/// # Errors
///
/// Returns a message if the model is not steady within the warm-up
/// limit.
pub fn warm_up(workload: Workload, model: &mut impl Model) -> Result<u64, String> {
    let mut coverage = Coverage::new();
    let mut deepest = 0;
    let mut cycles = 0;
    while cycles < WARM_LIMIT {
        for _ in 0..WARM_BLOCK {
            model.step();
            deepest = deepest.max(model.outstanding());
        }
        cycles += WARM_BLOCK;
        if deepest >= workload.working_depth()
            && coverage.written_share(model.mem()) >= STEADY_COVERAGE
        {
            return Ok(cycles);
        }
    }
    Err(format!(
        "{}: not steady after {WARM_LIMIT} cycles (deepest occupancy {deepest})",
        workload.name()
    ))
}
