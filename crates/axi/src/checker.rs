//! AXI4 protocol rules, split by what they need to know.
//!
//! The rules the paper's "Prot Check" capability covers (Table II, in the
//! spirit of AXIChecker et al.) fall into two groups:
//!
//! * **Wire rules** need no transaction context: stability on all five
//!   channels (payload and `valid` held while waiting for `ready`),
//!   burst legality when AW or AR fires (reserved encoding, 4 KiB
//!   crossing, FIXED longer than 16 beats, beat size wider than the bus,
//!   WRAP length and alignment) and an all-zero strobe when W fires.
//!   [`WireRules`] checks them with one held beat per channel. It is
//!   shared with the TMU.
//! * **Context rules** need the outstanding transactions: W without an
//!   address, WLAST early or missing, B without a transaction or before
//!   WLAST, R without a transaction, RLAST early or missing. Inside the
//!   TMU the guards answer them from the lookups their Outstanding
//!   Transaction Table already makes.
//!
//! [`ProtocolChecker`] is [`WireRules`] plus its own shadow queues of
//! outstanding transactions for the context rules. It is the standalone
//! reference oracle: it needs nothing but the wires, so property tests
//! use it to check the TMU and any other port.
//!
//! Both are pure observers: they never drive wires.
//!
//! # Example
//!
//! ```
//! use axi4::prelude::*;
//!
//! let mut chk = ProtocolChecker::new();
//! let mut port = AxiPort::new();
//!
//! // A W beat with WLAST on the first beat of a 2-beat burst.
//! port.begin_cycle();
//! port.aw.drive(AwBeat::new(AxiId(0), Addr(0), BurstLen::from_beats(2).unwrap(),
//!                           BurstSize::from_bytes(8).unwrap(), BurstKind::Incr));
//! port.aw.set_ready(true);
//! let v = chk.observe(&port, 0);
//! assert!(v.is_empty());
//!
//! port.begin_cycle();
//! port.w.drive(WBeat::new(1, true)); // premature WLAST
//! port.w.set_ready(true);
//! let v = chk.observe(&port, 1);
//! assert_eq!(v[0].rule, Rule::WlastEarly);
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::beat::{AddrBeat, ArBeat, AwBeat, BBeat, RBeat, WBeat};
use crate::burst::crosses_4k_boundary;
use crate::channel::{AxiPort, Channel};
use crate::hash::FoldHashMap;
use crate::types::{AxiId, BurstKind};

/// Identifiers for every protocol rule the checker enforces.
///
/// Naming follows the channel the rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// AW payload changed or valid dropped while waiting for ready.
    AwStable,
    /// W payload changed or valid dropped while waiting for ready.
    WStable,
    /// B payload changed or valid dropped while waiting for ready.
    BStable,
    /// AR payload changed or valid dropped while waiting for ready.
    ArStable,
    /// R payload changed or valid dropped while waiting for ready.
    RStable,
    /// Write burst crosses a 4 KiB boundary.
    AwCross4k,
    /// Read burst crosses a 4 KiB boundary.
    ArCross4k,
    /// Write burst uses the reserved `0b11` burst encoding.
    AwBurstReserved,
    /// Read burst uses the reserved `0b11` burst encoding.
    ArBurstReserved,
    /// Write WRAP burst with illegal length (not 2/4/8/16 beats).
    AwWrapLen,
    /// Read WRAP burst with illegal length (not 2/4/8/16 beats).
    ArWrapLen,
    /// Write WRAP burst with a start address unaligned to the beat size.
    AwWrapUnaligned,
    /// Read WRAP burst with a start address unaligned to the beat size.
    ArWrapUnaligned,
    /// `WLAST` asserted before the final beat of the burst.
    WlastEarly,
    /// Final beat of the burst transferred without `WLAST`.
    WlastMissing,
    /// W beat transferred with no outstanding write address to attach to.
    WWithoutAw,
    /// W beat with all strobe bits low on a beat the burst requires.
    WStrbAllZero,
    /// B response for an ID with no outstanding write at all.
    BWithoutTxn,
    /// B response issued before the write's final data beat.
    BBeforeWlast,
    /// R beat for an ID with no outstanding read.
    RWithoutTxn,
    /// `RLAST` asserted before the final beat of the read burst.
    RlastEarly,
    /// Final read beat transferred without `RLAST`.
    RlastMissing,
    /// The reserved burst encoding also flagged on a per-beat basis.
    BurstReserved,
    /// FIXED write burst longer than the 16-beat AXI4 maximum.
    AwFixedLen,
    /// FIXED read burst longer than the 16-beat AXI4 maximum.
    ArFixedLen,
    /// Write beat size exceeds the configured data-bus width.
    AwSizeTooWide,
    /// Read beat size exceeds the configured data-bus width.
    ArSizeTooWide,
}

impl Rule {
    /// A short, stable mnemonic for logs and tables (e.g. `AW_STABLE`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Rule::AwStable => "AW_STABLE",
            Rule::WStable => "W_STABLE",
            Rule::BStable => "B_STABLE",
            Rule::ArStable => "AR_STABLE",
            Rule::RStable => "R_STABLE",
            Rule::AwCross4k => "AW_4K",
            Rule::ArCross4k => "AR_4K",
            Rule::AwBurstReserved => "AW_BURST_RSVD",
            Rule::ArBurstReserved => "AR_BURST_RSVD",
            Rule::AwWrapLen => "AW_WRAP_LEN",
            Rule::ArWrapLen => "AR_WRAP_LEN",
            Rule::AwWrapUnaligned => "AW_WRAP_ALIGN",
            Rule::ArWrapUnaligned => "AR_WRAP_ALIGN",
            Rule::WlastEarly => "WLAST_EARLY",
            Rule::WlastMissing => "WLAST_MISSING",
            Rule::WWithoutAw => "W_NO_AW",
            Rule::WStrbAllZero => "W_STRB_ZERO",
            Rule::BWithoutTxn => "B_NO_TXN",
            Rule::BBeforeWlast => "B_BEFORE_WLAST",
            Rule::RWithoutTxn => "R_NO_TXN",
            Rule::RlastEarly => "RLAST_EARLY",
            Rule::RlastMissing => "RLAST_MISSING",
            Rule::BurstReserved => "BURST_RSVD",
            Rule::AwFixedLen => "AW_FIXED_LEN",
            Rule::ArFixedLen => "AR_FIXED_LEN",
            Rule::AwSizeTooWide => "AW_SIZE_WIDE",
            Rule::ArSizeTooWide => "AR_SIZE_WIDE",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// Transaction ID involved, when one is attributable.
    pub id: Option<AxiId>,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {} — {}", self.cycle, self.rule, self.detail)?;
        if let Some(id) = self.id {
            write!(f, " ({id})")?;
        }
        Ok(())
    }
}

/// Shadow bookkeeping for one in-flight write burst.
#[derive(Debug, Clone)]
struct WriteCtx {
    aw: AwBeat,
    beats_done: u16,
}

/// Shadow bookkeeping for one in-flight read burst.
#[derive(Debug, Clone)]
struct ReadCtx {
    ar: ArBeat,
    beats_done: u16,
}

/// Aggregate counters the checker maintains alongside violations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Write transactions whose AW beat was observed.
    pub writes_started: u64,
    /// Write transactions whose B beat was observed.
    pub writes_completed: u64,
    /// Read transactions whose AR beat was observed.
    pub reads_started: u64,
    /// Read transactions whose final R beat was observed.
    pub reads_completed: u64,
    /// Data beats observed on W.
    pub w_beats: u64,
    /// Data beats observed on R.
    pub r_beats: u64,
    /// Total violations reported.
    pub violations: u64,
}

/// Configuration knobs for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// AXI4 permits write data to be issued before its address. The TMU's
    /// EI table assumes address-first ordering (the common interconnect
    /// behaviour), so by default early data is reported as
    /// [`Rule::WWithoutAw`]. Set `true` to silently buffer early beats.
    pub allow_early_w: bool,
    /// Maximum early W beats buffered when `allow_early_w` is set.
    pub early_w_depth: usize,
    /// Data-bus width in bytes: an `AxSIZE` wider than this is flagged
    /// ([`Rule::AwSizeTooWide`] / [`Rule::ArSizeTooWide`]).
    pub bus_bytes: u32,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            allow_early_w: false,
            early_w_depth: 16,
            bus_bytes: 8,
        }
    }
}

/// Whether `ch` holds a beat waiting for `ready`.
#[inline]
fn waits<T>(ch: &Channel<T>) -> bool {
    ch.valid() && !ch.ready()
}

/// Whether any of the five channels holds a beat waiting for `ready`.
#[inline]
fn any_waits(port: &AxiPort) -> bool {
    waits(&port.aw) | waits(&port.w) | waits(&port.b) | waits(&port.ar) | waits(&port.r)
}

/// The rules one address channel's burst legality reports under.
struct BurstRules {
    reserved: Rule,
    cross_4k: Rule,
    fixed_len: Rule,
    size_too_wide: Rule,
    wrap_len: Rule,
    wrap_unaligned: Rule,
}

/// An address beat and the rules its channel's burst legality reports
/// under.
trait BurstChecked: AddrBeat {
    const RULES: BurstRules;
}

impl BurstChecked for AwBeat {
    const RULES: BurstRules = BurstRules {
        reserved: Rule::AwBurstReserved,
        cross_4k: Rule::AwCross4k,
        fixed_len: Rule::AwFixedLen,
        size_too_wide: Rule::AwSizeTooWide,
        wrap_len: Rule::AwWrapLen,
        wrap_unaligned: Rule::AwWrapUnaligned,
    };
}

impl BurstChecked for ArBeat {
    const RULES: BurstRules = BurstRules {
        reserved: Rule::ArBurstReserved,
        cross_4k: Rule::ArCross4k,
        fixed_len: Rule::ArFixedLen,
        size_too_wide: Rule::ArSizeTooWide,
        wrap_len: Rule::ArWrapLen,
        wrap_unaligned: Rule::ArWrapUnaligned,
    };
}

/// The stateless wire rules: stability, burst legality and strobes. See
/// the [module documentation](self) for the rule split.
///
/// The only state is one held beat per channel, captured while the beat
/// waits for `ready`.
///
/// ```
/// use axi4::checker::WireRules;
/// use axi4::prelude::*;
///
/// let mut rules = WireRules::default();
/// let mut out = Vec::new();
/// let mut port = AxiPort::new();
/// port.begin_cycle();
/// port.w.drive(WBeat::new(1, true)); // waits: no ready
/// rules.observe(&port, 0, &mut out);
/// port.begin_cycle(); // valid dropped before ready
/// rules.observe(&port, 1, &mut out);
/// assert_eq!(out[0].rule, Rule::WStable);
/// ```
#[derive(Debug, Clone)]
pub struct WireRules {
    bus_bytes: u32,
    // Stability registers: Some(payload) iff last cycle had valid && !ready.
    held_aw: Option<AwBeat>,
    held_w: Option<WBeat>,
    held_b: Option<BBeat>,
    held_ar: Option<ArBeat>,
    held_r: Option<RBeat>,
    /// Whether any stability register is set.
    holding: bool,
}

impl Default for WireRules {
    fn default() -> Self {
        Self::new(CheckerConfig::default().bus_bytes)
    }
}

impl WireRules {
    /// Wire rules for a data bus `bus_bytes` wide.
    #[must_use]
    pub fn new(bus_bytes: u32) -> Self {
        WireRules {
            bus_bytes,
            held_aw: None,
            held_w: None,
            held_b: None,
            held_ar: None,
            held_r: None,
            holding: false,
        }
    }

    /// Forgets the held beats, so the next cycle checks no stability
    /// (after a reset, or when checking resumes after a pause).
    pub fn flush(&mut self) {
        *self = Self::new(self.bus_bytes);
    }

    /// Checks the settled wires of `port` for `cycle` and appends any
    /// violations to `out`. Call once per simulated cycle, after all
    /// drive passes and before the clock commit.
    ///
    /// A legal busy cycle costs a few comparisons: stability work only
    /// runs while a beat is held or waits, and a fired INCR burst within
    /// its 4 KiB page and the bus width skips the other burst rules.
    #[inline]
    pub fn observe(&mut self, port: &AxiPort, cycle: u64, out: &mut Vec<Violation>) {
        let waiting = any_waits(port);
        if self.holding || waiting {
            self.stability(port, waiting, cycle, out);
        }
        if let Some(aw) = port.aw.fired_beat() {
            self.check_burst(aw, cycle, out);
        }
        if let Some(w) = port.w.fired_beat() {
            Self::w_strobes(w, cycle, out);
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.check_burst(ar, cycle, out);
        }
    }

    /// Burst legality of one fired address beat. An INCR burst within
    /// one 4 KiB page and the bus width, the common case, is legal under
    /// every rule.
    #[inline]
    fn check_burst<B: BurstChecked>(&self, beat: &B, cycle: u64, out: &mut Vec<Violation>) {
        let (addr, len, size, kind) = (beat.addr(), beat.burst_len(), beat.size(), beat.burst());
        let plain = kind == BurstKind::Incr
            && size.bytes() <= self.bus_bytes
            && !crosses_4k_boundary(addr, size, len, kind);
        if !plain {
            self.report_burst(beat, cycle, out);
        }
    }

    /// Checks last cycle's held beats against the wires, then captures
    /// the beats `waiting` this cycle.
    fn stability(&mut self, port: &AxiPort, waiting: bool, cycle: u64, out: &mut Vec<Violation>) {
        fn hold<T: Copy + PartialEq + fmt::Debug>(
            held: &mut Option<T>,
            ch: &Channel<T>,
            rule: Rule,
            cycle: u64,
            out: &mut Vec<Violation>,
        ) {
            if let Some(h) = *held {
                match ch.beat() {
                    None => out.push(Violation {
                        rule,
                        cycle,
                        id: None,
                        detail: "valid deasserted before ready".to_string(),
                    }),
                    Some(p) if *p != h => out.push(Violation {
                        rule,
                        cycle,
                        id: None,
                        detail: format!("payload changed while waiting for ready: {h:?} -> {p:?}"),
                    }),
                    Some(_) => {}
                }
            }
            *held = if waits(ch) { ch.beat().copied() } else { None };
        }
        hold(&mut self.held_aw, &port.aw, Rule::AwStable, cycle, out);
        hold(&mut self.held_w, &port.w, Rule::WStable, cycle, out);
        hold(&mut self.held_b, &port.b, Rule::BStable, cycle, out);
        hold(&mut self.held_ar, &port.ar, Rule::ArStable, cycle, out);
        hold(&mut self.held_r, &port.r, Rule::RStable, cycle, out);
        self.holding = waiting;
    }

    /// Reports every burst rule `beat` breaks.
    #[cold]
    fn report_burst<B: BurstChecked>(&self, beat: &B, cycle: u64, out: &mut Vec<Violation>) {
        let rules = &B::RULES;
        let id = beat.id();
        let (addr, len, size, burst) = (beat.addr(), beat.burst_len(), beat.size(), beat.burst());
        let mut flag = |rule: Rule, detail: String| {
            out.push(Violation {
                rule,
                cycle,
                id: Some(id),
                detail,
            });
        };
        if burst == BurstKind::Reserved {
            flag(rules.reserved, format!("reserved burst encoding on {beat}"));
        }
        if crosses_4k_boundary(addr, size, len, burst) {
            flag(rules.cross_4k, format!("{beat} crosses 4 KiB boundary"));
        }
        if burst == BurstKind::Fixed && len.beats() > 16 {
            flag(rules.fixed_len, format!("FIXED burst of {len}"));
        }
        if size.bytes() > self.bus_bytes {
            flag(
                rules.size_too_wide,
                format!("{size} exceeds the {}-byte bus", self.bus_bytes),
            );
        }
        if burst == BurstKind::Wrap {
            if !len.is_legal_wrap() {
                flag(rules.wrap_len, format!("wrap burst of {len}"));
            }
            if !addr.is_aligned(u64::from(size.bytes())) {
                flag(
                    rules.wrap_unaligned,
                    format!("wrap burst start {addr} unaligned to {size}"),
                );
            }
        }
    }

    #[inline]
    fn w_strobes(w: &WBeat, cycle: u64, out: &mut Vec<Violation>) {
        if w.strb == 0 {
            out.push(Violation {
                rule: Rule::WStrbAllZero,
                cycle,
                id: None,
                detail: "write data beat with all strobes low".to_string(),
            });
        }
    }
}

/// The standalone protocol checker: [`WireRules`] plus shadow queues of
/// the outstanding transactions for the context rules. See the
/// [module documentation](self) for an overview and example.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    cfg: CheckerConfig,
    wire: WireRules,
    // Write bursts in AW order whose data is still arriving.
    w_inflight: VecDeque<WriteCtx>,
    // Early W beats observed before any AW (only if allowed).
    early_w: VecDeque<WBeat>,
    // Writes with all data received, awaiting B, per ID in order. Queues
    // are kept when they empty (bounded by the ID space), so a busy ID
    // does not reallocate per transaction.
    awaiting_b: FoldHashMap<AxiId, VecDeque<AwBeat>>,
    // Reads in flight per ID in order; emptied queues kept likewise.
    r_inflight: FoldHashMap<AxiId, VecDeque<ReadCtx>>,
    stats: CheckerStats,
}

impl Default for ProtocolChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl ProtocolChecker {
    /// Creates a checker with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(CheckerConfig::default())
    }

    /// Creates a checker with an explicit configuration.
    #[must_use]
    pub fn with_config(cfg: CheckerConfig) -> Self {
        ProtocolChecker {
            cfg,
            wire: WireRules::new(cfg.bus_bytes),
            w_inflight: VecDeque::new(),
            early_w: VecDeque::new(),
            awaiting_b: FoldHashMap::default(),
            r_inflight: FoldHashMap::default(),
            stats: CheckerStats::default(),
        }
    }

    /// Aggregate counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Number of writes currently tracked (data phase + awaiting B).
    #[must_use]
    pub fn outstanding_writes(&self) -> usize {
        self.w_inflight.len() + self.awaiting_b.values().map(VecDeque::len).sum::<usize>()
    }

    /// Number of reads currently tracked.
    #[must_use]
    pub fn outstanding_reads(&self) -> usize {
        self.r_inflight.values().map(VecDeque::len).sum()
    }

    /// Discards all shadow transaction state (used after the TMU aborts a
    /// subordinate and resets it). Stability shadows are also cleared.
    pub fn flush(&mut self) {
        self.wire.flush();
        self.w_inflight.clear();
        self.early_w.clear();
        self.awaiting_b.clear();
        self.r_inflight.clear();
    }

    /// Observes the settled wires of `port` for the current `cycle` and
    /// returns any violations detected this cycle.
    ///
    /// Must be called exactly once per simulated cycle, after all drive
    /// passes and before the clock commit. Violations come in channel
    /// order: stability first, then AW, W, B, AR and R.
    pub fn observe(&mut self, port: &AxiPort, cycle: u64) -> Vec<Violation> {
        let mut out = Vec::new();
        self.wire.stability(port, any_waits(port), cycle, &mut out);
        if let Some(aw) = port.aw.fired_beat().copied() {
            self.stats.writes_started += 1;
            self.wire.check_burst(&aw, cycle, &mut out);
            self.track_aw(aw, cycle, &mut out);
        }
        if let Some(w) = port.w.fired_beat().copied() {
            self.stats.w_beats += 1;
            WireRules::w_strobes(&w, cycle, &mut out);
            self.check_w(w, cycle, &mut out);
        }
        if let Some(b) = port.b.fired_beat().copied() {
            self.check_b(b, cycle, &mut out);
        }
        if let Some(ar) = port.ar.fired_beat().copied() {
            self.stats.reads_started += 1;
            self.wire.check_burst(&ar, cycle, &mut out);
            self.r_inflight
                .entry(ar.id)
                .or_default()
                .push_back(ReadCtx { ar, beats_done: 0 });
        }
        if let Some(r) = port.r.fired_beat().copied() {
            self.check_r(r, cycle, &mut out);
        }
        self.stats.violations += out.len() as u64;
        out
    }

    fn track_aw(&mut self, aw: AwBeat, cycle: u64, out: &mut Vec<Violation>) {
        self.w_inflight.push_back(WriteCtx { aw, beats_done: 0 });
        // Attach any buffered early data beats.
        while !self.early_w.is_empty() && !self.w_inflight.is_empty() {
            let w = self
                .early_w
                .pop_front()
                .expect("loop condition checked early_w is nonempty");
            self.consume_w_beat(w, cycle, out);
        }
    }

    fn check_w(&mut self, w: WBeat, cycle: u64, out: &mut Vec<Violation>) {
        if self.w_inflight.is_empty() {
            if self.cfg.allow_early_w && self.early_w.len() < self.cfg.early_w_depth {
                self.early_w.push_back(w);
            } else {
                out.push(Violation {
                    rule: Rule::WWithoutAw,
                    cycle,
                    id: None,
                    detail: "write data with no outstanding write address".to_string(),
                });
            }
            return;
        }
        self.consume_w_beat(w, cycle, out);
    }

    fn consume_w_beat(&mut self, w: WBeat, cycle: u64, out: &mut Vec<Violation>) {
        let Some(ctx) = self.w_inflight.front_mut() else {
            return;
        };
        ctx.beats_done += 1;
        let expected = ctx.aw.len.beats();
        let is_final = ctx.beats_done == expected;
        let id = ctx.aw.id;
        if w.last && !is_final {
            out.push(Violation {
                rule: Rule::WlastEarly,
                cycle,
                id: Some(id),
                detail: format!("WLAST on beat {}/{}", ctx.beats_done, expected),
            });
            // Resynchronize on WLAST: hardware checkers treat WLAST as the
            // end of the burst regardless.
            let done = self.w_inflight.pop_front().expect("front exists");
            self.awaiting_b.entry(id).or_default().push_back(done.aw);
            return;
        }
        if is_final && !w.last {
            out.push(Violation {
                rule: Rule::WlastMissing,
                cycle,
                id: Some(id),
                detail: format!("final beat {}/{} without WLAST", ctx.beats_done, expected),
            });
        }
        if is_final {
            let done = self.w_inflight.pop_front().expect("front exists");
            self.awaiting_b
                .entry(done.aw.id)
                .or_default()
                .push_back(done.aw);
        }
    }

    fn check_b(&mut self, b: BBeat, cycle: u64, out: &mut Vec<Violation>) {
        // An emptied queue stays in the map, so the ID's next write
        // reuses its buffer.
        if let Some(queue) = self.awaiting_b.get_mut(&b.id) {
            if queue.pop_front().is_some() {
                self.stats.writes_completed += 1;
                return;
            }
        }
        // No completed write for this ID: either it's still in data phase
        // (B before WLAST) or entirely unknown.
        let in_data_phase = self.w_inflight.iter().any(|c| c.aw.id == b.id);
        let rule = if in_data_phase {
            Rule::BBeforeWlast
        } else {
            Rule::BWithoutTxn
        };
        out.push(Violation {
            rule,
            cycle,
            id: Some(b.id),
            detail: format!("unexpected write response {b}"),
        });
    }

    fn check_r(&mut self, r: RBeat, cycle: u64, out: &mut Vec<Violation>) {
        self.stats.r_beats += 1;
        let Some(ctx) = self.r_inflight.get_mut(&r.id).and_then(VecDeque::front_mut) else {
            out.push(Violation {
                rule: Rule::RWithoutTxn,
                cycle,
                id: Some(r.id),
                detail: format!("read data {r} with no outstanding read"),
            });
            return;
        };
        ctx.beats_done += 1;
        let expected = ctx.ar.len.beats();
        let is_final = ctx.beats_done == expected;
        if r.last && !is_final {
            out.push(Violation {
                rule: Rule::RlastEarly,
                cycle,
                id: Some(r.id),
                detail: format!("RLAST on beat {}/{}", ctx.beats_done, expected),
            });
        }
        if is_final && !r.last {
            out.push(Violation {
                rule: Rule::RlastMissing,
                cycle,
                id: Some(r.id),
                detail: format!("final beat {}/{} without RLAST", ctx.beats_done, expected),
            });
        }
        // RLAST terminates the burst from the checker's perspective even
        // when early; reaching the expected count does likewise.
        // The emptied queue stays in the map, as in `check_b`.
        if r.last || is_final {
            if let Some(queue) = self.r_inflight.get_mut(&r.id) {
                queue.pop_front();
            }
            self.stats.reads_completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Addr, BurstLen, BurstSize, Resp};

    fn aw(id: u16, beats: u16) -> AwBeat {
        AwBeat::new(
            AxiId(id),
            Addr(0x1000),
            BurstLen::from_beats(beats).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    fn ar(id: u16, beats: u16) -> ArBeat {
        ArBeat::new(
            AxiId(id),
            Addr(0x2000),
            BurstLen::from_beats(beats).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    /// Drives one cycle where the given closure sets up the port, all
    /// driven channels are made ready, and the checker observes.
    fn cycle(chk: &mut ProtocolChecker, n: u64, f: impl FnOnce(&mut AxiPort)) -> Vec<Violation> {
        let mut port = AxiPort::new();
        port.begin_cycle();
        f(&mut port);
        chk.observe(&port, n)
    }

    fn fire_aw(port: &mut AxiPort, beat: AwBeat) {
        port.aw.drive(beat);
        port.aw.set_ready(true);
    }

    fn fire_w(port: &mut AxiPort, beat: WBeat) {
        port.w.drive(beat);
        port.w.set_ready(true);
    }

    fn fire_b(port: &mut AxiPort, beat: BBeat) {
        port.b.drive(beat);
        port.b.set_ready(true);
    }

    fn fire_ar(port: &mut AxiPort, beat: ArBeat) {
        port.ar.drive(beat);
        port.ar.set_ready(true);
    }

    fn fire_r(port: &mut AxiPort, beat: RBeat) {
        port.r.drive(beat);
        port.r.set_ready(true);
    }

    #[test]
    fn clean_write_produces_no_violations() {
        let mut chk = ProtocolChecker::new();
        assert!(cycle(&mut chk, 0, |p| fire_aw(p, aw(1, 2))).is_empty());
        assert!(cycle(&mut chk, 1, |p| fire_w(p, WBeat::new(0, false))).is_empty());
        assert!(cycle(&mut chk, 2, |p| fire_w(p, WBeat::new(1, true))).is_empty());
        assert!(cycle(&mut chk, 3, |p| fire_b(p, BBeat::new(AxiId(1), Resp::Okay))).is_empty());
        let s = chk.stats();
        assert_eq!(s.writes_started, 1);
        assert_eq!(s.writes_completed, 1);
        assert_eq!(s.w_beats, 2);
        assert_eq!(s.violations, 0);
        assert_eq!(chk.outstanding_writes(), 0);
    }

    #[test]
    fn clean_read_produces_no_violations() {
        let mut chk = ProtocolChecker::new();
        assert!(cycle(&mut chk, 0, |p| fire_ar(p, ar(3, 2))).is_empty());
        assert!(cycle(&mut chk, 1, |p| fire_r(
            p,
            RBeat::new(AxiId(3), 0, Resp::Okay, false)
        ))
        .is_empty());
        assert!(cycle(&mut chk, 2, |p| fire_r(
            p,
            RBeat::new(AxiId(3), 0, Resp::Okay, true)
        ))
        .is_empty());
        let s = chk.stats();
        assert_eq!(s.reads_started, 1);
        assert_eq!(s.reads_completed, 1);
        assert_eq!(chk.outstanding_reads(), 0);
    }

    #[test]
    fn early_wlast_flagged_and_resynced() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_aw(p, aw(1, 4)));
        let v = cycle(&mut chk, 1, |p| fire_w(p, WBeat::new(0, true)));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WlastEarly);
        // After resync a B for the ID is accepted.
        let v = cycle(&mut chk, 2, |p| fire_b(p, BBeat::new(AxiId(1), Resp::Okay)));
        assert!(v.is_empty());
    }

    #[test]
    fn missing_wlast_flagged() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_aw(p, aw(1, 1)));
        let v = cycle(&mut chk, 1, |p| fire_w(p, WBeat::new(0, false)));
        assert_eq!(v[0].rule, Rule::WlastMissing);
    }

    #[test]
    fn w_without_aw_flagged() {
        let mut chk = ProtocolChecker::new();
        let v = cycle(&mut chk, 0, |p| fire_w(p, WBeat::new(0, true)));
        assert_eq!(v[0].rule, Rule::WWithoutAw);
    }

    #[test]
    fn early_w_buffered_when_allowed() {
        let mut chk = ProtocolChecker::with_config(CheckerConfig {
            allow_early_w: true,
            early_w_depth: 4,
            ..CheckerConfig::default()
        });
        assert!(cycle(&mut chk, 0, |p| fire_w(p, WBeat::new(7, true))).is_empty());
        // AW arrives afterwards; the buffered beat completes the burst.
        assert!(cycle(&mut chk, 1, |p| fire_aw(p, aw(2, 1))).is_empty());
        assert!(cycle(&mut chk, 2, |p| fire_b(p, BBeat::new(AxiId(2), Resp::Okay))).is_empty());
    }

    #[test]
    fn b_without_txn_flagged() {
        let mut chk = ProtocolChecker::new();
        let v = cycle(&mut chk, 0, |p| fire_b(p, BBeat::new(AxiId(9), Resp::Okay)));
        assert_eq!(v[0].rule, Rule::BWithoutTxn);
        assert_eq!(v[0].id, Some(AxiId(9)));
    }

    #[test]
    fn b_before_wlast_flagged() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_aw(p, aw(4, 4)));
        cycle(&mut chk, 1, |p| fire_w(p, WBeat::new(0, false)));
        let v = cycle(&mut chk, 2, |p| fire_b(p, BBeat::new(AxiId(4), Resp::Okay)));
        assert_eq!(v[0].rule, Rule::BBeforeWlast);
    }

    #[test]
    fn r_without_txn_flagged() {
        let mut chk = ProtocolChecker::new();
        let v = cycle(&mut chk, 0, |p| {
            fire_r(p, RBeat::new(AxiId(5), 0, Resp::Okay, true));
        });
        assert_eq!(v[0].rule, Rule::RWithoutTxn);
    }

    #[test]
    fn rlast_early_and_missing_flagged() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_ar(p, ar(1, 3)));
        let v = cycle(&mut chk, 1, |p| {
            fire_r(p, RBeat::new(AxiId(1), 0, Resp::Okay, true));
        });
        assert_eq!(v[0].rule, Rule::RlastEarly);

        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_ar(p, ar(1, 1)));
        let v = cycle(&mut chk, 1, |p| {
            fire_r(p, RBeat::new(AxiId(1), 0, Resp::Okay, false));
        });
        assert_eq!(v[0].rule, Rule::RlastMissing);
    }

    #[test]
    fn reserved_burst_flagged_on_both_address_channels() {
        let mut chk = ProtocolChecker::new();
        let mut beat = aw(1, 1);
        beat.burst = BurstKind::Reserved;
        let v = cycle(&mut chk, 0, |p| fire_aw(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::AwBurstReserved));

        let mut beat = ar(1, 1);
        beat.burst = BurstKind::Reserved;
        let v = cycle(&mut chk, 1, |p| fire_ar(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::ArBurstReserved));
    }

    #[test]
    fn fixed_burst_over_16_beats_flagged() {
        let mut chk = ProtocolChecker::new();
        let mut beat = aw(1, 17);
        beat.burst = BurstKind::Fixed;
        let v = cycle(&mut chk, 0, |p| fire_aw(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::AwFixedLen));
        // 16 beats is legal.
        let mut chk = ProtocolChecker::new();
        let mut beat = aw(1, 16);
        beat.burst = BurstKind::Fixed;
        assert!(cycle(&mut chk, 0, |p| fire_aw(p, beat)).is_empty());
        // Read side.
        let mut chk = ProtocolChecker::new();
        let mut beat = ar(1, 17);
        beat.burst = BurstKind::Fixed;
        let v = cycle(&mut chk, 0, |p| fire_ar(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::ArFixedLen));
    }

    #[test]
    fn oversized_beat_flagged_against_bus_width() {
        let mut chk = ProtocolChecker::new(); // 8-byte bus by default
        let mut beat = aw(1, 1);
        beat.size = BurstSize::from_bytes(16).unwrap();
        let v = cycle(&mut chk, 0, |p| fire_aw(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::AwSizeTooWide));
        let mut beat = ar(1, 1);
        beat.size = BurstSize::from_bytes(32).unwrap();
        let v = cycle(&mut chk, 1, |p| fire_ar(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::ArSizeTooWide));
        // A wider configured bus accepts it.
        let mut chk = ProtocolChecker::with_config(CheckerConfig {
            bus_bytes: 32,
            ..CheckerConfig::default()
        });
        let mut beat = aw(1, 1);
        beat.size = BurstSize::from_bytes(16).unwrap();
        assert!(cycle(&mut chk, 0, |p| fire_aw(p, beat)).is_empty());
    }

    #[test]
    fn cross_4k_flagged() {
        let mut chk = ProtocolChecker::new();
        let mut beat = aw(1, 4);
        beat.addr = Addr(0xFF8);
        let v = cycle(&mut chk, 0, |p| fire_aw(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::AwCross4k));
    }

    #[test]
    fn wrap_rules_flagged() {
        let mut chk = ProtocolChecker::new();
        let mut beat = aw(1, 3);
        beat.burst = BurstKind::Wrap;
        beat.addr = Addr(0x3); // also unaligned
        let v = cycle(&mut chk, 0, |p| fire_aw(p, beat));
        assert!(v.iter().any(|v| v.rule == Rule::AwWrapLen));
        assert!(v.iter().any(|v| v.rule == Rule::AwWrapUnaligned));
    }

    #[test]
    fn strobe_all_zero_flagged() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_aw(p, aw(1, 1)));
        let v = cycle(&mut chk, 1, |p| {
            fire_w(p, WBeat::with_strobes(0, 0x00, true));
        });
        assert!(v.iter().any(|v| v.rule == Rule::WStrbAllZero));
    }

    #[test]
    fn stability_violation_on_dropped_valid() {
        let mut chk = ProtocolChecker::new();
        // Cycle 0: AW valid but not ready -> must hold.
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(aw(1, 1));
        // not ready
        assert!(chk.observe(&port, 0).is_empty());
        // Cycle 1: valid dropped.
        let mut port = AxiPort::new();
        port.begin_cycle();
        let v = chk.observe(&port, 1);
        assert_eq!(v[0].rule, Rule::AwStable);
    }

    #[test]
    fn stability_violation_on_changed_payload() {
        let mut chk = ProtocolChecker::new();
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.w.drive(WBeat::new(1, false));
        assert!(chk.observe(&port, 0).is_empty());
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.w.drive(WBeat::new(2, false)); // changed data
        let v = chk.observe(&port, 1);
        assert_eq!(v[0].rule, Rule::WStable);
    }

    #[test]
    fn stability_hold_then_fire_is_clean() {
        let mut chk = ProtocolChecker::new();
        let beat = aw(1, 1);
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(beat);
        assert!(chk.observe(&port, 0).is_empty());
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(beat);
        port.aw.set_ready(true);
        assert!(chk.observe(&port, 1).is_empty());
    }

    #[test]
    fn per_id_read_ordering_tracks_heads() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| fire_ar(p, ar(1, 1)));
        cycle(&mut chk, 1, |p| fire_ar(p, ar(2, 2)));
        assert_eq!(chk.outstanding_reads(), 2);
        // Interleaved responses between IDs are legal.
        assert!(cycle(&mut chk, 2, |p| fire_r(
            p,
            RBeat::new(AxiId(2), 0, Resp::Okay, false)
        ))
        .is_empty());
        assert!(cycle(&mut chk, 3, |p| fire_r(
            p,
            RBeat::new(AxiId(1), 0, Resp::Okay, true)
        ))
        .is_empty());
        assert!(cycle(&mut chk, 4, |p| fire_r(
            p,
            RBeat::new(AxiId(2), 0, Resp::Okay, true)
        ))
        .is_empty());
        assert_eq!(chk.outstanding_reads(), 0);
    }

    #[test]
    fn emptied_id_queue_still_flags_stray_responses() {
        let mut chk = ProtocolChecker::new();
        // One clean write and one clean read on ID 6 leave its (now
        // empty) queues in the maps.
        cycle(&mut chk, 0, |p| {
            fire_aw(p, aw(6, 1));
            fire_ar(p, ar(6, 1));
        });
        cycle(&mut chk, 1, |p| {
            fire_w(p, WBeat::new(0, true));
            fire_r(p, RBeat::new(AxiId(6), 0, Resp::Okay, true));
        });
        assert!(cycle(&mut chk, 2, |p| fire_b(p, BBeat::new(AxiId(6), Resp::Okay))).is_empty());
        let v = cycle(&mut chk, 3, |p| fire_b(p, BBeat::new(AxiId(6), Resp::Okay)));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BWithoutTxn);
        assert_eq!(v[0].id, Some(AxiId(6)));
        let v = cycle(&mut chk, 4, |p| {
            fire_r(p, RBeat::new(AxiId(6), 0, Resp::Okay, true));
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RWithoutTxn);
        assert_eq!(v[0].id, Some(AxiId(6)));
    }

    #[test]
    fn long_same_id_run_returns_to_zero_outstanding() {
        let mut chk = ProtocolChecker::new();
        let mut n = 0;
        for _ in 0..200 {
            cycle(&mut chk, n, |p| {
                fire_aw(p, aw(2, 2));
                fire_ar(p, ar(2, 2));
            });
            cycle(&mut chk, n + 1, |p| {
                fire_w(p, WBeat::new(0, false));
                fire_r(p, RBeat::new(AxiId(2), 0, Resp::Okay, false));
            });
            cycle(&mut chk, n + 2, |p| {
                fire_w(p, WBeat::new(1, true));
                fire_r(p, RBeat::new(AxiId(2), 1, Resp::Okay, true));
            });
            assert_eq!(chk.outstanding_reads(), 0);
            assert_eq!(chk.outstanding_writes(), 1, "awaiting B");
            cycle(&mut chk, n + 3, |p| {
                fire_b(p, BBeat::new(AxiId(2), Resp::Okay));
            });
            assert_eq!(chk.outstanding_writes(), 0);
            n += 4;
        }
        let s = chk.stats();
        assert_eq!(s.violations, 0);
        assert_eq!((s.writes_completed, s.reads_completed), (200, 200));
    }

    #[test]
    fn flush_discards_everything() {
        let mut chk = ProtocolChecker::new();
        cycle(&mut chk, 0, |p| {
            fire_aw(p, aw(1, 4));
            fire_ar(p, ar(1, 4));
        });
        assert_eq!(chk.outstanding_writes(), 1);
        assert_eq!(chk.outstanding_reads(), 1);
        chk.flush();
        assert_eq!(chk.outstanding_writes(), 0);
        assert_eq!(chk.outstanding_reads(), 0);
    }

    #[test]
    fn wire_rules_flag_only_context_free_rules() {
        let mut rules = WireRules::default();
        let mut out = Vec::new();
        // A W beat with no address and a B with no write: context rules,
        // not wire rules.
        let mut port = AxiPort::new();
        port.begin_cycle();
        fire_w(&mut port, WBeat::new(0, true));
        fire_b(&mut port, BBeat::new(AxiId(3), Resp::Okay));
        rules.observe(&port, 0, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Strobes and burst legality are wire rules.
        let mut beat = aw(1, 4);
        beat.addr = Addr(0xFF8);
        port.begin_cycle();
        fire_aw(&mut port, beat);
        fire_w(&mut port, WBeat::with_strobes(0, 0, false));
        rules.observe(&port, 1, &mut out);
        let got: Vec<_> = out.iter().map(|v| v.rule).collect();
        assert_eq!(got, vec![Rule::AwCross4k, Rule::WStrbAllZero]);
    }

    #[test]
    fn wire_rules_flush_forgets_held_beats() {
        let mut rules = WireRules::default();
        let mut out = Vec::new();
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.r.drive(RBeat::new(AxiId(1), 5, Resp::Okay, true)); // waits
        rules.observe(&port, 0, &mut out);
        rules.flush();
        port.begin_cycle(); // R dropped, but the held beat is forgotten
        rules.observe(&port, 1, &mut out);
        assert!(out.is_empty(), "{out:?}");
        port.begin_cycle();
        port.r.drive(RBeat::new(AxiId(1), 5, Resp::Okay, true));
        rules.observe(&port, 2, &mut out);
        port.begin_cycle();
        port.r.drive(RBeat::new(AxiId(1), 6, Resp::Okay, true)); // changed
        rules.observe(&port, 3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].rule, out[0].cycle), (Rule::RStable, 3));
    }

    #[test]
    fn violation_display_mentions_rule() {
        let v = Violation {
            rule: Rule::WlastEarly,
            cycle: 7,
            id: Some(AxiId(1)),
            detail: "x".into(),
        };
        let s = v.to_string();
        assert!(s.contains("WLAST_EARLY"));
        assert!(s.contains("cycle 7"));
    }
}
