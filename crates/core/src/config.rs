//! Static TMU configuration and the software-visible register file.
//!
//! [`TmuConfig`] captures the hardware-elaboration parameters of Table I
//! (`MaxUniqIDs`, `TxnPerUniqID`, `MaxOutstdTxns`) plus the variant,
//! prescaler and budget settings. [`RegisterFile`] models the
//! software-configurable registers of paper §II-A: enable/disable, time
//! budgets, interrupt behaviour and error-log access.

use std::fmt;

use crate::budget::BudgetConfig;

/// Which counter solution the TMU instantiates (paper §II-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TmuVariant {
    /// Tiny-Counter (Tc): one counter per outstanding transaction,
    /// transaction-level granularity, minimal area.
    TinyCounter,
    /// Full-Counter (Fc): per-phase counters, one-cycle fault
    /// localization, per-phase performance logs, ~2.5× Tc area.
    FullCounter,
}

impl fmt::Display for TmuVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmuVariant::TinyCounter => write!(f, "Tc"),
            TmuVariant::FullCounter => write!(f, "Fc"),
        }
    }
}

/// How the model evaluates the timeout counters each cycle.
///
/// Both engines are cycle-for-cycle equivalent (enforced by the
/// differential property tests in `tests/props_fastpath.rs`); they differ
/// only in simulation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterEngine {
    /// Tick every live counter every cycle, exactly like the RTL.
    /// O(outstanding) work per cycle; the reference model.
    PerCycle,
    /// Deadline-wheel scheduling: each armed counter registers the cycle
    /// its next expiry can fire (exploiting the prescaler step) in a
    /// min-heap, and the commit pass only touches counters whose deadline
    /// is due. O(1) per idle cycle, O(log n) per (re)arm.
    DeadlineWheel,
}

impl fmt::Display for CounterEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterEngine::PerCycle => write!(f, "per-cycle"),
            CounterEngine::DeadlineWheel => write!(f, "deadline-wheel"),
        }
    }
}

/// Errors from [`TmuConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_uniq_ids` was zero.
    ZeroUniqIds,
    /// `txn_per_id` was zero.
    ZeroTxnPerId,
    /// `prescaler` step was zero.
    ZeroPrescaler,
    /// The resulting `MaxOutstdTxns` exceeds the supported maximum.
    TooManyOutstanding(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroUniqIds => write!(f, "max_uniq_ids must be nonzero"),
            ConfigError::ZeroTxnPerId => write!(f, "txn_per_id must be nonzero"),
            ConfigError::ZeroPrescaler => write!(f, "prescaler step must be nonzero"),
            ConfigError::TooManyOutstanding(n) => {
                write!(
                    f,
                    "{n} outstanding transactions exceeds the supported maximum of {}",
                    TmuConfig::MAX_OUTSTANDING
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete elaboration-time configuration of one TMU instance.
///
/// Construct through [`TmuConfig::builder`]; all fields are readable.
///
/// ```
/// use tmu::{TmuConfig, TmuVariant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = TmuConfig::builder()
///     .variant(TmuVariant::TinyCounter)
///     .max_uniq_ids(4)
///     .txn_per_id(8)
///     .prescaler(32)
///     .build()?;
/// assert_eq!(cfg.max_outstanding(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TmuConfig {
    variant: TmuVariant,
    max_uniq_ids: usize,
    txn_per_id: u32,
    prescaler: u64,
    sticky: bool,
    budgets: BudgetConfig,
    check_protocol: bool,
    engine: CounterEngine,
}

impl TmuConfig {
    /// Largest supported `MaxOutstdTxns` (matches the paper's widest
    /// explored configuration headroom).
    pub const MAX_OUTSTANDING: usize = 1024;

    /// Starts a builder with the paper's default setup: Tiny-Counter,
    /// 4 unique IDs × 4 transactions, no prescaler, protocol checks on.
    #[must_use]
    pub fn builder() -> TmuConfigBuilder {
        TmuConfigBuilder::default()
    }

    /// The counter solution.
    #[must_use]
    pub fn variant(&self) -> TmuVariant {
        self.variant
    }

    /// `MaxUniqIDs` — dense unique-ID slots.
    #[must_use]
    pub fn max_uniq_ids(&self) -> usize {
        self.max_uniq_ids
    }

    /// `TxnPerUniqID` — outstanding transactions allowed per ID.
    #[must_use]
    pub fn txn_per_id(&self) -> u32 {
        self.txn_per_id
    }

    /// `MaxOutstdTxns` = `MaxUniqIDs` × `TxnPerUniqID`.
    #[must_use]
    pub fn max_outstanding(&self) -> usize {
        self.max_uniq_ids * self.txn_per_id as usize
    }

    /// Prescaler step (1 = count every cycle).
    #[must_use]
    pub fn prescaler(&self) -> u64 {
        self.prescaler
    }

    /// Whether the sticky-bit mechanism is instantiated.
    #[must_use]
    pub fn sticky(&self) -> bool {
        self.sticky
    }

    /// The time-budget configuration.
    #[must_use]
    pub fn budgets(&self) -> &BudgetConfig {
        &self.budgets
    }

    /// Whether protocol-rule checking is instantiated alongside timeout
    /// monitoring.
    #[must_use]
    pub fn check_protocol(&self) -> bool {
        self.check_protocol
    }

    /// The counter-evaluation engine (a simulation-speed knob; both
    /// engines produce identical monitoring behaviour).
    #[must_use]
    pub fn engine(&self) -> CounterEngine {
        self.engine
    }
}

impl Default for TmuConfig {
    fn default() -> Self {
        TmuConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

impl fmt::Display for TmuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}id x {}txn (max {} outstanding), prescaler {}{}",
            self.variant,
            self.max_uniq_ids,
            self.txn_per_id,
            self.max_outstanding(),
            self.prescaler,
            if self.sticky { " +sticky" } else { "" }
        )
    }
}

/// Builder for [`TmuConfig`].
#[derive(Debug, Clone)]
pub struct TmuConfigBuilder {
    variant: TmuVariant,
    max_uniq_ids: usize,
    txn_per_id: u32,
    prescaler: u64,
    sticky: bool,
    budgets: BudgetConfig,
    check_protocol: bool,
    engine: CounterEngine,
}

impl Default for TmuConfigBuilder {
    fn default() -> Self {
        TmuConfigBuilder {
            variant: TmuVariant::TinyCounter,
            max_uniq_ids: 4,
            txn_per_id: 4,
            prescaler: 1,
            sticky: false,
            budgets: BudgetConfig::default(),
            check_protocol: true,
            engine: CounterEngine::DeadlineWheel,
        }
    }
}

impl TmuConfigBuilder {
    /// Selects the counter solution.
    #[must_use]
    pub fn variant(mut self, variant: TmuVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets `MaxUniqIDs`.
    #[must_use]
    pub fn max_uniq_ids(mut self, n: usize) -> Self {
        self.max_uniq_ids = n;
        self
    }

    /// Sets `TxnPerUniqID`.
    #[must_use]
    pub fn txn_per_id(mut self, n: u32) -> Self {
        self.txn_per_id = n;
        self
    }

    /// Sets the prescaler step and enables the sticky bit whenever the
    /// step exceeds 1 (the paper's `+Pre` configurations pair them).
    #[must_use]
    pub fn prescaler(mut self, step: u64) -> Self {
        self.prescaler = step;
        self.sticky = step > 1;
        self
    }

    /// Overrides the sticky-bit setting independently of the prescaler
    /// (used by the sticky-bit ablation).
    #[must_use]
    pub fn sticky(mut self, enabled: bool) -> Self {
        self.sticky = enabled;
        self
    }

    /// Sets the budget configuration.
    #[must_use]
    pub fn budgets(mut self, budgets: BudgetConfig) -> Self {
        self.budgets = budgets;
        self
    }

    /// Enables or disables protocol-rule checking.
    #[must_use]
    pub fn check_protocol(mut self, enabled: bool) -> Self {
        self.check_protocol = enabled;
        self
    }

    /// Selects the counter-evaluation engine. The default is the
    /// deadline-wheel fast path; [`CounterEngine::PerCycle`] keeps the
    /// reference RTL-style per-cycle ticking (used by the differential
    /// equivalence tests).
    #[must_use]
    pub fn engine(mut self, engine: CounterEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero capacities, a zero prescaler
    /// step, or an unsupported outstanding-transaction count.
    pub fn build(self) -> Result<TmuConfig, ConfigError> {
        if self.max_uniq_ids == 0 {
            return Err(ConfigError::ZeroUniqIds);
        }
        if self.txn_per_id == 0 {
            return Err(ConfigError::ZeroTxnPerId);
        }
        if self.prescaler == 0 {
            return Err(ConfigError::ZeroPrescaler);
        }
        let outstanding = self.max_uniq_ids * self.txn_per_id as usize;
        if outstanding > TmuConfig::MAX_OUTSTANDING {
            return Err(ConfigError::TooManyOutstanding(outstanding));
        }
        Ok(TmuConfig {
            variant: self.variant,
            max_uniq_ids: self.max_uniq_ids,
            txn_per_id: self.txn_per_id,
            prescaler: self.prescaler,
            sticky: self.sticky,
            budgets: self.budgets,
            check_protocol: self.check_protocol,
            engine: self.engine,
        })
    }
}

/// Addresses of the software-visible registers (32-bit word offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the register map table below
pub enum Reg {
    /// `0x00` — control: bit 0 enable, bit 1 IRQ enable, bit 2 protocol
    /// checks enable.
    Ctrl,
    /// `0x04` — interrupt status (read; write 1 to clear).
    IrqStatus,
    /// `0x08` — prescaler step (read-only at run time in this model).
    Prescaler,
    /// `0x0C` — budget: address-handshake phase.
    BudgetAddr,
    /// `0x10` — budget: data-entry phase base.
    BudgetDataEntry,
    /// `0x14` — budget: first-data phase.
    BudgetFirstData,
    /// `0x18` — budget: cycles per data beat.
    BudgetPerBeat,
    /// `0x1C` — budget: response-wait phase.
    BudgetRespWait,
    /// `0x20` — budget: response-ready phase.
    BudgetRespReady,
    /// `0x24` — budget: adaptive queue-wait coefficient.
    BudgetQueueWait,
    /// `0x28` — error-log entry count (read-only).
    ErrCount,
    /// `0x2C` — faults detected since enable (read-only).
    FaultCount,
    /// `0x30` — resets requested since enable (read-only).
    ResetCount,
    /// `0x34` — oldest error-log entry, packed (read-only):
    /// bits 31..24 fault-kind code (0 = empty, 1 = timeout,
    /// 2 = protocol), bits 23..16 phase code (0 = none, 1–6 write
    /// phases, 7–10 read phases), bits 15..0 the raw AXI ID.
    ErrHeadInfo,
    /// `0x38` — detection cycle (low 32 bits) of the oldest error-log
    /// entry (read-only).
    ErrHeadCycle,
    /// `0x3C` — write any value to pop the oldest error-log entry.
    ErrPop,
}

impl Reg {
    /// Byte offset in the register block.
    #[must_use]
    pub fn offset(self) -> u32 {
        match self {
            Reg::Ctrl => 0x00,
            Reg::IrqStatus => 0x04,
            Reg::Prescaler => 0x08,
            Reg::BudgetAddr => 0x0C,
            Reg::BudgetDataEntry => 0x10,
            Reg::BudgetFirstData => 0x14,
            Reg::BudgetPerBeat => 0x18,
            Reg::BudgetRespWait => 0x1C,
            Reg::BudgetRespReady => 0x20,
            Reg::BudgetQueueWait => 0x24,
            Reg::ErrCount => 0x28,
            Reg::FaultCount => 0x2C,
            Reg::ResetCount => 0x30,
            Reg::ErrHeadInfo => 0x34,
            Reg::ErrHeadCycle => 0x38,
            Reg::ErrPop => 0x3C,
        }
    }

    /// Decodes a byte offset back to a register.
    #[must_use]
    pub fn from_offset(offset: u32) -> Option<Reg> {
        [
            Reg::Ctrl,
            Reg::IrqStatus,
            Reg::Prescaler,
            Reg::BudgetAddr,
            Reg::BudgetDataEntry,
            Reg::BudgetFirstData,
            Reg::BudgetPerBeat,
            Reg::BudgetRespWait,
            Reg::BudgetRespReady,
            Reg::BudgetQueueWait,
            Reg::ErrCount,
            Reg::FaultCount,
            Reg::ResetCount,
            Reg::ErrHeadInfo,
            Reg::ErrHeadCycle,
            Reg::ErrPop,
        ]
        .into_iter()
        .find(|r| r.offset() == offset)
    }
}

/// CTRL register bit: global enable.
pub const CTRL_ENABLE: u32 = 1 << 0;
/// CTRL register bit: interrupt enable.
pub const CTRL_IRQ_ENABLE: u32 = 1 << 1;
/// CTRL register bit: protocol-check enable.
pub const CTRL_PROT_CHECK: u32 = 1 << 2;

/// The software-visible register file (paper §II-A).
///
/// The harness (or a modelled CPU) reads and writes it over a simple
/// word-access interface; the TMU core consults it every cycle.
///
/// ```
/// use tmu::config::{Reg, RegisterFile, CTRL_ENABLE};
///
/// let mut regs = RegisterFile::new();
/// assert!(regs.enabled()); // enabled out of reset
/// regs.write(Reg::Ctrl, 0); // software disable
/// assert!(!regs.enabled());
/// regs.write(Reg::Ctrl, CTRL_ENABLE);
/// assert!(regs.enabled());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    ctrl: u32,
    irq_status: u32,
    prescaler: u32,
    budget_addr: u32,
    budget_data_entry: u32,
    budget_first_data: u32,
    budget_per_beat: u32,
    budget_resp_wait: u32,
    budget_resp_ready: u32,
    budget_queue_wait: u32,
    err_count: u32,
    fault_count: u32,
    reset_count: u32,
}

impl RegisterFile {
    /// Register file in its out-of-reset state: TMU enabled, IRQ enabled,
    /// protocol checks enabled, budgets loaded from `BudgetConfig`
    /// defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::from_budgets(&BudgetConfig::default(), 1)
    }

    /// Register file preloaded from a budget configuration and prescaler.
    #[must_use]
    pub fn from_budgets(budgets: &BudgetConfig, prescaler: u64) -> Self {
        RegisterFile {
            ctrl: CTRL_ENABLE | CTRL_IRQ_ENABLE | CTRL_PROT_CHECK,
            irq_status: 0,
            prescaler: prescaler as u32,
            budget_addr: budgets.addr_handshake as u32,
            budget_data_entry: budgets.data_entry as u32,
            budget_first_data: budgets.first_data as u32,
            budget_per_beat: budgets.per_beat as u32,
            budget_resp_wait: budgets.resp_wait as u32,
            budget_resp_ready: budgets.resp_ready as u32,
            budget_queue_wait: budgets.queue_wait_per_txn as u32,
            err_count: 0,
            fault_count: 0,
            reset_count: 0,
        }
    }

    /// Reads a register.
    #[must_use]
    pub fn read(&self, reg: Reg) -> u32 {
        match reg {
            Reg::Ctrl => self.ctrl,
            Reg::IrqStatus => self.irq_status,
            Reg::Prescaler => self.prescaler,
            Reg::BudgetAddr => self.budget_addr,
            Reg::BudgetDataEntry => self.budget_data_entry,
            Reg::BudgetFirstData => self.budget_first_data,
            Reg::BudgetPerBeat => self.budget_per_beat,
            Reg::BudgetRespWait => self.budget_resp_wait,
            Reg::BudgetRespReady => self.budget_resp_ready,
            Reg::BudgetQueueWait => self.budget_queue_wait,
            Reg::ErrCount => self.err_count,
            Reg::FaultCount => self.fault_count,
            Reg::ResetCount => self.reset_count,
            // Log-head registers are synthesized by the TMU wrapper
            // (`Tmu::read_reg`), which owns the error log.
            Reg::ErrHeadInfo | Reg::ErrHeadCycle | Reg::ErrPop => 0,
        }
    }

    /// Writes a register. Read-only registers ignore writes; `IrqStatus`
    /// is write-1-to-clear.
    pub fn write(&mut self, reg: Reg, value: u32) {
        match reg {
            Reg::Ctrl => self.ctrl = value,
            Reg::IrqStatus => self.irq_status &= !value, // W1C
            Reg::Prescaler
            | Reg::ErrCount
            | Reg::FaultCount
            | Reg::ResetCount
            | Reg::ErrHeadInfo
            | Reg::ErrHeadCycle
            | Reg::ErrPop => {}
            Reg::BudgetAddr => self.budget_addr = value,
            Reg::BudgetDataEntry => self.budget_data_entry = value,
            Reg::BudgetFirstData => self.budget_first_data = value,
            Reg::BudgetPerBeat => self.budget_per_beat = value,
            Reg::BudgetRespWait => self.budget_resp_wait = value,
            Reg::BudgetRespReady => self.budget_resp_ready = value,
            Reg::BudgetQueueWait => self.budget_queue_wait = value,
        }
    }

    /// True while the TMU is enabled (CTRL bit 0).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.ctrl & CTRL_ENABLE != 0
    }

    /// True while interrupts are enabled (CTRL bit 1).
    #[must_use]
    pub fn irq_enabled(&self) -> bool {
        self.ctrl & CTRL_IRQ_ENABLE != 0
    }

    /// True while protocol checking is enabled (CTRL bit 2).
    #[must_use]
    pub fn prot_check_enabled(&self) -> bool {
        self.ctrl & CTRL_PROT_CHECK != 0
    }

    /// The budgets currently programmed by software.
    #[must_use]
    pub fn budgets(&self) -> BudgetConfig {
        BudgetConfig {
            addr_handshake: u64::from(self.budget_addr),
            data_entry: u64::from(self.budget_data_entry),
            first_data: u64::from(self.budget_first_data),
            per_beat: u64::from(self.budget_per_beat),
            resp_wait: u64::from(self.budget_resp_wait),
            resp_ready: u64::from(self.budget_resp_ready),
            queue_wait_per_txn: u64::from(self.budget_queue_wait),
            // The per-beat queue coefficient mirrors the data-transfer
            // coefficient when software reprograms budgets.
            queue_wait_per_beat: u64::from(self.budget_per_beat),
            tiny_total_override: None,
        }
    }

    /// Hardware-side hooks used by the TMU core.
    pub(crate) fn hw_raise_irq(&mut self) {
        self.irq_status |= 1;
    }

    pub(crate) fn hw_note_error(&mut self) {
        self.err_count = self.err_count.saturating_add(1);
    }

    pub(crate) fn hw_note_fault(&mut self) {
        self.fault_count = self.fault_count.saturating_add(1);
    }

    pub(crate) fn hw_note_reset(&mut self) {
        self.reset_count = self.reset_count.saturating_add(1);
    }

    /// Pending interrupt (status bit set and IRQ enabled).
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.irq_enabled() && self.irq_status != 0
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert_eq!(
            TmuConfig::builder().max_uniq_ids(0).build(),
            Err(ConfigError::ZeroUniqIds)
        );
        assert_eq!(
            TmuConfig::builder().txn_per_id(0).build(),
            Err(ConfigError::ZeroTxnPerId)
        );
        assert_eq!(
            TmuConfig::builder().prescaler(0).build(),
            Err(ConfigError::ZeroPrescaler)
        );
        assert!(matches!(
            TmuConfig::builder().max_uniq_ids(64).txn_per_id(64).build(),
            Err(ConfigError::TooManyOutstanding(4096))
        ));
    }

    #[test]
    fn builder_defaults_match_paper_setup() {
        let cfg = TmuConfig::default();
        assert_eq!(cfg.variant(), TmuVariant::TinyCounter);
        assert_eq!(cfg.max_uniq_ids(), 4);
        assert_eq!(cfg.max_outstanding(), 16);
        assert_eq!(cfg.prescaler(), 1);
        assert!(!cfg.sticky());
        assert!(cfg.check_protocol());
    }

    #[test]
    fn engine_defaults_to_deadline_wheel() {
        let cfg = TmuConfig::default();
        assert_eq!(cfg.engine(), CounterEngine::DeadlineWheel);
        let cfg = TmuConfig::builder()
            .engine(CounterEngine::PerCycle)
            .build()
            .unwrap();
        assert_eq!(cfg.engine(), CounterEngine::PerCycle);
    }

    #[test]
    fn prescaler_implies_sticky() {
        let cfg = TmuConfig::builder().prescaler(32).build().unwrap();
        assert!(cfg.sticky());
        let cfg = TmuConfig::builder()
            .prescaler(32)
            .sticky(false)
            .build()
            .unwrap();
        assert!(!cfg.sticky(), "explicit override wins");
    }

    #[test]
    fn config_display() {
        let cfg = TmuConfig::builder().prescaler(8).build().unwrap();
        let s = cfg.to_string();
        assert!(s.contains("Tc"));
        assert!(s.contains("prescaler 8"));
        assert!(s.contains("+sticky"));
    }

    #[test]
    fn reg_offsets_roundtrip() {
        for reg in [
            Reg::Ctrl,
            Reg::IrqStatus,
            Reg::Prescaler,
            Reg::BudgetAddr,
            Reg::BudgetDataEntry,
            Reg::BudgetFirstData,
            Reg::BudgetPerBeat,
            Reg::BudgetRespWait,
            Reg::BudgetRespReady,
            Reg::BudgetQueueWait,
            Reg::ErrCount,
            Reg::FaultCount,
            Reg::ResetCount,
        ] {
            assert_eq!(Reg::from_offset(reg.offset()), Some(reg));
        }
        assert_eq!(Reg::from_offset(0xFC), None);
    }

    #[test]
    fn irq_status_is_w1c() {
        let mut regs = RegisterFile::new();
        regs.hw_raise_irq();
        assert!(regs.irq_pending());
        regs.write(Reg::IrqStatus, 0); // writing 0 clears nothing
        assert!(regs.irq_pending());
        regs.write(Reg::IrqStatus, 1);
        assert!(!regs.irq_pending());
    }

    #[test]
    fn irq_masked_by_enable() {
        let mut regs = RegisterFile::new();
        regs.hw_raise_irq();
        regs.write(Reg::Ctrl, CTRL_ENABLE); // IRQ enable cleared
        assert!(!regs.irq_pending());
        assert_eq!(regs.read(Reg::IrqStatus), 1, "status still visible");
    }

    #[test]
    fn read_only_registers_ignore_writes() {
        let mut regs = RegisterFile::new();
        let before = regs.read(Reg::Prescaler);
        regs.write(Reg::Prescaler, 77);
        assert_eq!(regs.read(Reg::Prescaler), before);
        regs.write(Reg::ErrCount, 12);
        assert_eq!(regs.read(Reg::ErrCount), 0);
    }

    #[test]
    fn budgets_roundtrip_through_registers() {
        let b = BudgetConfig {
            addr_handshake: 10,
            per_beat: 2,
            ..BudgetConfig::default()
        };
        let mut regs = RegisterFile::from_budgets(&b, 4);
        assert_eq!(regs.budgets().addr_handshake, 10);
        regs.write(Reg::BudgetAddr, 99);
        assert_eq!(regs.budgets().addr_handshake, 99);
        assert_eq!(regs.read(Reg::Prescaler), 4);
    }

    #[test]
    fn hw_counters_accumulate() {
        let mut regs = RegisterFile::new();
        regs.hw_note_error();
        regs.hw_note_error();
        regs.hw_note_fault();
        regs.hw_note_reset();
        assert_eq!(regs.read(Reg::ErrCount), 2);
        assert_eq!(regs.read(Reg::FaultCount), 1);
        assert_eq!(regs.read(Reg::ResetCount), 1);
    }
}
