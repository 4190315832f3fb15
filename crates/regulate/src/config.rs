//! Elaboration-time configuration of one manager's traffic regulator:
//! per-direction credit budgets, the replenishment window, the reaction
//! mode on sustained overrun, and the open-transaction ledger sizing.

/// Credit budget for one direction (write or read): how many payload
/// bytes and how many transactions a manager may start per window.
///
/// Both credits gate together: an address handshake is granted only
/// while *both* are nonzero, and each grant deducts the burst's bytes
/// and one transaction (saturating). Because the check is `> 0` rather
/// than `>= burst`, a window can overshoot by at most one maximal burst
/// — the classic credit-bucket carryover, bounded and verified by the
/// property suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirBudget {
    /// Payload bytes grantable per window.
    pub bytes_per_window: u64,
    /// Address handshakes grantable per window.
    pub txns_per_window: u64,
}

impl DirBudget {
    /// A budget so large it never gates (2^40 bytes, 2^32 transactions
    /// per window) — useful for regulating one direction only.
    #[must_use]
    pub fn unlimited() -> Self {
        DirBudget {
            bytes_per_window: 1 << 40,
            txns_per_window: 1 << 32,
        }
    }
}

/// What the regulator does to a manager that keeps exceeding its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulationMode {
    /// Pure back-pressure: denied handshakes simply wait for the next
    /// replenishment, forever. The manager is slowed, never cut off.
    BackPressure,
    /// Back-pressure plus isolation: a manager denied in `overrun_windows`
    /// *consecutive* windows is severed — its outstanding transactions
    /// are `SLVERR`-aborted through a [`tmu::Terminator`] and no new
    /// traffic passes until software calls [`crate::Regulator::release`].
    Isolate {
        /// Consecutive overrun windows tolerated before severing.
        overrun_windows: u32,
    },
}

/// Errors rejected by [`RegulatorConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulatorConfigError {
    /// `window_cycles` must be at least 1.
    ZeroWindow,
    /// A per-window byte or transaction budget of zero would deny every
    /// handshake forever; disable the regulator instead.
    ZeroBudget,
    /// `Isolate { overrun_windows: 0 }` would isolate on the first
    /// window; require at least one full overrun window.
    ZeroOverrunWindows,
    /// The open-transaction ledger needs at least one trackable ID.
    ZeroTrackerCapacity,
    /// `max_uniq_ids * txn_per_id` exceeds the outstanding-transaction
    /// ceiling a TMU accepts (1024 slots).
    TrackerTooLarge,
}

impl std::fmt::Display for RegulatorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegulatorConfigError::ZeroWindow => write!(f, "window_cycles must be >= 1"),
            RegulatorConfigError::ZeroBudget => {
                write!(f, "byte/txn budgets must be nonzero (disable instead)")
            }
            RegulatorConfigError::ZeroOverrunWindows => {
                write!(f, "isolation requires overrun_windows >= 1")
            }
            RegulatorConfigError::ZeroTrackerCapacity => {
                write!(f, "ledger needs max_uniq_ids >= 1 and txn_per_id >= 1")
            }
            RegulatorConfigError::TrackerTooLarge => {
                write!(f, "max_uniq_ids * txn_per_id must not exceed 1024")
            }
        }
    }
}

impl std::error::Error for RegulatorConfigError {}

/// Complete configuration of one [`crate::Regulator`].
///
/// Built via [`RegulatorConfig::builder`]; the defaults describe a
/// moderately provisioned port: 4 KiB + 64 transactions per direction
/// per 1024-cycle window, back-pressure only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegulatorConfig {
    enabled: bool,
    write: DirBudget,
    read: DirBudget,
    window_cycles: u64,
    priority: u8,
    mode: RegulationMode,
    max_uniq_ids: usize,
    txn_per_id: u32,
}

impl RegulatorConfig {
    /// Starts a builder with the defaults described on the type.
    #[must_use]
    pub fn builder() -> RegulatorConfigBuilder {
        RegulatorConfigBuilder::default()
    }

    /// Whether the regulator gates at all. Disabled regulators are
    /// wire-exact pass-throughs (verified differentially by the
    /// property suite).
    #[must_use]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The write-direction budget.
    #[must_use]
    pub fn write_budget(&self) -> DirBudget {
        self.write
    }

    /// The read-direction budget.
    #[must_use]
    pub fn read_budget(&self) -> DirBudget {
        self.read
    }

    /// Replenishment period in cycles.
    #[must_use]
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Static arbitration priority hint (higher wins); consumed by
    /// fabric-level muxes that support prioritised arbitration.
    #[must_use]
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Reaction mode on sustained overrun.
    #[must_use]
    pub fn mode(&self) -> RegulationMode {
        self.mode
    }

    /// Distinct IDs the open-transaction ledger admits at once; a new ID
    /// beyond them stalls.
    #[must_use]
    pub fn max_uniq_ids(&self) -> usize {
        self.max_uniq_ids
    }

    /// Open transactions the ledger admits per ID; one more stalls.
    #[must_use]
    pub fn txn_per_id(&self) -> u32 {
        self.txn_per_id
    }
}

impl Default for RegulatorConfig {
    fn default() -> Self {
        RegulatorConfig::builder()
            .build()
            .expect("default regulator configuration is valid by construction")
    }
}

/// Builder for [`RegulatorConfig`]; validates on [`build`](Self::build).
#[derive(Debug, Clone, Copy)]
pub struct RegulatorConfigBuilder {
    enabled: bool,
    write: DirBudget,
    read: DirBudget,
    window_cycles: u64,
    priority: u8,
    mode: RegulationMode,
    max_uniq_ids: usize,
    txn_per_id: u32,
}

impl Default for RegulatorConfigBuilder {
    fn default() -> Self {
        RegulatorConfigBuilder {
            enabled: true,
            write: DirBudget {
                bytes_per_window: 4096,
                txns_per_window: 64,
            },
            read: DirBudget {
                bytes_per_window: 4096,
                txns_per_window: 64,
            },
            window_cycles: 1024,
            priority: 0,
            mode: RegulationMode::BackPressure,
            max_uniq_ids: 4,
            txn_per_id: 4,
        }
    }
}

impl RegulatorConfigBuilder {
    /// Enables or disables gating entirely (disabled = pass-through).
    #[must_use]
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Sets the write-direction budget.
    #[must_use]
    pub fn write_budget(mut self, budget: DirBudget) -> Self {
        self.write = budget;
        self
    }

    /// Sets the read-direction budget.
    #[must_use]
    pub fn read_budget(mut self, budget: DirBudget) -> Self {
        self.read = budget;
        self
    }

    /// Sets the replenishment period in cycles.
    #[must_use]
    pub fn window_cycles(mut self, cycles: u64) -> Self {
        self.window_cycles = cycles;
        self
    }

    /// Sets the static arbitration priority hint (higher wins).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the overrun reaction mode.
    #[must_use]
    pub fn mode(mut self, mode: RegulationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the ledger's distinct-ID capacity.
    #[must_use]
    pub fn max_uniq_ids(mut self, ids: usize) -> Self {
        self.max_uniq_ids = ids;
        self
    }

    /// Sets the ledger's per-ID outstanding capacity.
    #[must_use]
    pub fn txn_per_id(mut self, txns: u32) -> Self {
        self.txn_per_id = txns;
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`RegulatorConfigError`] for a zero window, a zero
    /// byte/transaction budget on an enabled regulator, an
    /// `Isolate { overrun_windows: 0 }` mode, or a zero-capacity ledger.
    pub fn build(self) -> Result<RegulatorConfig, RegulatorConfigError> {
        if self.window_cycles == 0 {
            return Err(RegulatorConfigError::ZeroWindow);
        }
        if self.enabled {
            let budgets = [self.write, self.read];
            if budgets
                .iter()
                .any(|b| b.bytes_per_window == 0 || b.txns_per_window == 0)
            {
                return Err(RegulatorConfigError::ZeroBudget);
            }
        }
        if let RegulationMode::Isolate { overrun_windows } = self.mode {
            if overrun_windows == 0 {
                return Err(RegulatorConfigError::ZeroOverrunWindows);
            }
        }
        if self.max_uniq_ids == 0 || self.txn_per_id == 0 {
            return Err(RegulatorConfigError::ZeroTrackerCapacity);
        }
        if self.max_uniq_ids.saturating_mul(self.txn_per_id as usize) > 1024 {
            return Err(RegulatorConfigError::TrackerTooLarge);
        }
        Ok(RegulatorConfig {
            enabled: self.enabled,
            write: self.write,
            read: self.read,
            window_cycles: self.window_cycles,
            priority: self.priority,
            mode: self.mode,
            max_uniq_ids: self.max_uniq_ids,
            txn_per_id: self.txn_per_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_back_pressure() {
        let cfg = RegulatorConfig::default();
        assert!(cfg.enabled());
        assert_eq!(cfg.mode(), RegulationMode::BackPressure);
        assert_eq!(cfg.window_cycles(), 1024);
        assert_eq!(cfg.write_budget().bytes_per_window, 4096);
    }

    #[test]
    fn builder_rejects_zero_window() {
        let err = RegulatorConfig::builder().window_cycles(0).build();
        assert_eq!(err, Err(RegulatorConfigError::ZeroWindow));
    }

    #[test]
    fn builder_rejects_zero_budget_when_enabled() {
        let err = RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: 0,
                txns_per_window: 4,
            })
            .build();
        assert_eq!(err, Err(RegulatorConfigError::ZeroBudget));
    }

    #[test]
    fn disabled_regulator_allows_zero_budget() {
        let cfg = RegulatorConfig::builder()
            .enabled(false)
            .write_budget(DirBudget {
                bytes_per_window: 0,
                txns_per_window: 0,
            })
            .build();
        assert!(cfg.is_ok());
    }

    #[test]
    fn builder_rejects_zero_overrun_windows() {
        let err = RegulatorConfig::builder()
            .mode(RegulationMode::Isolate { overrun_windows: 0 })
            .build();
        assert_eq!(err, Err(RegulatorConfigError::ZeroOverrunWindows));
    }

    #[test]
    fn builder_rejects_zero_tracker_capacity() {
        let err = RegulatorConfig::builder().max_uniq_ids(0).build();
        assert_eq!(err, Err(RegulatorConfigError::ZeroTrackerCapacity));
        assert!(!RegulatorConfigError::ZeroTrackerCapacity
            .to_string()
            .is_empty());
    }

    #[test]
    fn unlimited_budget_is_huge() {
        let unlimited = DirBudget::unlimited();
        assert!(unlimited.bytes_per_window >= 1 << 40);
        assert!(unlimited.txns_per_window >= 1 << 32);
    }
}
