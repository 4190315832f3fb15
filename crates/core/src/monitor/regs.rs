//! The software view: register reads and writes, error-report assembly
//! into the packed `ErrHeadInfo` word, budget reprogramming, and the
//! level interrupt towards the CPU.

use super::Tmu;
use crate::config::Reg;

impl Tmu {
    /// Software register read.
    #[must_use]
    pub fn read_reg(&self, reg: Reg) -> u32 {
        match reg {
            Reg::ErrCount => self.err_log.len() as u32,
            Reg::ErrHeadInfo => match self.err_log.iter().next() {
                None => 0,
                Some(rec) => {
                    let kind = u32::from(rec.kind.reg_code()) << 24;
                    let phase =
                        u32::from(rec.phase.map_or(0, crate::phase::TxnPhase::reg_code)) << 16;
                    let id = u32::from(rec.id.map_or(0, |i| i.0));
                    kind | phase | id
                }
            },
            Reg::ErrHeadCycle => self.err_log.iter().next().map_or(0, |rec| rec.cycle as u32),
            _ => self.regs.read(reg),
        }
    }

    /// Software register write. Budget writes take effect for
    /// transactions enqueued afterwards; writing [`Reg::ErrPop`] pops
    /// the oldest error-log entry.
    pub fn write_reg(&mut self, reg: Reg, value: u32) {
        if reg == Reg::ErrPop {
            let _ = self.err_log.pop();
            return;
        }
        let was_checking = self.protocol_checking();
        self.regs.write(reg, value);
        let checking = self.protocol_checking();
        if checking && !was_checking {
            // The wire rules saw nothing while checking was off: forget
            // their held beats rather than compare against stale ones.
            self.wire_rules.flush();
        }
        self.write_guard.set_protocol_check(checking);
        self.read_guard.set_protocol_check(checking);
        let mut budgets = self.regs.budgets();
        budgets.tiny_total_override = self.cfg.budgets().tiny_total_override;
        budgets.queue_wait_per_beat = self.cfg.budgets().queue_wait_per_beat;
        self.write_guard.set_budgets(budgets);
        self.read_guard.set_budgets(budgets);
    }

    /// Whether the protocol rules are checked: the TMU is enabled, was
    /// built with [`TmuConfig::check_protocol`](crate::TmuConfig::check_protocol)
    /// and software has `CTRL_PROT_CHECK` set.
    pub(super) fn protocol_checking(&self) -> bool {
        self.regs.enabled() && self.cfg.check_protocol() && self.regs.prot_check_enabled()
    }

    /// Level interrupt towards the CPU (cleared by software via
    /// [`Reg::IrqStatus`]).
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.regs.irq_pending()
    }

    /// Software clears the interrupt (W1C on the status register).
    pub fn clear_irq(&mut self) {
        self.regs.write(Reg::IrqStatus, u32::MAX);
    }
}
