//! Per-module flip-flop and gate-equivalent inventories.
//!
//! Each function returns the [`ModuleBits`] of one TMU sub-module for a
//! given configuration. The counts follow the architecture of paper
//! Figs. 1–3: counters (per outstanding transaction), per-transaction LD
//! storage, the HT and EI tables, the ID remapper CAM, the guard FSMs and
//! the shared register file.
//!
//! Combinational gate-equivalents are first-order estimates: a W-bit
//! comparator or incrementer costs ~W GE, a CAM match line ~id-width GE
//! per entry, and each FSM a small constant.

use tmu::counter::PrescaledCounter;
use tmu::{TmuConfig, TmuVariant};

/// Bit/GE inventory of one sub-module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleBits {
    /// Module name (stable, used in reports).
    pub name: &'static str,
    /// Flip-flop bits.
    pub ff: u64,
    /// Combinational gate-equivalents.
    pub ge: u64,
}

/// Raw ID width observed on the guarded link (bits).
pub const ID_BITS: u64 = 8;
/// Burst-length field width (AXI4 `AxLEN`).
pub const LEN_BITS: u64 = 8;
/// Beat counter width (up to 256 beats).
pub const BEAT_BITS: u64 = 9;

fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// Width of the (possibly prescaled) timeout counter for a budget of
/// `budget_cycles`, including the sticky bit when enabled.
fn counter_bits(cfg: &TmuConfig, budget_cycles: u64) -> u64 {
    u64::from(PrescaledCounter::required_width_bits(
        budget_cycles,
        cfg.prescaler(),
    )) + u64::from(cfg.sticky())
}

/// Longest supported transaction duration in cycles — the paper's
/// IP-level setup: "Each configuration also supports transactions
/// lasting up to 256 clock cycles". This caps the timeout-counter and
/// budget-register widths.
pub const BUDGET_CAP_CYCLES: u64 = 256;

/// The per-transaction timeout counters, budget registers and latency
/// capture registers.
///
/// Tiny-Counter: one transaction-level counter, one budget register and
/// one latency register per outstanding transaction (the LD table of
/// paper Fig. 3 stores "budget, latency, timeout status"), all at the
/// prescaled width. Full-Counter: a phase counter and six adaptive
/// per-phase budget registers at the prescaled width, plus six
/// phase-latency capture registers kept at full cycle resolution so the
/// performance log's analysis value survives prescaling.
pub fn counters(cfg: &TmuConfig, _max_beats: u16) -> ModuleBits {
    let n = cfg.max_outstanding() as u64;
    let w = counter_bits(cfg, BUDGET_CAP_CYCLES);
    let w_full = u64::from(PrescaledCounter::required_width_bits(BUDGET_CAP_CYCLES, 1));
    let per_txn = match cfg.variant() {
        TmuVariant::TinyCounter => 3 * w, // counter + budget + latency
        TmuVariant::FullCounter => w + 6 * w + 6 * w_full,
    };
    let ff = n * per_txn;
    // Comparator + incrementer per transaction (~2 GE per counter bit),
    // plus the budget-adaptation adders on the Full-Counter.
    let ge = match cfg.variant() {
        TmuVariant::TinyCounter => n * 2 * w,
        TmuVariant::FullCounter => n * 4 * w,
    };
    ModuleBits {
        name: "counters",
        ff,
        ge,
    }
}

/// The Linked-Data table rows (excluding the counter/budget bits counted
/// by [`counters`]): transaction metadata and the `next` links.
pub fn ld_table(cfg: &TmuConfig) -> ModuleBits {
    let n = cfg.max_outstanding() as u64;
    let per_txn = match cfg.variant() {
        // The Tiny-Counter monitors transaction-level only (`aw_valid` to
        // `b_valid`): no burst-length or beat tracking is needed, just
        // the per-ID linkage and status flags.
        TmuVariant::TinyCounter => {
            log2_ceil(cfg.max_uniq_ids() as u64) // uid
                + 1 // in-flight state
                + log2_ceil(n) // next pointer
                + 2 // valid + timed-out flags
        }
        // The Full-Counter tracks phases and beat progress per row.
        TmuVariant::FullCounter => {
            log2_ceil(cfg.max_uniq_ids() as u64)
                + LEN_BITS
                + BEAT_BITS // beats-done
                + 3 // six phases + done
                + log2_ceil(n)
                + 2
        }
    };
    // Row mux/demux ~1 GE per bit.
    ModuleBits {
        name: "ld_table",
        ff: n * per_txn,
        ge: n * per_txn,
    }
}

/// The ID Head-Tail table: head/tail pointers and a count per unique-ID
/// slot.
pub fn ht_table(cfg: &TmuConfig) -> ModuleBits {
    let u = cfg.max_uniq_ids() as u64;
    let n = cfg.max_outstanding() as u64;
    let per_id = 2 * log2_ceil(n) + log2_ceil(n + 1);
    ModuleBits {
        name: "ht_table",
        ff: u * per_id,
        ge: u * per_id,
    }
}

/// The Enqueue-Index table: a FIFO of LD indices in request order.
pub fn ei_table(cfg: &TmuConfig) -> ModuleBits {
    let n = cfg.max_outstanding() as u64;
    let bits = n * log2_ceil(n) + 2 * log2_ceil(n); // storage + head/tail
    ModuleBits {
        name: "ei_table",
        ff: bits,
        ge: bits,
    }
}

/// The AXI ID remapper: a small CAM of raw IDs with reference counts.
pub fn remapper(cfg: &TmuConfig) -> ModuleBits {
    let u = cfg.max_uniq_ids() as u64;
    let per_slot = ID_BITS + log2_ceil(u64::from(cfg.txn_per_id()) + 1) + 1; // id + refs + valid
                                                                             // CAM match lines: ~ID_BITS GE per slot.
    ModuleBits {
        name: "id_remapper",
        ff: u * per_slot,
        ge: u * (per_slot + ID_BITS),
    }
}

/// Guard FSMs, response-abort sequencing and protocol-check logic —
/// combinational-dominated, scales weakly with table sizes.
pub fn guard_logic(cfg: &TmuConfig) -> ModuleBits {
    let n = cfg.max_outstanding() as u64;
    let base = match cfg.variant() {
        TmuVariant::TinyCounter => 120,
        TmuVariant::FullCounter => 260, // phase decoding for 6+4 phases
    };
    let prot = if cfg.check_protocol() { 180 } else { 0 };
    ModuleBits {
        name: "guard_logic",
        ff: 24,
        ge: base + prot + 4 * log2_ceil(n),
    }
}

/// The software-visible register file (shared, does not scale with the
/// transaction count).
pub fn regfile(_cfg: &TmuConfig) -> ModuleBits {
    // 8 writable 12-bit registers + IRQ/status flops.
    ModuleBits {
        name: "regfile",
        ff: 8 * 12 + 6,
        ge: 96,
    }
}

/// All modules of a TMU instance, for bursts of up to `max_beats` beats.
pub fn all_modules(cfg: &TmuConfig, max_beats: u16) -> Vec<ModuleBits> {
    vec![
        counters(cfg, max_beats),
        ld_table(cfg),
        ht_table(cfg),
        ei_table(cfg),
        remapper(cfg),
        guard_logic(cfg),
        regfile(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(variant: TmuVariant, ids: usize, per_id: u32, step: u64) -> TmuConfig {
        TmuConfig::builder()
            .variant(variant)
            .max_uniq_ids(ids)
            .txn_per_id(per_id)
            .prescaler(step)
            .build()
            .unwrap()
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
    }

    #[test]
    fn counters_scale_linearly_with_outstanding() {
        let a = counters(&cfg(TmuVariant::TinyCounter, 4, 4, 1), 256);
        let b = counters(&cfg(TmuVariant::TinyCounter, 4, 8, 1), 256);
        assert_eq!(
            b.ff,
            2 * a.ff,
            "widths are capacity-independent (256-cycle cap)"
        );
    }

    #[test]
    fn fc_counters_cost_more_than_tc() {
        let tc = counters(&cfg(TmuVariant::TinyCounter, 4, 8, 1), 256);
        let fc = counters(&cfg(TmuVariant::FullCounter, 4, 8, 1), 256);
        assert!(fc.ff > 2 * tc.ff, "tc={} fc={}", tc.ff, fc.ff);
    }

    #[test]
    fn prescaler_shrinks_counter_bits() {
        let flat = counters(&cfg(TmuVariant::TinyCounter, 4, 8, 1), 256);
        let pre = counters(&cfg(TmuVariant::TinyCounter, 4, 8, 32), 256);
        assert!(pre.ff < flat.ff, "flat={} pre={}", flat.ff, pre.ff);
    }

    #[test]
    fn fixed_modules_ignore_prescaler() {
        let flat = cfg(TmuVariant::TinyCounter, 4, 8, 1);
        let pre = cfg(TmuVariant::TinyCounter, 4, 8, 32);
        assert_eq!(ld_table(&flat), ld_table(&pre));
        assert_eq!(ht_table(&flat), ht_table(&pre));
        assert_eq!(ei_table(&flat), ei_table(&pre));
        assert_eq!(remapper(&flat), remapper(&pre));
    }

    #[test]
    fn ht_scales_with_ids_not_outstanding() {
        let few = ht_table(&cfg(TmuVariant::TinyCounter, 2, 8, 1));
        let many = ht_table(&cfg(TmuVariant::TinyCounter, 8, 2, 1));
        assert!(many.ff > few.ff);
    }

    #[test]
    fn all_modules_has_every_block() {
        let mods = all_modules(&cfg(TmuVariant::FullCounter, 4, 4, 1), 256);
        let names: Vec<_> = mods.iter().map(|m| m.name).collect();
        for expect in [
            "counters",
            "ld_table",
            "ht_table",
            "ei_table",
            "id_remapper",
            "guard_logic",
            "regfile",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }
}
