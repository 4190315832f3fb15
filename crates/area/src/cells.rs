//! Cell-area coefficients and the anchor-point calibration.
//!
//! Area is modelled as `A = ff_um2 · FF + ge_um2 · GE`. The two
//! coefficients are fitted by linear least squares to the four block
//! areas the paper reports for GF12 (Table/§III-A): Tiny-Counter at
//! 16 and 32 outstanding transactions (1330 / 2616 µm²) and Full-Counter
//! at the same points (3452 / 6787 µm²), all without a prescaler.

use tmu::{TmuConfig, TmuVariant};

use crate::inventory::all_modules;

/// One calibration anchor from the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Counter variant.
    pub variant: TmuVariant,
    /// Unique IDs (the paper fixes 4).
    pub max_uniq_ids: usize,
    /// Transactions per ID.
    pub txn_per_id: u32,
    /// Reported GF12 area in µm².
    pub reported_um2: f64,
}

/// The paper's four GF12 anchor points (§III-A / abstract).
pub const PAPER_ANCHORS: [Anchor; 4] = [
    Anchor {
        variant: TmuVariant::TinyCounter,
        max_uniq_ids: 4,
        txn_per_id: 4,
        reported_um2: 1330.0,
    },
    Anchor {
        variant: TmuVariant::TinyCounter,
        max_uniq_ids: 4,
        txn_per_id: 8,
        reported_um2: 2616.0,
    },
    Anchor {
        variant: TmuVariant::FullCounter,
        max_uniq_ids: 4,
        txn_per_id: 4,
        reported_um2: 3452.0,
    },
    Anchor {
        variant: TmuVariant::FullCounter,
        max_uniq_ids: 4,
        txn_per_id: 8,
        reported_um2: 6787.0,
    },
];

/// Maximum burst length assumed throughout the IP-level evaluation
/// ("transactions lasting up to 256 clock cycles").
pub const EVAL_MAX_BEATS: u16 = 256;

/// Per-cell area coefficients (µm²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLibrary {
    /// Area per flip-flop bit, including clocking and routing overhead.
    pub ff_um2: f64,
    /// Area per combinational gate-equivalent.
    pub ge_um2: f64,
}

impl CellLibrary {
    /// The GF12 library calibrated against [`PAPER_ANCHORS`].
    ///
    /// The fit is a closed-form 2-parameter linear least squares over the
    /// four anchors; coefficients are clamped non-negative.
    #[must_use]
    pub fn gf12_calibrated() -> CellLibrary {
        // Normal equations for A = x1*FF + x2*GE.
        let (mut s11, mut s12, mut s22, mut b1, mut b2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for anchor in PAPER_ANCHORS {
            let cfg = anchor_config(&anchor);
            let (ff, ge) = total_bits(&cfg);
            s11 += ff * ff;
            s12 += ff * ge;
            s22 += ge * ge;
            b1 += ff * anchor.reported_um2;
            b2 += ge * anchor.reported_um2;
        }
        let det = s11 * s22 - s12 * s12;
        let (mut ff_um2, mut ge_um2) = if det.abs() > 1e-9 {
            ((b1 * s22 - b2 * s12) / det, (b2 * s11 - b1 * s12) / det)
        } else {
            (b1 / s11, 0.0)
        };
        if ge_um2 < 0.0 {
            // Degenerate: fold everything into the FF coefficient.
            ge_um2 = 0.0;
            ff_um2 = b1 / s11;
        }
        if ff_um2 < 0.0 {
            ff_um2 = 0.0;
            ge_um2 = b2 / s22;
        }
        CellLibrary { ff_um2, ge_um2 }
    }

    /// Area of an (FF, GE) inventory under this library.
    #[must_use]
    pub fn area_um2(&self, ff: u64, ge: u64) -> f64 {
        self.ff_um2 * ff as f64 + self.ge_um2 * ge as f64
    }
}

/// The TMU configuration corresponding to one anchor (no prescaler, as
/// the anchors quote the un-prescaled variants).
///
/// # Panics
///
/// Panics if the anchor parameters violate the configuration
/// builder's validity checks; the baked-in anchors never do.
#[must_use]
pub fn anchor_config(anchor: &Anchor) -> TmuConfig {
    TmuConfig::builder()
        .variant(anchor.variant)
        .max_uniq_ids(anchor.max_uniq_ids)
        .txn_per_id(anchor.txn_per_id)
        .prescaler(1)
        .build()
        .expect("anchor configurations are valid")
}

fn total_bits(cfg: &TmuConfig) -> (f64, f64) {
    let mods = all_modules(cfg, EVAL_MAX_BEATS);
    let ff: u64 = mods.iter().map(|m| m.ff).sum();
    let ge: u64 = mods.iter().map(|m| m.ge).sum();
    (ff as f64, ge as f64)
}

/// Relative error of the calibrated model at each anchor:
/// `(anchor, modelled_um2, relative_error)`.
#[must_use]
pub fn calibration_report() -> Vec<(Anchor, f64, f64)> {
    let lib = CellLibrary::gf12_calibrated();
    PAPER_ANCHORS
        .into_iter()
        .map(|anchor| {
            let cfg = anchor_config(&anchor);
            let (ff, ge) = total_bits(&cfg);
            let modelled = lib.ff_um2 * ff + lib.ge_um2 * ge;
            let err = (modelled - anchor.reported_um2) / anchor.reported_um2;
            (anchor, modelled, err)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_physical() {
        let lib = CellLibrary::gf12_calibrated();
        assert!(lib.ff_um2 >= 0.0 && lib.ge_um2 >= 0.0);
        // A GF12 flip-flop with routing overhead lands somewhere in
        // 0.3..5 µm²; anything outside means the inventory is badly off.
        assert!(
            (0.1..10.0).contains(&lib.ff_um2),
            "implausible FF area {} µm²",
            lib.ff_um2
        );
    }

    #[test]
    fn anchors_reproduced_within_tolerance() {
        for (anchor, modelled, err) in calibration_report() {
            assert!(
                err.abs() < 0.20,
                "{:?} modelled {:.0} vs reported {:.0} ({:+.1}%)",
                anchor.variant,
                modelled,
                anchor.reported_um2,
                err * 100.0
            );
        }
    }

    #[test]
    fn tc_is_roughly_38_percent_of_fc() {
        // The paper: "On average, Tc requires about 38% of Fc's area."
        let report = calibration_report();
        let tc: f64 = report.iter().take(2).map(|(_, m, _)| m).sum();
        let fc: f64 = report.iter().skip(2).map(|(_, m, _)| m).sum();
        let ratio = tc / fc;
        assert!(
            (0.28..0.50).contains(&ratio),
            "Tc/Fc area ratio {ratio:.2} outside the paper's ballpark"
        );
    }

    #[test]
    fn area_helper_is_linear() {
        let lib = CellLibrary {
            ff_um2: 1.0,
            ge_um2: 0.5,
        };
        assert_eq!(lib.area_um2(10, 4), 12.0);
        assert_eq!(lib.area_um2(0, 0), 0.0);
    }
}
