//! The public area-model entry points.

use std::fmt;

use tmu::counter::PrescaledCounter;
use tmu::TmuConfig;

use crate::cells::{CellLibrary, EVAL_MAX_BEATS};
use crate::inventory::{all_modules, ModuleBits};

/// Per-module and total area of one TMU instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    modules: Vec<(ModuleBits, f64)>,
    total: f64,
}

impl AreaBreakdown {
    /// Total area in µm².
    #[must_use]
    pub fn total_um2(&self) -> f64 {
        self.total
    }

    /// Per-module `(name, µm²)` pairs, in architectural order.
    pub fn modules(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.modules.iter().map(|(m, a)| (m.name, *a))
    }

    /// Area of one named module (0 if absent).
    #[must_use]
    pub fn module_um2(&self, name: &str) -> f64 {
        self.modules
            .iter()
            .find(|(m, _)| m.name == name)
            .map_or(0.0, |(_, a)| *a)
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (module, area) in &self.modules {
            writeln!(
                f,
                "  {:<12} {:>8.1} um2 ({} FF, {} GE)",
                module.name, area, module.ff, module.ge
            )?;
        }
        write!(f, "  {:<12} {:>8.1} um2", "TOTAL", self.total)
    }
}

/// Area of a TMU configured as `cfg`, assuming bursts up to `max_beats`
/// beats, under the calibrated GF12 library.
#[must_use]
pub fn tmu_area(cfg: &TmuConfig, max_beats: u16) -> AreaBreakdown {
    tmu_area_with(cfg, max_beats, &CellLibrary::gf12_calibrated())
}

/// Same as [`tmu_area`] with an explicit cell library.
#[must_use]
pub fn tmu_area_with(cfg: &TmuConfig, max_beats: u16, lib: &CellLibrary) -> AreaBreakdown {
    let modules: Vec<(ModuleBits, f64)> = all_modules(cfg, max_beats)
        .into_iter()
        .map(|m| {
            let area = lib.area_um2(m.ff, m.ge);
            (m, area)
        })
        .collect();
    let total = modules.iter().map(|(_, a)| a).sum();
    AreaBreakdown { modules, total }
}

/// One point of the paper's Fig. 8: `(prescaler step, area µm²,
/// worst-case detection latency in cycles)` for a fixed configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrescalerPoint {
    /// Prescaler step.
    pub step: u64,
    /// Modelled area.
    pub area_um2: f64,
    /// Analytic worst-case detection latency under total stall.
    pub detection_latency: u64,
}

/// Sweeps the prescaler step for a base configuration (Fig. 8): the
/// sticky bit is enabled whenever `step > 1`, matching the paper's
/// `+Pre` configurations. `budget` is the stall budget whose expiry
/// latency is reported.
///
/// # Panics
///
/// Panics if any entry of `steps` is zero (the prescale step must
/// be nonzero).
#[must_use]
pub fn prescaler_sweep(base: &TmuConfig, steps: &[u64], budget: u64) -> Vec<PrescalerPoint> {
    steps
        .iter()
        .map(|&step| {
            let cfg = TmuConfig::builder()
                .variant(base.variant())
                .max_uniq_ids(base.max_uniq_ids())
                .txn_per_id(base.txn_per_id())
                .budgets(*base.budgets())
                .check_protocol(base.check_protocol())
                .prescaler(step)
                .build()
                .expect("sweep configurations are valid");
            PrescalerPoint {
                step,
                area_um2: tmu_area(&cfg, EVAL_MAX_BEATS).total_um2(),
                detection_latency: PrescaledCounter::detection_latency(budget, step, step > 1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu::TmuVariant;

    fn cfg(variant: TmuVariant, per_id: u32, step: u64) -> TmuConfig {
        TmuConfig::builder()
            .variant(variant)
            .max_uniq_ids(4)
            .txn_per_id(per_id)
            .prescaler(step)
            .build()
            .unwrap()
    }

    #[test]
    fn area_grows_with_outstanding() {
        let mut prev = 0.0;
        for per_id in [1u32, 2, 4, 8, 16, 32] {
            let area = tmu_area(&cfg(TmuVariant::TinyCounter, per_id, 1), 256).total_um2();
            assert!(area > prev, "per_id={per_id}: {area} <= {prev}");
            prev = area;
        }
    }

    #[test]
    fn fc_larger_than_tc_everywhere() {
        for per_id in [1u32, 4, 16, 32] {
            let tc = tmu_area(&cfg(TmuVariant::TinyCounter, per_id, 1), 256).total_um2();
            let fc = tmu_area(&cfg(TmuVariant::FullCounter, per_id, 1), 256).total_um2();
            assert!(fc > tc, "per_id={per_id}: fc={fc} tc={tc}");
        }
    }

    #[test]
    fn prescaler_reduces_area_in_paper_range() {
        // Paper: prescaler step 32 reduces area by 18–39% (Tc) and
        // 19–32% (Fc) across the explored range.
        for (variant, lo, hi) in [
            (TmuVariant::TinyCounter, 0.10, 0.45),
            (TmuVariant::FullCounter, 0.10, 0.45),
        ] {
            for per_id in [4u32, 8, 16, 32] {
                let flat = tmu_area(&cfg(variant, per_id, 1), 256).total_um2();
                let pre = tmu_area(&cfg(variant, per_id, 32), 256).total_um2();
                let saving = (flat - pre) / flat;
                assert!(
                    (lo..hi).contains(&saving),
                    "{variant:?} per_id={per_id}: saving {:.1}% outside {:.0}..{:.0}%",
                    saving * 100.0,
                    lo * 100.0,
                    hi * 100.0
                );
            }
        }
    }

    #[test]
    fn prescaler_sweep_trades_area_for_latency() {
        let base = cfg(TmuVariant::FullCounter, 32, 1);
        let points = prescaler_sweep(&base, &[1, 2, 4, 8, 16, 32, 64, 128], 256);
        assert_eq!(points.len(), 8);
        for pair in points.windows(2) {
            assert!(
                pair[1].area_um2 <= pair[0].area_um2,
                "area must not grow with step"
            );
            assert!(
                pair[1].detection_latency >= pair[0].detection_latency,
                "latency must not shrink with step"
            );
        }
        // The extremes differ meaningfully.
        assert!(points[0].area_um2 > points[7].area_um2);
        assert!(points[7].detection_latency > points[0].detection_latency);
    }

    #[test]
    fn breakdown_accessors() {
        let area = tmu_area(&cfg(TmuVariant::FullCounter, 8, 1), 256);
        let sum: f64 = area.modules().map(|(_, a)| a).sum();
        assert!((sum - area.total_um2()).abs() < 1e-6);
        assert!(area.module_um2("counters") > 0.0);
        assert_eq!(area.module_um2("nonexistent"), 0.0);
        assert!(area.to_string().contains("TOTAL"));
    }

    #[test]
    fn counters_dominate_fc_area() {
        // The Full-Counter's extra cost is its per-phase counters —
        // that's the architectural story of the paper's 2.5x factor.
        let area = tmu_area(&cfg(TmuVariant::FullCounter, 32, 1), 256);
        assert!(area.module_um2("counters") > area.total_um2() * 0.4);
    }
}
