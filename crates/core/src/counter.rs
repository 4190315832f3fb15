//! Prescaled timeout counters with the sticky-bit mechanism (paper §II-G).
//!
//! To save area, a TMU counter may increment only every `step` cycles (the
//! **prescaler**), letting the stored count be `log2(step)` bits narrower.
//! The cost is detection-latency resolution: a timeout is only noticed at
//! a prescale tick.
//!
//! The **sticky bit** latches the *near-timeout* condition (count has
//! reached the prescaled budget) the moment it occurs, guaranteeing the
//! expiry is acted on at the very next tick. Without it, the modelled
//! hardware may need one additional prescale period to confirm the expiry
//! (the counter-update delay the paper describes), so:
//!
//! * with sticky: detection at `step × (⌈budget/step⌉ + 1)` cycles,
//! * without:     detection at `step × (⌈budget/step⌉ + 2)` cycles.
//!
//! Both collapse to roughly `budget` for `step = 1`, and grow linearly
//! with `step` — the trade-off plotted in the paper's Fig. 8.

use std::fmt;

/// A saturating up-counter with prescaler and optional sticky bit.
///
/// The counter counts *cycles in the current phase* (Full-Counter) or
/// *cycles since transaction start* (Tiny-Counter); [`Self::expired`]
/// compares against the budget configured at construction or via
/// [`Self::rebudget`].
///
/// ```
/// use tmu::PrescaledCounter;
///
/// // budget 8 cycles, prescale step 4, sticky enabled
/// let mut c = PrescaledCounter::new(8, 4, true);
/// let mut cycles = 0;
/// while !c.expired() {
///     c.tick();
///     cycles += 1;
///     assert!(cycles < 100);
/// }
/// // ⌈8/4⌉ = 2 ticks to near-timeout, +1 tick to expire = 3 ticks = 12 cycles
/// assert_eq!(cycles, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrescaledCounter {
    /// Prescale step (1 = count every cycle).
    step: u64,
    /// Cycles since the last prescale tick.
    q_phase: u64,
    /// Prescaled count (the narrow hardware register).
    q_count: u64,
    /// Budget, in prescaled ticks.
    q_ticks_budget: u64,
    /// Sticky near-timeout latch.
    q_sticky: bool,
    /// Whether the sticky mechanism is instantiated.
    sticky_enabled: bool,
}

impl PrescaledCounter {
    /// Creates a counter for a `budget_cycles` deadline with prescale
    /// `step` and the sticky bit `sticky_enabled`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[must_use]
    pub fn new(budget_cycles: u64, step: u64, sticky_enabled: bool) -> Self {
        assert!(step > 0, "prescale step must be nonzero");
        PrescaledCounter {
            step,
            q_phase: 0,
            q_count: 0,
            q_ticks_budget: budget_cycles.div_ceil(step),
            q_sticky: false,
            sticky_enabled,
        }
    }

    /// Advances one cycle. Saturates rather than wrapping, like the
    /// hardware counter.
    pub fn tick(&mut self) {
        self.q_phase += 1;
        if self.q_phase >= self.step {
            self.q_phase = 0;
            self.q_count = self.q_count.saturating_add(1);
            if self.q_count >= self.q_ticks_budget {
                self.q_sticky = true;
            }
        }
    }

    /// Advances `n` cycles at once. Equivalent to `n` calls to
    /// [`Self::tick`], in O(1) — the deadline-wheel engine uses this to
    /// materialize a counter's state lazily instead of ticking it every
    /// cycle.
    ///
    /// The equivalence holds because the per-cycle state is fully
    /// determined by `(phase + n) / step` whole prescale ticks and a
    /// `(phase + n) % step` residue, and the sticky latch — only
    /// evaluated at tick boundaries — latches iff any tick occurred with
    /// the (monotone) count at or beyond the budget, i.e. iff the final
    /// count is and at least one tick occurred.
    pub fn advance(&mut self, n: u64) {
        let total = self.q_phase.saturating_add(n);
        let ticks = total / self.step;
        self.q_count = self.q_count.saturating_add(ticks);
        self.q_phase = total % self.step;
        if ticks > 0 && self.q_count >= self.q_ticks_budget {
            self.q_sticky = true;
        }
    }

    /// The prescaled count at which [`Self::expired`] first reports true:
    /// one past the budget with the sticky bit (the latch confirms the
    /// near-timeout at the next tick), two past without (the modelled
    /// counter-update delay needs an extra confirmation tick).
    fn expiry_count(&self) -> u64 {
        if self.sticky_enabled {
            self.q_ticks_budget.saturating_add(1)
        } else {
            self.q_ticks_budget.saturating_add(2)
        }
    }

    /// Stalled cycles from the current state until [`Self::expired`]
    /// first reports true (0 if it already does). This is the counter's
    /// *deadline*: the deadline-wheel engine schedules one wake-up this
    /// many cycles ahead instead of ticking every cycle.
    #[must_use]
    pub fn cycles_to_expiry(&self) -> u64 {
        if self.expired() {
            return 0;
        }
        // Not expired, so count < expiry_count (the count passes through
        // the budget on its way up, latching sticky at that tick).
        (self.expiry_count() - self.q_count)
            .saturating_mul(self.step)
            .saturating_sub(self.q_phase)
    }

    /// True once the budget deadline is considered exceeded (see the
    /// [module docs](self) for the exact latency semantics).
    #[must_use]
    pub fn expired(&self) -> bool {
        if self.sticky_enabled {
            self.q_sticky && self.q_count > self.q_ticks_budget
        } else {
            self.q_count > self.q_ticks_budget.saturating_add(1)
        }
    }

    /// True once the near-timeout condition has been observed (and, with
    /// the sticky bit, latched).
    #[must_use]
    pub fn near_timeout(&self) -> bool {
        self.q_sticky || self.q_count >= self.q_ticks_budget
    }

    /// Restarts the count for a new phase, keeping step/budget/sticky
    /// configuration. The sticky latch is cleared — it guards one phase.
    pub fn restart(&mut self) {
        self.q_phase = 0;
        self.q_count = 0;
        self.q_sticky = false;
    }

    /// Replaces the budget (in cycles), e.g. at a Full-Counter phase
    /// transition where the next phase has its own adaptive budget, and
    /// restarts the count.
    pub fn rebudget(&mut self, budget_cycles: u64) {
        self.q_ticks_budget = budget_cycles.div_ceil(self.step);
        self.restart();
    }

    /// Elapsed cycles as visible to the hardware: prescaled count ×
    /// step. The true elapsed time may be up to `step − 1` cycles more.
    #[must_use]
    pub fn elapsed_cycles(&self) -> u64 {
        self.q_count.saturating_mul(self.step)
    }

    /// The prescaled count register value.
    #[must_use]
    pub fn raw_count(&self) -> u64 {
        self.q_count
    }

    /// The prescale step.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Worst-case cycles from phase start to [`Self::expired`] reporting
    /// true, for a `budget_cycles` deadline under total stall — the
    /// quantity plotted on the x-axis of the paper's Fig. 8.
    ///
    /// This is a pure function of the configuration, exposed so the area
    /// model can pair latency with area without running a simulation (the
    /// simulation-based measurement in `tmu-bench` cross-checks it).
    #[must_use]
    pub fn detection_latency(budget_cycles: u64, step: u64, sticky_enabled: bool) -> u64 {
        let ticks = budget_cycles.div_ceil(step);
        if sticky_enabled {
            step.saturating_mul(ticks.saturating_add(1))
        } else {
            step.saturating_mul(ticks.saturating_add(2))
        }
    }

    /// The count-register width, in bits, needed for this budget/step
    /// combination (used by the area model): enough to hold
    /// `⌈budget/step⌉ + 2`.
    #[must_use]
    pub fn required_width_bits(budget_cycles: u64, step: u64) -> u32 {
        let max_count = budget_cycles.div_ceil(step).saturating_add(2);
        64 - max_count.leading_zeros()
    }
}

impl fmt::Display for PrescaledCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ticks (step {}){}",
            self.q_count,
            self.q_ticks_budget,
            self.step,
            if self.q_sticky { " STICKY" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks until `expired` under total stall.
    fn measure(budget: u64, step: u64, sticky: bool) -> u64 {
        let mut c = PrescaledCounter::new(budget, step, sticky);
        let mut n = 0;
        while !c.expired() {
            c.tick();
            n += 1;
            assert!(n < 1_000_000, "counter never expired");
        }
        n
    }

    #[test]
    fn unprescaled_expiry_latency() {
        // step 1, sticky: ticks = budget, expire at budget + 1.
        assert_eq!(measure(10, 1, true), 11);
        // step 1, no sticky: one extra confirmation tick.
        assert_eq!(measure(10, 1, false), 12);
    }

    #[test]
    fn prescaled_expiry_latency_matches_formula() {
        for &(budget, step) in &[(256u64, 32u64), (256, 1), (100, 7), (320, 16), (1, 128)] {
            for sticky in [true, false] {
                assert_eq!(
                    measure(budget, step, sticky),
                    PrescaledCounter::detection_latency(budget, step, sticky),
                    "budget={budget} step={step} sticky={sticky}"
                );
            }
        }
    }

    #[test]
    fn latency_grows_with_step() {
        let mut prev = 0;
        for step in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let lat = PrescaledCounter::detection_latency(256, step, true);
            assert!(lat >= prev, "latency must not shrink as step grows");
            prev = lat;
        }
    }

    #[test]
    fn sticky_reduces_latency_by_one_step() {
        for step in [2u64, 8, 32] {
            let with = PrescaledCounter::detection_latency(256, step, true);
            let without = PrescaledCounter::detection_latency(256, step, false);
            assert_eq!(without - with, step);
        }
    }

    #[test]
    fn restart_clears_progress_and_sticky() {
        let mut c = PrescaledCounter::new(2, 1, true);
        for _ in 0..5 {
            c.tick();
        }
        assert!(c.near_timeout());
        c.restart();
        assert!(!c.near_timeout());
        assert!(!c.expired());
        assert_eq!(c.raw_count(), 0);
    }

    #[test]
    fn rebudget_applies_new_deadline() {
        let mut c = PrescaledCounter::new(100, 1, true);
        c.rebudget(3);
        let mut n = 0;
        while !c.expired() {
            c.tick();
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn elapsed_is_prescale_quantized() {
        let mut c = PrescaledCounter::new(100, 4, true);
        for _ in 0..7 {
            c.tick();
        }
        assert_eq!(c.elapsed_cycles(), 4, "7 cycles at step 4 = 1 tick");
        c.tick();
        assert_eq!(c.elapsed_cycles(), 8);
    }

    #[test]
    fn width_shrinks_with_prescaler() {
        let w1 = PrescaledCounter::required_width_bits(256, 1);
        let w32 = PrescaledCounter::required_width_bits(256, 32);
        assert!(w32 < w1);
        assert_eq!(w1, 9); // 258 needs 9 bits
        assert_eq!(w32, 4); // 10 needs 4 bits
    }

    #[test]
    fn near_timeout_precedes_expiry() {
        let mut c = PrescaledCounter::new(4, 2, true);
        let mut saw_near_before_expired = false;
        while !c.expired() {
            if c.near_timeout() {
                saw_near_before_expired = true;
            }
            c.tick();
        }
        assert!(saw_near_before_expired);
    }

    #[test]
    fn zero_budget_expires_quickly() {
        // Degenerate budget: still terminates.
        assert!(measure(0, 1, true) <= 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_step_rejected() {
        let _ = PrescaledCounter::new(8, 0, true);
    }

    #[test]
    fn advance_matches_repeated_ticks() {
        for &(budget, step, sticky) in &[
            (10u64, 1u64, true),
            (10, 1, false),
            (256, 32, true),
            (256, 32, false),
            (100, 7, true),
            (0, 4, true),
            (1, 128, false),
        ] {
            for n in [0u64, 1, 3, 7, 31, 100, 1000] {
                let mut ticked = PrescaledCounter::new(budget, step, sticky);
                for _ in 0..n {
                    ticked.tick();
                }
                let mut advanced = PrescaledCounter::new(budget, step, sticky);
                advanced.advance(n);
                assert_eq!(
                    ticked, advanced,
                    "budget={budget} step={step} sticky={sticky} n={n}"
                );
            }
        }
    }

    #[test]
    fn advance_composes() {
        let mut once = PrescaledCounter::new(50, 8, true);
        once.advance(77);
        let mut split = PrescaledCounter::new(50, 8, true);
        split.advance(30);
        split.advance(40);
        split.advance(7);
        assert_eq!(once, split);
    }

    #[test]
    fn cycles_to_expiry_predicts_exact_fire_tick() {
        for &(budget, step, sticky) in &[
            (10u64, 1u64, true),
            (10, 1, false),
            (256, 32, true),
            (256, 32, false),
            (100, 7, true),
            (0, 1, true),
        ] {
            let mut c = PrescaledCounter::new(budget, step, sticky);
            // From every intermediate state, the prediction must be the
            // exact number of remaining stalled ticks.
            loop {
                let predicted = c.cycles_to_expiry();
                let mut probe = c;
                let mut n = 0;
                while !probe.expired() {
                    probe.tick();
                    n += 1;
                }
                assert_eq!(
                    predicted,
                    n,
                    "budget={budget} step={step} sticky={sticky} count={}",
                    c.raw_count()
                );
                if c.expired() {
                    assert_eq!(predicted, 0);
                    break;
                }
                c.tick();
            }
        }
    }

    #[test]
    fn cycles_to_expiry_matches_detection_latency_when_fresh() {
        for &(budget, step) in &[(256u64, 32u64), (256, 1), (100, 7), (1, 128)] {
            for sticky in [true, false] {
                let c = PrescaledCounter::new(budget, step, sticky);
                assert_eq!(
                    c.cycles_to_expiry(),
                    PrescaledCounter::detection_latency(budget, step, sticky)
                );
            }
        }
    }

    #[test]
    fn display_mentions_sticky_state() {
        let mut c = PrescaledCounter::new(1, 1, true);
        assert!(!c.to_string().contains("STICKY"));
        c.tick();
        assert!(c.to_string().contains("STICKY"));
    }
}
