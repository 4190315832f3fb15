//! The deadline wheel: event-driven timeout scheduling for the guards.
//!
//! The reference model ticks every live [`crate::PrescaledCounter`] every
//! cycle — O(outstanding) work per simulated cycle, which dominates the
//! runtime of long stall scenarios and the Fig. 7/8/9 sweeps. The wheel
//! replaces that with next-event scheduling: whenever a counter is
//! (re)started, the guard computes the exact future cycle its expiry can
//! first fire ([`crate::PrescaledCounter::cycles_to_expiry`], a pure
//! function of the budget, prescale step, and sticky setting) and
//! registers that deadline here. The per-cycle commit pass then touches
//! only counters whose deadline is due.
//!
//! # A per-slot table
//!
//! Each OTT row in the hardware holds one timeout counter, and the
//! Full-Counter restarts it in place at every phase transition (paper
//! §II-G). The wheel keeps the same shape: one deadline per LD slot
//! (`u64::MAX` = disarmed) next to the cycle it was armed at. Arming
//! overwrites the slot's deadline, so a restart or a recycled slot never
//! leaves a stale entry behind, and `arm`/`disarm` are O(1) writes with
//! no allocation.
//!
//! # The cached lower bound
//!
//! `earliest` is a lower bound on every armed deadline: `arm` lowers it,
//! `disarm` leaves it alone (a disarmed slot only makes it looser). While
//! `now < earliest` nothing can be due, so on most cycles
//! [`DeadlineWheel::pop_expired`] is one comparison. Once `now` reaches
//! the bound, one scan over the slots either returns the smallest due
//! deadline or, if none is due (the bound belonged to a deadline since
//! superseded or disarmed), tightens `earliest` to the exact minimum.
//!
//! The scan covers only the armed span: `span` is one past the highest
//! slot armed since the last `clear`, so every slot at or above it is
//! disarmed. The LD free list hands out the most recently freed row
//! first, so live rows crowd the low slots. Counted at every scan of
//! the busybench workloads (seed 1), `link_deep`'s 128-slot write and
//! read tables span 32 and 12 slots, `regulated_4mgr`'s 128-slot trunk
//! tables 9, and `soc_fig10`'s 16-slot tables 2 to 4. `clear` resets
//! the span; nothing else lowers it, so a slot armed once stays inside
//! the scan until then. The scan's result is the full scan's.
//!
//! # Ordering
//!
//! The reference engine reports simultaneous expiries in LD-index order
//! (its tick loop iterates the LD table in index order). The scan picks
//! the smallest `(fire_cycle, slot)` pair — it walks the slots in index
//! order and only replaces its pick on a strictly earlier deadline — so
//! due deadlines drain in exactly the order a min-heap of `(fire_cycle,
//! slot)` would yield, a requirement for cycle-for-cycle log equivalence.

use crate::ott::LdIndex;

/// `fire_at` value of a disarmed slot.
const DISARMED: u64 = u64::MAX;

/// One timeout deadline per LD slot with a cached lower bound. See the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct DeadlineWheel {
    /// Commit during which each slot's expiry fires; [`DISARMED`] if none.
    fire_at: Vec<u64>,
    /// Commit that delivers the first tick of each slot's most recent arm.
    armed_at: Vec<u64>,
    /// Lower bound on every armed deadline ([`DISARMED`] when none can be).
    earliest: u64,
    /// One past the highest slot armed since the last `clear`; every
    /// slot from here on is [`DISARMED`].
    span: usize,
}

impl DeadlineWheel {
    /// A wheel for `capacity` LD slots.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DeadlineWheel {
            fire_at: vec![DISARMED; capacity],
            armed_at: vec![0; capacity],
            earliest: DISARMED,
            span: 0,
        }
    }

    /// Registers `slot`'s freshly (re)started counter: its first tick
    /// lands at commit `armed_at`, and its expiry fires during commit
    /// `fire_at`. Supersedes any previous arm of the slot.
    pub fn arm(&mut self, slot: LdIndex, armed_at: u64, fire_at: u64) {
        debug_assert!(fire_at != DISARMED, "deadline at the disarmed sentinel");
        self.fire_at[slot] = fire_at;
        self.armed_at[slot] = armed_at;
        self.earliest = self.earliest.min(fire_at);
        self.span = self.span.max(slot + 1);
    }

    /// Cancels `slot`'s pending deadline (transaction retired or timed
    /// out).
    pub fn disarm(&mut self, slot: LdIndex) {
        self.fire_at[slot] = DISARMED;
    }

    /// The cycle whose commit delivered (or will deliver) the first tick
    /// of `slot`'s most recent arm.
    #[must_use]
    pub fn armed_at(&self, slot: LdIndex) -> u64 {
        self.armed_at[slot]
    }

    /// The smallest `(fire_cycle, slot)` over all slots: the first slot
    /// holding the minimum deadline, or `(DISARMED, _)` when none is
    /// armed. Only the armed span can hold one.
    fn min_slot(&self) -> (u64, LdIndex) {
        let mut best = (DISARMED, 0);
        for (slot, &fire) in self.fire_at[..self.span].iter().enumerate() {
            if fire < best.0 {
                best = (fire, slot);
            }
        }
        best
    }

    /// Whether a deadline can be due at `now`: `false` means
    /// [`DeadlineWheel::pop_expired`] would return `None` without a scan.
    /// A `true` may be a loose bound (a superseded or disarmed deadline).
    #[inline]
    #[must_use]
    pub fn may_be_due(&self, now: u64) -> bool {
        now >= self.earliest
    }

    /// The earliest pending deadline, if any. Tightens the cached bound
    /// to it.
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.earliest = self.min_slot().0;
        (self.earliest != DISARMED).then_some(self.earliest)
    }

    /// Pops the next deadline due at or before `now`, returning the slot
    /// and its arm cycle, or `None` once no armed deadline is due.
    /// Simultaneous deadlines come out in ascending slot order. The
    /// popped slot is disarmed.
    pub fn pop_expired(&mut self, now: u64) -> Option<(LdIndex, u64)> {
        if !self.may_be_due(now) {
            return None;
        }
        let (fire, slot) = self.min_slot();
        // Exact after the scan: every other deadline is at or after it.
        self.earliest = fire;
        if fire > now || fire == DISARMED {
            return None;
        }
        self.fire_at[slot] = DISARMED;
        Some((slot, self.armed_at[slot]))
    }

    /// Number of armed deadlines (telemetry gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.fire_at[..self.span]
            .iter()
            .filter(|&&fire| fire != DISARMED)
            .count()
    }

    /// Discards every pending deadline (abort/reset path).
    pub fn clear(&mut self) {
        self.fire_at[..self.span].fill(DISARMED);
        self.earliest = DISARMED;
        self.span = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use sim::SimRng;

    use super::*;

    #[test]
    fn fires_in_deadline_then_slot_order() {
        let mut wheel = DeadlineWheel::new(4);
        wheel.arm(2, 0, 10);
        wheel.arm(0, 0, 10);
        wheel.arm(1, 0, 5);
        assert_eq!(wheel.next_deadline(), Some(5));
        assert_eq!(wheel.pop_expired(10), Some((1, 0)));
        assert_eq!(wheel.pop_expired(10), Some((0, 0)));
        assert_eq!(wheel.pop_expired(10), Some((2, 0)));
        assert_eq!(wheel.pop_expired(10), None);
    }

    #[test]
    fn not_due_yet_stays_armed() {
        let mut wheel = DeadlineWheel::new(2);
        wheel.arm(0, 3, 9);
        assert_eq!(wheel.pop_expired(8), None);
        assert_eq!(wheel.next_deadline(), Some(9));
        assert_eq!(wheel.pop_expired(9), Some((0, 3)));
    }

    #[test]
    fn rearm_supersedes_previous_deadline() {
        let mut wheel = DeadlineWheel::new(2);
        wheel.arm(0, 0, 5);
        wheel.arm(0, 7, 20); // phase transition: counter restarted
        assert_eq!(wheel.pop_expired(5), None, "stale entry discarded");
        assert_eq!(wheel.next_deadline(), Some(20));
        assert_eq!(wheel.pop_expired(20), Some((0, 7)));
    }

    #[test]
    fn disarm_cancels_and_slot_reuse_is_safe() {
        let mut wheel = DeadlineWheel::new(2);
        wheel.arm(0, 0, 5);
        wheel.disarm(0); // transaction retired
        wheel.arm(0, 2, 30); // LD slot recycled by a new transaction
        assert_eq!(wheel.pop_expired(10), None);
        assert_eq!(wheel.pop_expired(30), Some((0, 2)));
    }

    #[test]
    fn may_be_due_follows_the_cached_bound() {
        let mut wheel = DeadlineWheel::new(2);
        assert!(!wheel.may_be_due(u64::MAX - 1), "nothing armed");
        wheel.arm(0, 0, 5);
        assert!(!wheel.may_be_due(4));
        assert!(wheel.may_be_due(5));
        // A disarmed deadline leaves the bound loose until a scan.
        wheel.disarm(0);
        assert!(wheel.may_be_due(5));
        assert_eq!(wheel.pop_expired(5), None);
        assert!(!wheel.may_be_due(5), "the scan tightened the bound");
    }

    #[test]
    fn clear_drops_everything() {
        let mut wheel = DeadlineWheel::new(3);
        wheel.arm(0, 0, 5);
        wheel.arm(1, 0, 6);
        wheel.clear();
        assert_eq!(wheel.next_deadline(), None);
        assert_eq!(wheel.pop_expired(u64::MAX), None);
    }

    #[test]
    fn clear_resets_the_span_and_a_higher_slot_is_still_found() {
        let mut wheel = DeadlineWheel::new(8);
        wheel.arm(1, 0, 5);
        wheel.clear();
        // Slot 6 lies above the span the wheel had before the clear.
        wheel.arm(6, 2, 9);
        assert_eq!(wheel.next_deadline(), Some(9));
        assert_eq!(wheel.depth(), 1);
        assert_eq!(wheel.pop_expired(9), Some((6, 2)));
        assert_eq!(wheel.next_deadline(), None);
    }

    #[test]
    fn depth_counts_live_arms_only() {
        let mut wheel = DeadlineWheel::new(3);
        wheel.arm(0, 0, 5);
        wheel.arm(0, 1, 9); // restart in place: still one deadline
        assert_eq!(wheel.depth(), 1);
        wheel.arm(2, 1, 7);
        assert_eq!(wheel.depth(), 2);
        wheel.disarm(2);
        assert_eq!(wheel.depth(), 1);
        assert_eq!(wheel.pop_expired(9), Some((0, 1)));
        assert_eq!(wheel.depth(), 0);
        wheel.arm(1, 2, 4);
        wheel.clear();
        assert_eq!(wheel.depth(), 0);
    }

    /// Test-local reference: the ordered set of armed `(fire, slot)`
    /// pairs a min-heap drains from, plus per-slot arm cycles.
    #[derive(Debug, Default)]
    struct Reference {
        armed: BTreeSet<(u64, LdIndex)>,
        fire_of: Vec<Option<u64>>,
        armed_at: Vec<u64>,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Reference {
                armed: BTreeSet::new(),
                fire_of: vec![None; capacity],
                armed_at: vec![0; capacity],
            }
        }

        fn disarm(&mut self, slot: LdIndex) {
            if let Some(fire) = self.fire_of[slot].take() {
                self.armed.remove(&(fire, slot));
            }
        }

        fn arm(&mut self, slot: LdIndex, armed_at: u64, fire_at: u64) {
            self.disarm(slot);
            self.armed.insert((fire_at, slot));
            self.fire_of[slot] = Some(fire_at);
            self.armed_at[slot] = armed_at;
        }

        fn pop_expired(&mut self, now: u64) -> Option<(LdIndex, u64)> {
            let &(fire, slot) = self.armed.first()?;
            if fire > now {
                return None;
            }
            self.disarm(slot);
            Some((slot, self.armed_at[slot]))
        }

        fn next_deadline(&self) -> Option<u64> {
            self.armed.first().map(|&(fire, _)| fire)
        }

        fn clear(&mut self) {
            self.armed.clear();
            self.fire_of.fill(None);
        }
    }

    /// Random arm/re-arm/disarm/pop/peek/clear sequences agree with the
    /// ordered-set reference at every step: pop order (including several
    /// deadlines due in one cycle), arm cycles, next deadline and depth.
    /// The cached bound never exceeds the next deadline and equals it
    /// after `next_deadline`, and every slot past the span is disarmed.
    /// Wheels run up to 128 slots with slots drawn mostly low, as the LD
    /// free list hands them out, so the span usually ends well short of
    /// the capacity and occasionally widens.
    #[test]
    fn random_sequences_match_ordered_set_reference() {
        for seed in 0..300 {
            let mut rng = SimRng::seed(seed);
            let capacity = 1 + rng.below(128) as usize;
            let mut wheel = DeadlineWheel::new(capacity);
            let mut reference = Reference::new(capacity);
            let mut now = 0u64;
            for step in 0..400 {
                let low = capacity.min(8) as u64;
                let slot = if rng.below(4) == 0 {
                    rng.below(capacity as u64)
                } else {
                    rng.below(low)
                } as usize;
                match rng.below(10) {
                    // Arm or re-arm, with deadlines bunched so that
                    // several slots fall due in the same cycle.
                    0..=3 => {
                        let fire = now + rng.below(6);
                        wheel.arm(slot, now, fire);
                        reference.arm(slot, now, fire);
                    }
                    4 => {
                        wheel.disarm(slot);
                        reference.disarm(slot);
                    }
                    5 => {
                        assert_eq!(
                            wheel.next_deadline(),
                            reference.next_deadline(),
                            "seed {seed} step {step}: next_deadline"
                        );
                        assert_eq!(
                            wheel.earliest,
                            reference.next_deadline().unwrap_or(DISARMED),
                            "seed {seed} step {step}: exact bound"
                        );
                    }
                    6 if rng.below(20) == 0 => {
                        wheel.clear();
                        reference.clear();
                    }
                    // Advance time and drain everything due, as the
                    // guard's commit pass does.
                    _ => {
                        now += rng.below(4);
                        loop {
                            let popped = wheel.pop_expired(now);
                            assert_eq!(
                                popped,
                                reference.pop_expired(now),
                                "seed {seed} step {step}: pop at {now}"
                            );
                            if popped.is_none() {
                                break;
                            }
                        }
                    }
                }
                // The quiet-cycle gate relies on this: a due deadline is
                // never hidden behind the bound.
                assert!(
                    wheel.earliest <= reference.next_deadline().unwrap_or(DISARMED),
                    "seed {seed} step {step}: bound"
                );
                assert!(
                    wheel.fire_at[wheel.span..].iter().all(|&f| f == DISARMED),
                    "seed {seed} step {step}: armed past the span"
                );
                assert_eq!(
                    wheel.depth(),
                    reference.armed.len(),
                    "seed {seed} step {step}: depth"
                );
                for s in 0..capacity {
                    assert_eq!(
                        wheel.armed_at(s),
                        reference.armed_at[s],
                        "seed {seed} step {step}: armed_at({s})"
                    );
                }
            }
        }
    }
}
