//! The sticky round-robin arbiter behind every many-to-one channel of
//! the interconnect: the mux's AW and AR, the demux's B and R.
//!
//! Sources are indices `0..n`. Each cycle [`Arbiter::pick`] names the
//! source whose wires go through. A pick that has not fired stays the
//! grant while its source keeps `valid` high, since AXI forbids changing
//! a presented beat. That unfired grant *is* the lock; there is no
//! second copy of it. Otherwise the pick is the first valid source at or
//! after the round-robin pointer, or, with static priorities, the
//! highest-priority valid source with round-robin order breaking ties.
//! [`Arbiter::commit`] moves the pointer past a grant that fired.

/// One sticky round-robin arbitration point. See the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct Arbiter {
    /// This cycle's pick; kept across the commit while unfired.
    grant: Option<usize>,
    /// The source round-robin order starts from.
    rr: usize,
}

impl Arbiter {
    /// Picks this cycle's source among `n` (higher `priorities` win;
    /// `None` is plain round-robin; a missing entry is priority 0).
    #[inline]
    pub(crate) fn pick(
        &mut self,
        n: usize,
        priorities: Option<&[u8]>,
        valid: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if self.grant.is_some_and(&valid) {
            return self.grant;
        }
        // Round-robin order from the pointer, wrapping with a compare
        // instead of a divide.
        let mut pick = None;
        let mut i = self.rr;
        for _ in 0..n {
            if valid(i) {
                let Some(prio) = priorities else {
                    pick = Some(i);
                    break;
                };
                // Strict `<` keeps the first source in round-robin order
                // among equal priorities.
                let level = |i: usize| prio.get(i).copied().unwrap_or(0);
                if pick.is_none_or(|best| level(best) < level(i)) {
                    pick = Some(i);
                }
            }
            i = if i + 1 < n { i + 1 } else { 0 };
        }
        self.grant = pick;
        self.grant
    }

    /// This cycle's pick.
    #[inline]
    pub(crate) fn grant(&self) -> Option<usize> {
        self.grant
    }

    /// Clock commit: when the grant `fired`, releases it and points the
    /// round robin past it, returning the source that fired. An unfired
    /// grant stays locked.
    #[inline]
    pub(crate) fn commit(&mut self, fired: bool, n: usize) -> Option<usize> {
        let granted = self.grant.filter(|_| fired)?;
        self.grant = None;
        self.rr = if granted + 1 < n { granted + 1 } else { 0 };
        Some(granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The mux's arbiter as it was written before [`Arbiter`]: a lock
    /// beside a per-cycle pick, copied into each other at every commit.
    #[derive(Default)]
    struct MuxReference {
        lock: Option<usize>,
        rr: usize,
        cur: Option<usize>,
    }

    impl MuxReference {
        fn pick(&mut self, n: usize, priorities: Option<&[u8]>, valid: &[bool]) -> Option<usize> {
            let valid = |i: usize| valid[i];
            self.cur = 'pick: {
                if let Some(locked) = self.lock {
                    if valid(locked) {
                        break 'pick Some(locked);
                    }
                    self.lock = None;
                }
                let Some(prio) = priorities else {
                    break 'pick (0..n).map(|k| (self.rr + k) % n).find(|&i| valid(i));
                };
                let mut best: Option<usize> = None;
                for k in 0..n {
                    let i = (self.rr + k) % n;
                    if !valid(i) {
                        continue;
                    }
                    let p = prio.get(i).copied().unwrap_or(0);
                    match best {
                        Some(b) if prio.get(b).copied().unwrap_or(0) >= p => {}
                        _ => best = Some(i),
                    }
                }
                best
            };
            self.cur
        }

        fn commit(&mut self, fired: bool, n: usize) {
            if fired {
                let granted = self.cur.take().expect("a fire implies a pick");
                self.lock = None;
                self.rr = (granted + 1) % n;
            } else if self.cur.is_some() {
                self.lock = self.cur;
            }
            self.cur = None;
        }
    }

    /// A demux response source before [`Arbiter`]: a subordinate or the
    /// DECERR responder.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Route {
        Sub(usize),
        Err,
    }

    /// The demux's arbiter as it was written before [`Arbiter`]: valid
    /// candidates are the subordinates by index, then the DECERR
    /// responder, which sorts after every subordinate.
    #[derive(Default)]
    struct DemuxReference {
        lock: Option<Route>,
        rr: usize,
        cur: Option<Route>,
    }

    impl DemuxReference {
        fn pick(&mut self, subs: &[bool], err: bool) -> Option<Route> {
            let candidates = subs
                .iter()
                .enumerate()
                .filter(|(_, &v)| v)
                .map(|(i, _)| Route::Sub(i))
                .chain(err.then_some(Route::Err));
            let key = |r: Route| match r {
                Route::Sub(i) => i,
                Route::Err => usize::MAX,
            };
            self.cur = 'pick: {
                let mut first = None;
                let mut at_or_after_rr = None;
                for candidate in candidates {
                    if self.lock == Some(candidate) {
                        break 'pick Some(candidate);
                    }
                    first = first.or(Some(candidate));
                    if at_or_after_rr.is_none() && key(candidate) >= self.rr {
                        at_or_after_rr = Some(candidate);
                    }
                }
                self.lock = None;
                at_or_after_rr.or(first)
            };
            self.cur
        }

        fn commit(&mut self, fired: bool) {
            if fired {
                self.lock = None;
                self.rr = match self.cur {
                    Some(Route::Sub(i)) => i + 1,
                    _ => 0,
                };
            } else if self.cur.is_some() {
                self.lock = self.cur;
            }
            self.cur = None;
        }
    }

    /// Per cycle: a valid mask over up to 9 sources (low bits used) and
    /// whether the trunk would take a picked beat.
    fn cycles() -> impl Strategy<Value = Vec<(u16, bool)>> {
        prop::collection::vec((any::<u16>(), any::<bool>()), 1..200)
    }

    fn bits(mask: u16, n: usize) -> Vec<bool> {
        (0..n).map(|i| mask & (1 << i) != 0).collect()
    }

    proptest! {
        #[test]
        fn matches_the_mux_arbiter(
            n in 1usize..=8,
            prio in prop::collection::vec(0u8..3, 0..8),
            with_priorities in any::<bool>(),
            cycles in cycles(),
        ) {
            let priorities = with_priorities.then_some(prio.as_slice());
            let (mut arb, mut reference) = (Arbiter::default(), MuxReference::default());
            for (cycle, &(mask, ready)) in cycles.iter().enumerate() {
                let valid = bits(mask, n);
                let pick = arb.pick(n, priorities, |i| valid[i]);
                prop_assert_eq!(pick, reference.pick(n, priorities, &valid), "cycle {}", cycle);
                let fired = pick.is_some() && ready;
                prop_assert_eq!(arb.commit(fired, n), pick.filter(|_| fired));
                reference.commit(fired, n);
            }
        }

        #[test]
        fn matches_the_demux_arbiter_with_decerr_last(
            subs in 1usize..=8,
            cycles in cycles(),
        ) {
            let n = subs + 1;
            let (mut arb, mut reference) = (Arbiter::default(), DemuxReference::default());
            for (cycle, &(mask, ready)) in cycles.iter().enumerate() {
                let valid = bits(mask, n);
                let pick = arb.pick(n, None, |i| valid[i]);
                let expected = reference.pick(&valid[..subs], valid[subs]);
                let as_route = pick.map(|i| if i == subs { Route::Err } else { Route::Sub(i) });
                prop_assert_eq!(as_route, expected, "cycle {}", cycle);
                let fired = pick.is_some() && ready;
                arb.commit(fired, n);
                reference.commit(fired);
            }
        }
    }

    #[test]
    fn an_unfired_grant_holds_over_a_higher_priority_newcomer() {
        let mut arb = Arbiter::default();
        let prio = [0, 7];
        assert_eq!(arb.pick(2, Some(&prio), |i| i == 0), Some(0));
        assert_eq!(arb.commit(false, 2), None);
        assert_eq!(arb.pick(2, Some(&prio), |_| true), Some(0), "locked");
        assert_eq!(arb.commit(true, 2), Some(0));
        assert_eq!(arb.pick(2, Some(&prio), |_| true), Some(1));
    }
}
