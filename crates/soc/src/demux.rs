//! A 1-to-N address-decoding AXI demultiplexer.
//!
//! Routes AW/AR by address region, keeps W beats attached to their AW's
//! target, arbitrates B/R responses back onto the single manager-side
//! (trunk) port, and — like real interconnect demuxes — **stalls** an
//! address request whose ID still has transactions outstanding towards a
//! *different* target, which preserves AXI's same-ID ordering guarantee
//! across subordinates.
//!
//! Addresses matching no region are answered by an internal default
//! subordinate with `DECERR`, so software bugs surface as error
//! responses instead of hangs.
//!
//! # Per-cycle protocol
//!
//! 1. [`Demux::forward_requests`] after the trunk's request wires settle,
//! 2. [`Demux::forward_responses`] after every subordinate has driven,
//! 3. [`Demux::backprop_response_ready`] after the trunk's B/R `ready`
//!    wires settle (they come from the manager side),
//! 4. [`Demux::commit`] at the clock edge.

use std::collections::VecDeque;

use axi4::hash::FoldHashMap;
use axi4::prelude::*;

/// One decoded address window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRegion {
    /// First byte address of the window.
    pub base: u64,
    /// Window size in bytes.
    pub size: u64,
}

impl AddrRegion {
    /// True if `addr` falls inside the window.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base && addr.0 - self.base < self.size
    }
}

/// Routing target: a subordinate port index or the DECERR responder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Sub(usize),
    Err,
}

/// Internal DECERR default subordinate.
#[derive(Debug, Default)]
struct ErrSub {
    b_owed: VecDeque<AxiId>,
    r_owed: VecDeque<(AxiId, u16)>,
}

/// The demultiplexer. See the [module docs](self).
#[derive(Debug)]
pub struct Demux {
    regions: Vec<AddrRegion>,
    // W beats follow AW order: (target, id) per accepted write.
    w_route: VecDeque<(Route, AxiId)>,
    write_outstanding: FoldHashMap<AxiId, (Route, u32)>,
    read_outstanding: FoldHashMap<AxiId, (Route, u32)>,
    err: ErrSub,
    // Response arbitration (sticky until fire, then round-robin).
    b_lock: Option<Route>,
    b_rr: usize,
    r_lock: Option<Route>,
    r_rr: usize,
    // Per-cycle decisions.
    cur_aw: Option<(Route, AxiId, u16)>,
    aw_stalled: bool,
    cur_ar: Option<(Route, AxiId, u16)>,
    ar_stalled: bool,
    cur_b_sel: Option<Route>,
    cur_r_sel: Option<Route>,
    // Stats.
    decode_errors: u64,
}

impl Demux {
    /// A demux decoding into `regions` (index = subordinate port index).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or any two regions overlap.
    #[must_use]
    pub fn new(regions: Vec<AddrRegion>) -> Self {
        assert!(!regions.is_empty(), "demux needs at least one region");
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                let disjoint = a.base + a.size <= b.base || b.base + b.size <= a.base;
                assert!(disjoint, "address regions overlap: {a:?} vs {b:?}");
            }
        }
        Demux {
            regions,
            w_route: VecDeque::new(),
            write_outstanding: FoldHashMap::default(),
            read_outstanding: FoldHashMap::default(),
            err: ErrSub::default(),
            b_lock: None,
            b_rr: 0,
            r_lock: None,
            r_rr: 0,
            cur_aw: None,
            aw_stalled: false,
            cur_ar: None,
            ar_stalled: false,
            cur_b_sel: None,
            cur_r_sel: None,
            decode_errors: 0,
        }
    }

    /// DECERR transactions answered so far.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn decode(&self, addr: Addr) -> Route {
        self.regions
            .iter()
            .position(|r| r.contains(addr))
            .map_or(Route::Err, Route::Sub)
    }

    /// Pass 1: forward the trunk's request wires to the subordinates.
    pub fn forward_requests(&mut self, trunk: &AxiPort, subs: &mut [AxiPort]) {
        // AW routing with same-ID ordering stall.
        self.cur_aw = None;
        self.aw_stalled = false;
        if let Some(aw) = trunk.aw.beat() {
            let target = self.decode(aw.addr);
            let conflict = self
                .write_outstanding
                .get(&aw.id)
                .is_some_and(|(route, count)| *route != target && *count > 0);
            if conflict {
                self.aw_stalled = true;
            } else {
                if let Route::Sub(i) = target {
                    subs[i].aw.forward_driver_from(&trunk.aw);
                }
                self.cur_aw = Some((target, aw.id, aw.len.beats()));
            }
        }
        // W beats follow the recorded AW order.
        if let Some((Route::Sub(i), _)) = self.w_route.front() {
            subs[*i].w.forward_driver_from(&trunk.w);
        }
        // AR routing with same-ID ordering stall.
        self.cur_ar = None;
        self.ar_stalled = false;
        if let Some(ar) = trunk.ar.beat() {
            let target = self.decode(ar.addr);
            let conflict = self
                .read_outstanding
                .get(&ar.id)
                .is_some_and(|(route, count)| *route != target && *count > 0);
            if conflict {
                self.ar_stalled = true;
            } else {
                if let Route::Sub(i) = target {
                    subs[i].ar.forward_driver_from(&trunk.ar);
                }
                self.cur_ar = Some((target, ar.id, ar.len.beats()));
            }
        }
    }

    /// Picks this cycle's response source from `candidates`, the valid
    /// sources in round-robin order (subordinates by index, then the
    /// DECERR responder): an unfired pick stays locked while still
    /// valid, otherwise the first candidate at or after `rr`, wrapping
    /// to the first.
    fn arbitrate(
        lock: &mut Option<Route>,
        rr: usize,
        candidates: impl Iterator<Item = Route>,
    ) -> Option<Route> {
        let key = |r: Route| match r {
            Route::Sub(i) => i,
            Route::Err => usize::MAX,
        };
        let mut first = None;
        let mut at_or_after_rr = None;
        for candidate in candidates {
            if *lock == Some(candidate) {
                return Some(candidate);
            }
            first = first.or(Some(candidate));
            if at_or_after_rr.is_none() && key(candidate) >= rr {
                at_or_after_rr = Some(candidate);
            }
        }
        *lock = None;
        at_or_after_rr.or(first)
    }

    /// Pass 2: select and forward subordinate responses onto the trunk,
    /// and propagate request-channel `ready`s back.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is shorter than the configured subordinate
    /// count, or if the route tables are internally inconsistent.
    pub fn forward_responses(&mut self, subs: &[AxiPort], trunk: &mut AxiPort) {
        // Request readiness back-propagation.
        let aw_ready = match (&self.cur_aw, self.aw_stalled) {
            (_, true) | (None, _) => false,
            (Some((Route::Sub(i), _, _)), _) => subs[*i].aw.ready(),
            (Some((Route::Err, _, _)), _) => true,
        };
        trunk.aw.set_ready(aw_ready);
        let w_ready = match self.w_route.front() {
            Some((Route::Sub(i), _)) => subs[*i].w.ready(),
            Some((Route::Err, _)) => true,
            None => false,
        };
        trunk.w.set_ready(w_ready);
        let ar_ready = match (&self.cur_ar, self.ar_stalled) {
            (_, true) | (None, _) => false,
            (Some((Route::Sub(i), _, _)), _) => subs[*i].ar.ready(),
            (Some((Route::Err, _, _)), _) => true,
        };
        trunk.ar.set_ready(ar_ready);

        // B arbitration.
        let b_candidates = subs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.b.valid())
            .map(|(i, _)| Route::Sub(i))
            .chain((!self.err.b_owed.is_empty()).then_some(Route::Err));
        self.cur_b_sel = Self::arbitrate(&mut self.b_lock, self.b_rr, b_candidates);
        match self.cur_b_sel {
            Some(Route::Sub(i)) => trunk.b.forward_driver_from(&subs[i].b),
            Some(Route::Err) => {
                let id = *self.err.b_owed.front().expect("candidate implies owed");
                trunk.b.drive(BBeat::new(id, Resp::DecErr));
            }
            None => {}
        }

        // R arbitration.
        let r_candidates = subs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.r.valid())
            .map(|(i, _)| Route::Sub(i))
            .chain((!self.err.r_owed.is_empty()).then_some(Route::Err));
        self.cur_r_sel = Self::arbitrate(&mut self.r_lock, self.r_rr, r_candidates);
        match self.cur_r_sel {
            Some(Route::Sub(i)) => trunk.r.forward_driver_from(&subs[i].r),
            Some(Route::Err) => {
                let (id, left) = *self.err.r_owed.front().expect("candidate implies owed");
                trunk.r.drive(RBeat::new(id, 0, Resp::DecErr, left == 1));
            }
            None => {}
        }
    }

    /// Pass 3: once the trunk's B/R `ready` wires are settled (they come
    /// from the manager side), propagate them to the selected
    /// subordinate.
    pub fn backprop_response_ready(&mut self, trunk: &AxiPort, subs: &mut [AxiPort]) {
        if let Some(Route::Sub(i)) = self.cur_b_sel {
            subs[i].b.set_ready(trunk.b.ready());
        }
        if let Some(Route::Sub(i)) = self.cur_r_sel {
            subs[i].r.set_ready(trunk.r.ready());
        }
    }

    /// Pass 4: clock commit — updates route tables from the trunk's
    /// fired handshakes.
    ///
    /// # Panics
    ///
    /// Panics only if a handshake fires without a recorded routing decision — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn commit(&mut self, trunk: &AxiPort) {
        if trunk.aw.fires() {
            let (target, id, _beats) = self.cur_aw.take().expect("AW fired implies decision");
            self.w_route.push_back((target, id));
            let entry = self.write_outstanding.entry(id).or_insert((target, 0));
            entry.0 = target;
            entry.1 += 1;
            if target == Route::Err {
                self.decode_errors += 1;
            }
        }
        if let Some(w) = trunk.w.fired_beat() {
            if w.last {
                let (route, id) = self.w_route.pop_front().expect("W fired implies route");
                if route == Route::Err {
                    self.err.b_owed.push_back(id);
                }
            }
        }
        if let Some(b) = trunk.b.fired_beat() {
            if let Some(entry) = self.write_outstanding.get_mut(&b.id) {
                entry.1 -= 1;
                if entry.1 == 0 {
                    self.write_outstanding.remove(&b.id);
                }
            }
            if self.cur_b_sel == Some(Route::Err) {
                self.err.b_owed.pop_front();
            }
            self.b_lock = None;
            self.b_rr = match self.cur_b_sel {
                Some(Route::Sub(i)) => i + 1,
                _ => 0,
            };
        } else if self.cur_b_sel.is_some() {
            self.b_lock = self.cur_b_sel;
        }
        if trunk.ar.fires() {
            let (target, id, beats) = self.cur_ar.take().expect("AR fired implies decision");
            let entry = self.read_outstanding.entry(id).or_insert((target, 0));
            entry.0 = target;
            entry.1 += 1;
            if target == Route::Err {
                self.decode_errors += 1;
                self.err.r_owed.push_back((id, beats));
            }
        }
        if let Some(r) = trunk.r.fired_beat() {
            if self.cur_r_sel == Some(Route::Err) {
                let front = self
                    .err
                    .r_owed
                    .front_mut()
                    .expect("Err R fired implies owed");
                front.1 -= 1;
                if front.1 == 0 {
                    self.err.r_owed.pop_front();
                }
            }
            if r.last {
                if let Some(entry) = self.read_outstanding.get_mut(&r.id) {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        self.read_outstanding.remove(&r.id);
                    }
                }
            }
            self.r_lock = None;
            self.r_rr = match self.cur_r_sel {
                Some(Route::Sub(i)) => i + 1,
                _ => 0,
            };
        } else if self.cur_r_sel.is_some() {
            self.r_lock = self.cur_r_sel;
        }
        self.cur_b_sel = None;
        self.cur_r_sel = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions() -> Vec<AddrRegion> {
        vec![
            AddrRegion {
                base: 0x8000_0000,
                size: 0x1000_0000,
            }, // memory
            AddrRegion {
                base: 0x2000_0000,
                size: 0x1000,
            }, // ethernet
        ]
    }

    fn aw(id: u16, addr: u64, beats: u16) -> AwBeat {
        AwBeat::new(
            AxiId(id),
            Addr(addr),
            BurstLen::from_beats(beats).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    fn ar(id: u16, addr: u64, beats: u16) -> ArBeat {
        ArBeat::new(
            AxiId(id),
            Addr(addr),
            BurstLen::from_beats(beats).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    #[test]
    fn region_containment() {
        let r = AddrRegion {
            base: 0x1000,
            size: 0x100,
        };
        assert!(r.contains(Addr(0x1000)));
        assert!(r.contains(Addr(0x10FF)));
        assert!(!r.contains(Addr(0x1100)));
        assert!(!r.contains(Addr(0xFFF)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let _ = Demux::new(vec![
            AddrRegion {
                base: 0,
                size: 0x200,
            },
            AddrRegion {
                base: 0x100,
                size: 0x200,
            },
        ]);
    }

    #[test]
    fn aw_routes_by_address() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(1, 0x2000_0010, 1));
        demux.forward_requests(&trunk, &mut subs);
        assert!(!subs[0].aw.valid(), "memory must not see the ethernet AW");
        assert!(subs[1].aw.valid());
        // Subordinate ready propagates back.
        subs[1].aw.set_ready(true);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.aw.fires());
        demux.commit(&trunk);
    }

    #[test]
    fn w_follows_aw_target() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        // Cycle 0: AW to ethernet fires.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(1, 0x2000_0000, 2));
        demux.forward_requests(&trunk, &mut subs);
        subs[1].aw.set_ready(true);
        demux.forward_responses(&subs, &mut trunk);
        demux.commit(&trunk);
        // Cycle 1: W beat goes to ethernet only.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.w.drive(WBeat::new(7, false));
        demux.forward_requests(&trunk, &mut subs);
        assert!(subs[1].w.valid());
        assert!(!subs[0].w.valid());
        subs[1].w.set_ready(true);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.w.fires());
        demux.commit(&trunk);
    }

    #[test]
    fn same_id_different_target_stalls() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        // AW id 1 to ethernet accepted (no B yet).
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(1, 0x2000_0000, 1));
        demux.forward_requests(&trunk, &mut subs);
        subs[1].aw.set_ready(true);
        demux.forward_responses(&subs, &mut trunk);
        demux.commit(&trunk);
        // AW id 1 to memory must stall even though memory is ready.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(1, 0x8000_0000, 1));
        demux.forward_requests(&trunk, &mut subs);
        assert!(!subs[0].aw.valid(), "stalled AW must not be forwarded");
        subs[0].aw.set_ready(true);
        demux.forward_responses(&subs, &mut trunk);
        assert!(!trunk.aw.ready(), "trunk sees backpressure");
        demux.commit(&trunk);
        // Same ID back to ethernet is fine.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(1, 0x2000_0000, 1));
        demux.forward_requests(&trunk, &mut subs);
        assert!(subs[1].aw.valid());
    }

    #[test]
    fn unmapped_address_gets_decerr() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        // AW to nowhere, single beat.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(3, 0x0000_1000, 1));
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.aw.ready(), "error subordinate accepts");
        demux.commit(&trunk);
        // W beat consumed by the error subordinate.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.w.drive(WBeat::new(0, true));
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.w.fires());
        demux.commit(&trunk);
        // DECERR B response arrives.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.b.set_ready(true);
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        let b = trunk.b.beat().expect("DECERR response driven");
        assert_eq!(b.resp, Resp::DecErr);
        assert_eq!(b.id, AxiId(3));
        demux.commit(&trunk);
        assert_eq!(demux.decode_errors(), 1);
    }

    #[test]
    fn unmapped_read_gets_decerr_beats() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.ar.drive(ar(2, 0x0, 2));
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.ar.fires() || trunk.ar.ready());
        demux.commit(&trunk);
        let mut beats = Vec::new();
        for _ in 0..4 {
            trunk.begin_cycle();
            subs.iter_mut().for_each(AxiPort::begin_cycle);
            trunk.r.set_ready(true);
            demux.forward_requests(&trunk, &mut subs);
            demux.forward_responses(&subs, &mut trunk);
            if let Some(r) = trunk.r.fired_beat() {
                beats.push((r.resp, r.last));
            }
            demux.commit(&trunk);
        }
        assert_eq!(beats, vec![(Resp::DecErr, false), (Resp::DecErr, true)]);
    }

    #[test]
    fn response_arbitration_is_sticky_until_fire() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        // Two reads outstanding, one per subordinate (different IDs).
        for (id, addr) in [(1u16, 0x8000_0000u64), (2, 0x2000_0000)] {
            trunk.begin_cycle();
            subs.iter_mut().for_each(AxiPort::begin_cycle);
            trunk.ar.drive(ar(id, addr, 1));
            demux.forward_requests(&trunk, &mut subs);
            subs[0].ar.set_ready(true);
            subs[1].ar.set_ready(true);
            demux.forward_responses(&subs, &mut trunk);
            assert!(trunk.ar.fires());
            demux.commit(&trunk);
        }
        // Both subordinates drive R; trunk not ready: selection must hold.
        let mut first_sel = None;
        for round in 0..3 {
            trunk.begin_cycle();
            subs.iter_mut().for_each(AxiPort::begin_cycle);
            subs[0].r.drive(RBeat::new(AxiId(1), 0xA, Resp::Okay, true));
            subs[1].r.drive(RBeat::new(AxiId(2), 0xB, Resp::Okay, true));
            demux.forward_requests(&trunk, &mut subs);
            demux.forward_responses(&subs, &mut trunk);
            let sel = trunk.r.beat().expect("one selected").id;
            match first_sel {
                None => first_sel = Some(sel),
                Some(prev) => assert_eq!(sel, prev, "round {round}: selection must stick"),
            }
            demux.backprop_response_ready(&trunk, &mut subs);
            demux.commit(&trunk);
        }
        // Now the trunk becomes ready: the stuck beat fires, then the
        // other one gets its turn.
        let mut served = Vec::new();
        for _ in 0..3 {
            trunk.begin_cycle();
            subs.iter_mut().for_each(AxiPort::begin_cycle);
            subs[0].r.drive(RBeat::new(AxiId(1), 0xA, Resp::Okay, true));
            subs[1].r.drive(RBeat::new(AxiId(2), 0xB, Resp::Okay, true));
            trunk.r.set_ready(true);
            demux.forward_requests(&trunk, &mut subs);
            demux.forward_responses(&subs, &mut trunk);
            demux.backprop_response_ready(&trunk, &mut subs);
            if let Some(r) = trunk.r.fired_beat() {
                served.push(r.id.0);
            }
            demux.commit(&trunk);
        }
        assert!(served.len() >= 2);
        assert_ne!(served[0], served[1], "round robin serves both");
    }

    #[test]
    fn backprop_ready_reaches_selected_sub_only() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        subs[0].b.drive(BBeat::new(AxiId(1), Resp::Okay));
        subs[1].b.drive(BBeat::new(AxiId(2), Resp::Okay));
        trunk.b.set_ready(true);
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        demux.backprop_response_ready(&trunk, &mut subs);
        let readies = [subs[0].b.ready(), subs[1].b.ready()];
        assert_eq!(
            readies.iter().filter(|r| **r).count(),
            1,
            "exactly one granted"
        );
    }

    /// One demux cycle with `drive` setting the subordinates' response
    /// wires and the trunk's B/R `ready` at `ready`; returns the B and R
    /// beats that fired on the trunk.
    fn response_cycle(
        demux: &mut Demux,
        trunk: &mut AxiPort,
        subs: &mut [AxiPort],
        ready: bool,
        drive: impl FnOnce(&mut [AxiPort]),
    ) -> (Option<BBeat>, Option<RBeat>) {
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        drive(subs);
        trunk.b.set_ready(ready);
        trunk.r.set_ready(ready);
        demux.forward_requests(trunk, subs);
        demux.forward_responses(subs, trunk);
        demux.backprop_response_ready(trunk, subs);
        let fired = (trunk.b.fired_beat().copied(), trunk.r.fired_beat().copied());
        demux.commit(trunk);
        fired
    }

    #[test]
    fn round_robin_alternates_between_two_valid_subordinates() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        let served: Vec<u16> = (0..4)
            .map(|_| {
                let (b, _) = response_cycle(&mut demux, &mut trunk, &mut subs, true, |s| {
                    s[0].b.drive(BBeat::new(AxiId(1), Resp::Okay));
                    s[1].b.drive(BBeat::new(AxiId(2), Resp::Okay));
                });
                b.expect("a B fires every cycle").id.0
            })
            .collect();
        assert_eq!(served, vec![1, 2, 1, 2]);
    }

    #[test]
    fn locked_pick_holds_over_a_lower_index_newcomer() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        let sub1_only = |s: &mut [AxiPort]| {
            s[1].r.drive(RBeat::new(AxiId(2), 0xB, Resp::Okay, true));
        };
        let both = |s: &mut [AxiPort]| {
            s[0].r.drive(RBeat::new(AxiId(1), 0xA, Resp::Okay, true));
            s[1].r.drive(RBeat::new(AxiId(2), 0xB, Resp::Okay, true));
        };
        // Only subordinate 1 is valid: it is picked and locked unfired.
        response_cycle(&mut demux, &mut trunk, &mut subs, false, sub1_only);
        assert_eq!(trunk.r.beat().map(|r| r.id), Some(AxiId(2)));
        // Subordinate 0 becomes valid; round-robin alone would pick it,
        // but the unfired pick stays on subordinate 1.
        response_cycle(&mut demux, &mut trunk, &mut subs, false, both);
        assert_eq!(trunk.r.beat().map(|r| r.id), Some(AxiId(2)));
        let (_, r) = response_cycle(&mut demux, &mut trunk, &mut subs, true, both);
        assert_eq!(r.map(|r| r.id), Some(AxiId(2)), "locked beat fires");
        let (_, r) = response_cycle(&mut demux, &mut trunk, &mut subs, true, both);
        assert_eq!(r.map(|r| r.id), Some(AxiId(1)), "then the other turn");
    }

    #[test]
    fn decerr_responder_takes_its_turn_last() {
        let mut demux = Demux::new(regions());
        let mut trunk = AxiPort::new();
        let mut subs = vec![AxiPort::new(), AxiPort::new()];
        // A single-beat write to an unmapped address: the DECERR
        // responder now owes a B.
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.aw.drive(aw(3, 0x0000_1000, 1));
        trunk.w.drive(WBeat::new(0, true));
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.aw.fires());
        demux.commit(&trunk);
        trunk.begin_cycle();
        subs.iter_mut().for_each(AxiPort::begin_cycle);
        trunk.w.drive(WBeat::new(0, true));
        demux.forward_requests(&trunk, &mut subs);
        demux.forward_responses(&subs, &mut trunk);
        assert!(trunk.w.fires());
        demux.commit(&trunk);
        // Both subordinates and the responder are valid every cycle.
        let served: Vec<(u16, Resp)> = (0..4)
            .map(|_| {
                let (b, _) = response_cycle(&mut demux, &mut trunk, &mut subs, true, |s| {
                    s[0].b.drive(BBeat::new(AxiId(1), Resp::Okay));
                    s[1].b.drive(BBeat::new(AxiId(2), Resp::Okay));
                });
                let b = b.expect("a B fires every cycle");
                (b.id.0, b.resp)
            })
            .collect();
        assert_eq!(
            served,
            vec![
                (1, Resp::Okay),
                (2, Resp::Okay),
                (3, Resp::DecErr),
                (1, Resp::Okay)
            ]
        );
    }
}
