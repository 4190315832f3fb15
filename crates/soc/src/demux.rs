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

use axi4::beat::AddrBeat;
use axi4::hash::FoldHashMap;
use axi4::prelude::*;

use crate::arbiter::Arbiter;

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

/// Internal DECERR default subordinate.
#[derive(Debug, Default)]
struct ErrSub {
    b_owed: VecDeque<AxiId>,
    r_owed: VecDeque<(AxiId, u16)>,
}

/// One address channel's routing: the outstanding transactions per ID
/// with their target, and this cycle's decision. A route is a
/// subordinate index, or the region count for the DECERR responder.
#[derive(Debug, Default)]
struct AddrLane {
    outstanding: FoldHashMap<AxiId, (usize, u32)>,
    /// This cycle's forwarded address: target, ID and burst beats.
    /// `None` while nothing is offered or the offer stalls on its ID.
    cur: Option<(usize, AxiId, u16)>,
}

impl AddrLane {
    /// Pass 1: decodes the offered address and returns its target,
    /// unless its ID still has transactions outstanding towards another
    /// target (the same-ID ordering stall).
    fn decide<B: AddrBeat>(&mut self, beat: Option<&B>, regions: &[AddrRegion]) -> Option<usize> {
        self.cur = beat
            .map(|b| {
                let target = regions
                    .iter()
                    .position(|r| r.contains(b.addr()))
                    .unwrap_or(regions.len());
                (target, b.id(), b.burst_len().beats())
            })
            .filter(|(target, id, _)| {
                !self
                    .outstanding
                    .get(id)
                    .is_some_and(|(route, count)| route != target && *count > 0)
            });
        self.target()
    }

    /// This cycle's target.
    fn target(&self) -> Option<usize> {
        self.cur.map(|(target, _, _)| target)
    }

    /// Commit of a fired address: counts it outstanding towards its
    /// target and returns the decision.
    fn accept(&mut self) -> (usize, AxiId, u16) {
        let cur = self.cur.take().expect("a fired address implies a decision");
        let (target, id, _) = cur;
        let entry = self.outstanding.entry(id).or_insert((target, 0));
        *entry = (target, entry.1 + 1);
        cur
    }

    /// Commit of a response that closes a transaction of `id`.
    fn retire(&mut self, id: AxiId) {
        if let Some(entry) = self.outstanding.get_mut(&id) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.outstanding.remove(&id);
            }
        }
    }
}

/// The demultiplexer. See the [module docs](self).
#[derive(Debug)]
pub struct Demux {
    regions: Vec<AddrRegion>,
    /// W beats follow AW order: (route, id) per accepted write.
    w_route: VecDeque<(usize, AxiId)>,
    aw: AddrLane,
    ar: AddrLane,
    err: ErrSub,
    /// Response arbitration over the subordinates by index, then the
    /// DECERR responder.
    b: Arbiter,
    r: Arbiter,
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
            aw: AddrLane::default(),
            ar: AddrLane::default(),
            err: ErrSub::default(),
            b: Arbiter::default(),
            r: Arbiter::default(),
            decode_errors: 0,
        }
    }

    /// DECERR transactions answered so far.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// The route of the DECERR responder.
    fn err_route(&self) -> usize {
        self.regions.len()
    }

    /// The subordinate a route names, if it is not the DECERR responder.
    fn sub(&self, route: Option<usize>) -> Option<usize> {
        route.filter(|&i| i < self.err_route())
    }

    /// The `ready` a route gives the trunk: its subordinate's, always
    /// for the DECERR responder, never without a route.
    fn ready(&self, route: Option<usize>, sub_ready: impl Fn(usize) -> bool) -> bool {
        route.is_some_and(|i| i == self.err_route() || sub_ready(i))
    }

    /// Pass 1: forward the trunk's request wires to the subordinates.
    pub fn forward_requests(&mut self, trunk: &AxiPort, subs: &mut [AxiPort]) {
        let aw = self.aw.decide(trunk.aw.beat(), &self.regions);
        if let Some(i) = self.sub(aw) {
            subs[i].aw.forward_driver_from(&trunk.aw);
        }
        // W beats follow the recorded AW order.
        if let Some(i) = self.sub(self.w_route.front().map(|&(route, _)| route)) {
            subs[i].w.forward_driver_from(&trunk.w);
        }
        let ar = self.ar.decide(trunk.ar.beat(), &self.regions);
        if let Some(i) = self.sub(ar) {
            subs[i].ar.forward_driver_from(&trunk.ar);
        }
    }

    /// Pass 2: select and forward subordinate responses onto the trunk,
    /// and propagate request-channel `ready`s back.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is shorter than the configured subordinate
    /// count, or if the route tables are internally inconsistent.
    pub fn forward_responses(&mut self, subs: &[AxiPort], trunk: &mut AxiPort) {
        trunk
            .aw
            .set_ready(self.ready(self.aw.target(), |i| subs[i].aw.ready()));
        let w_route = self.w_route.front().map(|&(route, _)| route);
        trunk
            .w
            .set_ready(self.ready(w_route, |i| subs[i].w.ready()));
        trunk
            .ar
            .set_ready(self.ready(self.ar.target(), |i| subs[i].ar.ready()));

        let err = self.err_route();
        let owed = !self.err.b_owed.is_empty();
        match self.b.pick(err + 1, None, |i| {
            if i == err {
                owed
            } else {
                subs[i].b.valid()
            }
        }) {
            Some(i) if i == err => {
                let id = *self.err.b_owed.front().expect("candidate implies owed");
                trunk.b.drive(BBeat::new(id, Resp::DecErr));
            }
            Some(i) => trunk.b.forward_driver_from(&subs[i].b),
            None => {}
        }
        let owed = !self.err.r_owed.is_empty();
        match self.r.pick(err + 1, None, |i| {
            if i == err {
                owed
            } else {
                subs[i].r.valid()
            }
        }) {
            Some(i) if i == err => {
                let (id, left) = *self.err.r_owed.front().expect("candidate implies owed");
                trunk.r.drive(RBeat::new(id, 0, Resp::DecErr, left == 1));
            }
            Some(i) => trunk.r.forward_driver_from(&subs[i].r),
            None => {}
        }
    }

    /// Pass 3: once the trunk's B/R `ready` wires are settled (they come
    /// from the manager side), propagate them to the selected
    /// subordinate.
    pub fn backprop_response_ready(&mut self, trunk: &AxiPort, subs: &mut [AxiPort]) {
        if let Some(i) = self.sub(self.b.grant()) {
            subs[i].b.set_ready(trunk.b.ready());
        }
        if let Some(i) = self.sub(self.r.grant()) {
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
        let err = self.err_route();
        if trunk.aw.fires() {
            let (target, id, _) = self.aw.accept();
            self.w_route.push_back((target, id));
            self.decode_errors += u64::from(target == err);
        }
        if trunk.w.fired_beat().is_some_and(|w| w.last) {
            let (route, id) = self.w_route.pop_front().expect("W fired implies route");
            if route == err {
                self.err.b_owed.push_back(id);
            }
        }
        let b_source = self.b.commit(trunk.b.fires(), err + 1);
        if let Some(b) = trunk.b.fired_beat() {
            self.aw.retire(b.id);
            if b_source == Some(err) {
                self.err.b_owed.pop_front();
            }
        }
        if trunk.ar.fires() {
            let (target, id, beats) = self.ar.accept();
            if target == err {
                self.decode_errors += 1;
                self.err.r_owed.push_back((id, beats));
            }
        }
        let r_source = self.r.commit(trunk.r.fires(), err + 1);
        if let Some(r) = trunk.r.fired_beat() {
            if r_source == Some(err) {
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
                self.ar.retire(r.id);
            }
        }
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
