//! An N-to-1 AXI multiplexer with ID-width extension.
//!
//! Merges several managers onto one trunk port. Each manager's
//! transaction IDs are extended with the manager index
//! (`id' = id | (index << id_shift)`), the standard interconnect trick
//! that keeps response routing trivial and preserves per-manager ID
//! ordering. Address-channel arbitration is round-robin and sticky (a
//! selected-but-unfired request keeps its grant so the trunk sees stable
//! wires); W beats strictly follow the AW grant order, as AXI requires.
//!
//! [`Mux::set_priorities`] switches the address channels to static
//! priority arbitration (higher value wins, round-robin order breaks
//! ties): regulated fabrics use it to let a critical manager overtake a
//! throttled best-effort one. An already-granted request is never
//! pre-empted — AXI forbids retracting a presented valid.
//!
//! # Per-cycle protocol
//!
//! 1. [`Mux::forward_requests`] after the managers drive,
//! 2. [`Mux::forward_responses`] after the trunk's response wires settle,
//! 3. [`Mux::commit`] at the clock edge.

use std::collections::VecDeque;

use axi4::prelude::*;

use crate::arbiter::Arbiter;

/// Beats whose ID the mux rewrites: extended on the way to the trunk
/// (AW, AR), restored on the way back (B, R).
trait Tagged: Copy {
    fn id_mut(&mut self) -> &mut AxiId;
}

macro_rules! tagged {
    ($($beat:ty),*) => {$(
        impl Tagged for $beat {
            fn id_mut(&mut self) -> &mut AxiId {
                &mut self.id
            }
        }
    )*};
}

tagged!(AwBeat, ArBeat, BBeat, RBeat);

/// The multiplexer. See the [module docs](self).
#[derive(Debug)]
pub struct Mux {
    n: usize,
    id_shift: u32,
    /// Static per-manager priorities (higher wins); `None` keeps the
    /// default fair round-robin.
    priorities: Option<Vec<u8>>,
    aw: Arbiter,
    ar: Arbiter,
    /// Manager index per accepted AW, in order — routes W beats.
    w_grant: VecDeque<usize>,
}

impl Mux {
    /// A mux for `n` managers, extending IDs at bit `id_shift`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit above `id_shift` in the
    /// 16-bit ID space.
    #[must_use]
    pub fn new(n: usize, id_shift: u32) -> Self {
        assert!(n > 0, "mux needs at least one manager");
        assert!(
            id_shift < 16 && (n as u32 - 1) << id_shift <= u32::from(u16::MAX),
            "manager index must fit in the ID above id_shift"
        );
        Mux {
            n,
            id_shift,
            priorities: None,
            aw: Arbiter::default(),
            ar: Arbiter::default(),
            w_grant: VecDeque::new(),
        }
    }

    /// Checks that every ID manager `port` may issue fits below
    /// `id_shift`, where [`Mux::extend_id`] leaves it intact. A wider ID
    /// would overlap the manager index, and its responses would route to
    /// another port.
    ///
    /// # Panics
    ///
    /// Panics, naming `port` and the ID, if any of `ids` has a bit at or
    /// above `id_shift`.
    pub(crate) fn assert_ids_fit(&self, port: usize, ids: &[u16]) {
        for &id in ids {
            assert!(
                id >> self.id_shift == 0,
                "manager port {port}: ID {id:#x} does not fit below the mux's ID shift (bit {})",
                self.id_shift
            );
        }
    }

    /// Extends `id` with the manager `index`. `id` must fit below
    /// `id_shift`.
    #[must_use]
    pub fn extend_id(&self, index: usize, id: AxiId) -> AxiId {
        AxiId(id.0 | ((index as u16) << self.id_shift))
    }

    /// Splits an extended ID into `(manager index, original id)`.
    #[must_use]
    pub fn split_id(&self, id: AxiId) -> (usize, AxiId) {
        let index = usize::from(id.0 >> self.id_shift);
        let mask = (1u16 << self.id_shift) - 1;
        (index, AxiId(id.0 & mask))
    }

    /// Installs static arbitration priorities (index-aligned with the
    /// manager ports; higher value wins, round-robin breaks ties).
    /// Missing entries default to priority 0; `set_priorities(vec![])`
    /// restores plain round-robin.
    pub fn set_priorities(&mut self, priorities: Vec<u8>) {
        self.priorities = if priorities.is_empty() {
            None
        } else {
            Some(priorities)
        };
    }

    /// Drives manager `index`'s address beat onto the trunk with its ID
    /// extended.
    #[inline]
    fn offer<T: Tagged>(&self, index: usize, mgr: &Channel<T>, trunk: &mut Channel<T>) {
        if let Some(mut beat) = mgr.beat().copied() {
            *beat.id_mut() = self.extend_id(index, *beat.id_mut());
            trunk.drive(beat);
        }
    }

    /// Routes the trunk's response beat to the manager its ID's high
    /// bits name, with the original ID restored, and settles the trunk's
    /// `ready` from that manager's.
    #[inline]
    fn route<T: Tagged>(
        &self,
        trunk: &mut Channel<T>,
        mgrs: &mut [AxiPort],
        channel: fn(&mut AxiPort) -> &mut Channel<T>,
    ) {
        let Some(mut beat) = trunk.beat().copied() else {
            return;
        };
        let (index, orig) = self.split_id(*beat.id_mut());
        if let Some(mgr) = mgrs.get_mut(index) {
            *beat.id_mut() = orig;
            let mgr = channel(mgr);
            mgr.drive(beat);
            trunk.set_ready(mgr.ready());
        }
    }

    /// Pass 1: arbitrate the managers' request wires onto the trunk.
    ///
    /// # Panics
    ///
    /// Panics if `mgrs` does not match the configured manager count.
    pub fn forward_requests(&mut self, mgrs: &[AxiPort], trunk: &mut AxiPort) {
        assert_eq!(mgrs.len(), self.n, "manager port count mismatch");
        let priorities = self.priorities.as_deref();
        if let Some(i) = self.aw.pick(self.n, priorities, |i| mgrs[i].aw.valid()) {
            self.offer(i, &mgrs[i].aw, &mut trunk.aw);
        }
        // W beats from the front granted manager.
        if let Some(&grant) = self.w_grant.front() {
            trunk.w.forward_driver_from(&mgrs[grant].w);
        }
        if let Some(i) = self.ar.pick(self.n, priorities, |i| mgrs[i].ar.valid()) {
            self.offer(i, &mgrs[i].ar, &mut trunk.ar);
        }
    }

    /// Pass 2: route trunk responses back to their managers (by ID high
    /// bits) and propagate `ready`s in both directions.
    ///
    /// # Panics
    ///
    /// Panics if `mgrs` does not match the configured manager count.
    pub fn forward_responses(&mut self, trunk: &mut AxiPort, mgrs: &mut [AxiPort]) {
        assert_eq!(mgrs.len(), self.n, "manager port count mismatch");
        // Request readys to the granted managers only.
        if let Some(i) = self.aw.grant() {
            mgrs[i].aw.set_ready(trunk.aw.ready());
        }
        if let Some(&grant) = self.w_grant.front() {
            mgrs[grant].w.set_ready(trunk.w.ready());
        }
        if let Some(i) = self.ar.grant() {
            mgrs[i].ar.set_ready(trunk.ar.ready());
        }
        self.route(&mut trunk.b, mgrs, |p| &mut p.b);
        self.route(&mut trunk.r, mgrs, |p| &mut p.r);
    }

    /// Pass 3: clock commit — grant bookkeeping from trunk fires.
    ///
    /// # Panics
    ///
    /// Panics only if a last W beat fires without a recorded AW grant —
    /// an internal invariant violation (a bug in the mux, not a caller
    /// error).
    pub fn commit(&mut self, trunk: &AxiPort) {
        if let Some(granted) = self.aw.commit(trunk.aw.fires(), self.n) {
            self.w_grant.push_back(granted);
        }
        if trunk.w.fired_beat().is_some_and(|w| w.last) {
            self.w_grant.pop_front().expect("W fired implies grant");
        }
        self.ar.commit(trunk.ar.fires(), self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aw(id: u16, addr: u64) -> AwBeat {
        AwBeat::new(
            AxiId(id),
            Addr(addr),
            BurstLen::SINGLE,
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        )
    }

    fn ports(n: usize) -> Vec<AxiPort> {
        (0..n)
            .map(|_| {
                let mut p = AxiPort::new();
                p.begin_cycle();
                p
            })
            .collect()
    }

    #[test]
    fn id_extension_roundtrip() {
        let mux = Mux::new(2, 12);
        let ext = mux.extend_id(1, AxiId(0x3));
        assert_eq!(ext, AxiId(0x1003));
        assert_eq!(mux.split_id(ext), (1, AxiId(0x3)));
        assert_eq!(mux.split_id(AxiId(0x7)), (0, AxiId(0x7)));
    }

    #[test]
    #[should_panic(expected = "fit in the ID")]
    fn too_many_managers_rejected() {
        let _ = Mux::new(32, 15);
    }

    #[test]
    fn single_manager_passes_through() {
        let mut mux = Mux::new(1, 12);
        let mut mgrs = ports(1);
        let mut trunk = AxiPort::new();
        trunk.begin_cycle();
        mgrs[0].aw.drive(aw(5, 0x100));
        mux.forward_requests(&mgrs, &mut trunk);
        assert_eq!(trunk.aw.beat().unwrap().id, AxiId(5));
        trunk.aw.set_ready(true);
        mux.forward_responses(&mut trunk, &mut mgrs);
        assert!(mgrs[0].aw.fires());
        mux.commit(&trunk);
    }

    #[test]
    fn arbitration_grants_one_and_sticks() {
        let mut mux = Mux::new(2, 12);
        let mut trunk = AxiPort::new();
        // Both managers request; trunk never ready: grant must stick.
        let mut first = None;
        for round in 0..3 {
            let mut mgrs = ports(2);
            trunk.begin_cycle();
            mgrs[0].aw.drive(aw(1, 0x0));
            mgrs[1].aw.drive(aw(1, 0x8));
            mux.forward_requests(&mgrs, &mut trunk);
            let sel = trunk.aw.beat().unwrap().addr;
            match first {
                None => first = Some(sel),
                Some(prev) => assert_eq!(sel, prev, "round {round}: grant must stick"),
            }
            mux.forward_responses(&mut trunk, &mut mgrs);
            mux.commit(&trunk);
        }
    }

    #[test]
    fn round_robin_alternates_after_fires() {
        let mut mux = Mux::new(2, 12);
        let mut trunk = AxiPort::new();
        let mut served = Vec::new();
        for _ in 0..4 {
            let mut mgrs = ports(2);
            trunk.begin_cycle();
            mgrs[0].aw.drive(aw(1, 0x0));
            mgrs[1].aw.drive(aw(1, 0x8));
            mux.forward_requests(&mgrs, &mut trunk);
            trunk.aw.set_ready(true);
            mux.forward_responses(&mut trunk, &mut mgrs);
            served.push(trunk.aw.beat().unwrap().addr.0);
            // Consume the W beat owed so w_grant does not grow unbounded.
            mux.commit(&trunk);
            let mut mgrs2 = ports(2);
            trunk.begin_cycle();
            let granted = if served.last() == Some(&0x0) { 0 } else { 1 };
            mgrs2[granted].w.drive(WBeat::new(0, true));
            mux.forward_requests(&mgrs2, &mut trunk);
            trunk.w.set_ready(true);
            mux.forward_responses(&mut trunk, &mut mgrs2);
            mux.commit(&trunk);
        }
        assert!(
            served.windows(2).all(|w| w[0] != w[1]),
            "alternation: {served:?}"
        );
    }

    #[test]
    fn w_beats_follow_grant_order() {
        let mut mux = Mux::new(2, 12);
        let mut trunk = AxiPort::new();
        // Manager 0's AW fires first, then manager 1's.
        for turn in 0..2usize {
            let mut mgrs = ports(2);
            trunk.begin_cycle();
            mgrs[turn].aw.drive(aw(1, 0x10 * turn as u64));
            mux.forward_requests(&mgrs, &mut trunk);
            trunk.aw.set_ready(true);
            mux.forward_responses(&mut trunk, &mut mgrs);
            mux.commit(&trunk);
        }
        // Both drive W; only manager 0's beat is taken first.
        let mut mgrs = ports(2);
        trunk.begin_cycle();
        mgrs[0].w.drive(WBeat::new(0xAA, true));
        mgrs[1].w.drive(WBeat::new(0xBB, true));
        mux.forward_requests(&mgrs, &mut trunk);
        assert_eq!(trunk.w.beat().unwrap().data, 0xAA);
        trunk.w.set_ready(true);
        mux.forward_responses(&mut trunk, &mut mgrs);
        assert!(mgrs[0].w.ready());
        assert!(!mgrs[1].w.ready());
        mux.commit(&trunk);
        // Now manager 1's W flows.
        let mut mgrs = ports(2);
        trunk.begin_cycle();
        mgrs[1].w.drive(WBeat::new(0xBB, true));
        mux.forward_requests(&mgrs, &mut trunk);
        assert_eq!(trunk.w.beat().unwrap().data, 0xBB);
    }

    #[test]
    fn static_priority_overrides_round_robin() {
        let mut mux = Mux::new(2, 12);
        mux.set_priorities(vec![0, 7]);
        let mut trunk = AxiPort::new();
        // Both managers request every cycle; manager 1 must win every
        // arbitration despite the advancing round-robin pointer.
        for round in 0..4 {
            let mut mgrs = ports(2);
            trunk.begin_cycle();
            mgrs[0].aw.drive(aw(1, 0x0));
            mgrs[1].aw.drive(aw(1, 0x8));
            mux.forward_requests(&mgrs, &mut trunk);
            trunk.aw.set_ready(true);
            mux.forward_responses(&mut trunk, &mut mgrs);
            assert_eq!(
                trunk.aw.beat().unwrap().addr.0,
                0x8,
                "round {round}: high priority wins"
            );
            mux.commit(&trunk);
            // Drain the owed W beat to keep w_grant bounded.
            let mut mgrs2 = ports(2);
            trunk.begin_cycle();
            mgrs2[1].w.drive(WBeat::new(0, true));
            mux.forward_requests(&mgrs2, &mut trunk);
            trunk.w.set_ready(true);
            mux.forward_responses(&mut trunk, &mut mgrs2);
            mux.commit(&trunk);
        }
        // Once the high-priority manager goes quiet, the low one flows.
        let mut mgrs = ports(2);
        trunk.begin_cycle();
        mgrs[0].aw.drive(aw(1, 0x0));
        mux.forward_requests(&mgrs, &mut trunk);
        assert_eq!(trunk.aw.beat().unwrap().addr.0, 0x0);
    }

    #[test]
    fn responses_route_by_id_high_bits() {
        let mut mux = Mux::new(2, 12);
        let mut trunk = AxiPort::new();
        let mut mgrs = ports(2);
        trunk.begin_cycle();
        mgrs[1].b.set_ready(true);
        trunk.b.drive(BBeat::new(AxiId(0x1002), Resp::Okay));
        mux.forward_requests(&mgrs, &mut trunk);
        mux.forward_responses(&mut trunk, &mut mgrs);
        assert!(!mgrs[0].b.valid());
        let b = mgrs[1].b.beat().expect("routed to manager 1");
        assert_eq!(b.id, AxiId(2), "original ID restored");
        assert!(trunk.b.ready(), "manager 1's ready propagated");
    }

    #[test]
    fn r_routing_restores_id() {
        let mut mux = Mux::new(2, 12);
        let mut trunk = AxiPort::new();
        let mut mgrs = ports(2);
        trunk.begin_cycle();
        mgrs[0].r.set_ready(true);
        trunk
            .r
            .drive(RBeat::new(AxiId(0x0003), 9, Resp::Okay, true));
        mux.forward_requests(&mgrs, &mut trunk);
        mux.forward_responses(&mut trunk, &mut mgrs);
        let r = mgrs[0].r.beat().expect("routed to manager 0");
        assert_eq!(r.id, AxiId(3));
        assert!(trunk.r.ready());
        assert!(!mgrs[1].r.valid());
    }
}
