//! The AXI ID Remapper (paper §II-A).
//!
//! AXI ID fields can be wide and sparsely used; tracking transactions
//! indexed by the raw ID would need `2^idwidth` table rows. The remapper
//! compacts the live ID space into `MaxUniqIDs` dense slots, allocated on
//! first use and freed when the last outstanding transaction of that ID
//! retires. When all slots hold *other* IDs, a transaction with a new ID
//! must stall — the TMU applies backpressure on AW/AR until a slot frees.

use std::fmt;

use axi4::AxiId;

/// A dense internal ID index in `0..MaxUniqIDs`.
pub type UniqId = usize;

/// Why a remap attempt could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapStall {
    /// Every slot is occupied by a different live ID.
    SlotsExhausted,
    /// The ID has a slot but its per-ID transaction quota is full.
    PerIdQuotaFull,
}

impl fmt::Display for RemapStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemapStall::SlotsExhausted => write!(f, "all unique-ID slots in use"),
            RemapStall::PerIdQuotaFull => write!(f, "per-ID outstanding quota full"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    id: AxiId,
    refs: u32,
}

/// Compacts sparse AXI IDs into dense slot indices with reference
/// counting.
///
/// ```
/// use tmu::remap::IdRemapper;
/// use axi4::AxiId;
///
/// let mut remap = IdRemapper::new(2, 4);
/// let a = remap.acquire(AxiId(0x700)).expect("2 slots, none used");
/// let b = remap.acquire(AxiId(0x003)).expect("one slot still free");
/// assert_ne!(a, b);
/// // Same raw ID maps to the same slot while live.
/// assert_eq!(remap.acquire(AxiId(0x700)).expect("ID is live"), a);
/// // A third distinct ID stalls.
/// assert!(remap.acquire(AxiId(0x055)).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRemapper {
    slots: Vec<Option<Slot>>,
    txn_per_id: u32,
}

impl IdRemapper {
    /// A remapper with `max_uniq_ids` slots, each admitting up to
    /// `txn_per_id` concurrently outstanding transactions.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(max_uniq_ids: usize, txn_per_id: u32) -> Self {
        assert!(max_uniq_ids > 0, "need at least one unique-ID slot");
        assert!(txn_per_id > 0, "need at least one transaction per ID");
        IdRemapper {
            slots: vec![None; max_uniq_ids],
            txn_per_id,
        }
    }

    /// Number of unique-ID slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Per-ID outstanding quota.
    #[must_use]
    pub fn txn_per_id(&self) -> u32 {
        self.txn_per_id
    }

    /// Slots currently holding a live ID.
    #[must_use]
    pub fn live_ids(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Total outstanding transactions across all IDs.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.refs as usize).sum()
    }

    /// Looks up the slot of `id` without acquiring.
    #[must_use]
    pub fn lookup(&self, id: AxiId) -> Option<UniqId> {
        self.slots
            .iter()
            .position(|s| s.is_some_and(|s| s.id == id))
    }

    /// Checks whether an acquire of `id` would succeed, without mutating.
    /// One pass over the slots, like the CAM match.
    ///
    /// # Errors
    ///
    /// Returns the [`RemapStall`] reason an acquire would fail with.
    pub fn probe(&self, id: AxiId) -> Result<(), RemapStall> {
        let mut free = false;
        for slot in &self.slots {
            match slot {
                Some(live) if live.id == id => {
                    return if live.refs >= self.txn_per_id {
                        Err(RemapStall::PerIdQuotaFull)
                    } else {
                        Ok(())
                    };
                }
                None => free = true,
                _ => {}
            }
        }
        if free {
            Ok(())
        } else {
            Err(RemapStall::SlotsExhausted)
        }
    }

    /// Maps `id` to a dense slot, allocating one if needed, and
    /// increments its outstanding count. One pass over the slots: the
    /// ID's live slot if it has one, else the first free slot.
    ///
    /// # Errors
    ///
    /// Returns a [`RemapStall`] when no slot can be granted; the caller
    /// must stall the transaction (the TMU withholds `aw_ready` /
    /// `ar_ready`).
    pub fn acquire(&mut self, id: AxiId) -> Result<UniqId, RemapStall> {
        let mut free = None;
        for (uid, slot) in self.slots.iter_mut().enumerate() {
            match slot {
                Some(live) if live.id == id => {
                    if live.refs >= self.txn_per_id {
                        return Err(RemapStall::PerIdQuotaFull);
                    }
                    live.refs += 1;
                    return Ok(uid);
                }
                None if free.is_none() => free = Some(uid),
                _ => {}
            }
        }
        let uid = free.ok_or(RemapStall::SlotsExhausted)?;
        self.slots[uid] = Some(Slot { id, refs: 1 });
        Ok(uid)
    }

    /// Releases one outstanding transaction of slot `uid`, freeing the
    /// slot when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is out of range or the slot is already free — both
    /// indicate a bookkeeping bug in the caller.
    pub fn release(&mut self, uid: UniqId) {
        let slot = self.slots[uid]
            .as_mut()
            .expect("release of a free remap slot");
        slot.refs -= 1;
        if slot.refs == 0 {
            self.slots[uid] = None;
        }
    }

    /// The raw AXI ID currently mapped to slot `uid`, if any.
    #[must_use]
    pub fn raw_id(&self, uid: UniqId) -> Option<AxiId> {
        self.slots.get(uid).copied().flatten().map(|s| s.id)
    }

    /// Frees every slot (TMU abort/reset path).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

impl fmt::Display for IdRemapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remap[")?;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match slot {
                Some(s) => write!(f, "{}:{}x{}", i, s.id, s.refs)?,
                None => write!(f, "{i}:-")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_dense_slots() {
        let mut r = IdRemapper::new(4, 8);
        let slots: Vec<_> = (0..4).map(|i| r.acquire(AxiId(i * 100)).unwrap()).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(r.live_ids(), 4);
    }

    #[test]
    fn same_id_shares_slot_and_counts() {
        let mut r = IdRemapper::new(2, 8);
        let a = r.acquire(AxiId(7)).unwrap();
        let b = r.acquire(AxiId(7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.outstanding(), 2);
        assert_eq!(r.live_ids(), 1);
    }

    #[test]
    fn exhaustion_stalls_new_ids_only() {
        let mut r = IdRemapper::new(1, 8);
        r.acquire(AxiId(1)).unwrap();
        assert_eq!(r.acquire(AxiId(2)), Err(RemapStall::SlotsExhausted));
        // The live ID continues to be admitted.
        assert!(r.acquire(AxiId(1)).is_ok());
    }

    #[test]
    fn per_id_quota_enforced() {
        let mut r = IdRemapper::new(2, 2);
        r.acquire(AxiId(5)).unwrap();
        r.acquire(AxiId(5)).unwrap();
        assert_eq!(r.acquire(AxiId(5)), Err(RemapStall::PerIdQuotaFull));
        // Another ID is unaffected.
        assert!(r.acquire(AxiId(6)).is_ok());
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut r = IdRemapper::new(1, 8);
        let uid = r.acquire(AxiId(1)).unwrap();
        r.release(uid);
        assert_eq!(r.live_ids(), 0);
        let uid2 = r.acquire(AxiId(99)).unwrap();
        assert_eq!(uid2, 0, "slot recycled");
        assert_eq!(r.raw_id(uid2), Some(AxiId(99)));
    }

    #[test]
    fn release_decrements_before_freeing() {
        let mut r = IdRemapper::new(1, 8);
        let uid = r.acquire(AxiId(1)).unwrap();
        r.acquire(AxiId(1)).unwrap();
        r.release(uid);
        assert_eq!(r.live_ids(), 1, "one ref still live");
        r.release(uid);
        assert_eq!(r.live_ids(), 0);
    }

    #[test]
    #[should_panic(expected = "free remap slot")]
    fn double_release_panics() {
        let mut r = IdRemapper::new(1, 8);
        let uid = r.acquire(AxiId(1)).unwrap();
        r.release(uid);
        r.release(uid);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut r = IdRemapper::new(1, 1);
        assert!(r.probe(AxiId(3)).is_ok());
        assert_eq!(r.live_ids(), 0);
        r.acquire(AxiId(3)).unwrap();
        assert_eq!(r.probe(AxiId(3)), Err(RemapStall::PerIdQuotaFull));
    }

    #[test]
    fn clear_releases_everything() {
        let mut r = IdRemapper::new(2, 2);
        r.acquire(AxiId(1)).unwrap();
        r.acquire(AxiId(2)).unwrap();
        r.clear();
        assert_eq!(r.live_ids(), 0);
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn display_shows_occupancy() {
        let mut r = IdRemapper::new(2, 2);
        r.acquire(AxiId(1)).unwrap();
        let s = r.to_string();
        assert!(s.contains("0:ID#1x1"));
        assert!(s.contains("1:-"));
    }

    #[test]
    #[should_panic(expected = "at least one unique-ID slot")]
    fn zero_slots_rejected() {
        let _ = IdRemapper::new(0, 1);
    }

    /// The multi-pass acquire the single pass replaced: probe, then look
    /// the ID up, then find the first free slot.
    fn reference_acquire(r: &mut IdRemapper, id: AxiId) -> Result<UniqId, RemapStall> {
        r.probe(id)?;
        if let Some(uid) = r.slots.iter().position(|s| s.is_some_and(|s| s.id == id)) {
            if let Some(live) = r.slots[uid].as_mut() {
                live.refs += 1;
            }
            return Ok(uid);
        }
        let uid = r.slots.iter().position(Option::is_none).unwrap();
        r.slots[uid] = Some(Slot { id, refs: 1 });
        Ok(uid)
    }

    /// Acquires `id` on both remappers and checks they agree.
    fn acquire_both(fast: &mut IdRemapper, reference: &mut IdRemapper, id: AxiId) {
        let got = fast.acquire(id);
        assert_eq!(got, reference_acquire(reference, id), "acquire {id}");
        assert_eq!(fast, reference, "slot tables after acquire {id}");
    }

    #[test]
    fn single_pass_takes_the_live_slot_behind_a_free_one() {
        let mut fast = IdRemapper::new(3, 2);
        let mut reference = fast.clone();
        for id in [1, 2, 2] {
            acquire_both(&mut fast, &mut reference, AxiId(id));
        }
        // Free slot 0: ID 2's live slot now sits after a free slot.
        fast.release(0);
        reference.release(0);
        acquire_both(&mut fast, &mut reference, AxiId(2));
        assert_eq!(fast.outstanding(), 2, "ID 2 is still at its quota");
        acquire_both(&mut fast, &mut reference, AxiId(2));
        assert_eq!(fast.lookup(AxiId(2)), Some(1), "no second slot for ID 2");
    }

    #[test]
    fn single_pass_matches_on_full_quota_and_exhaustion() {
        let mut fast = IdRemapper::new(2, 1);
        let mut reference = fast.clone();
        for id in [4, 4, 5, 6] {
            acquire_both(&mut fast, &mut reference, AxiId(id));
        }
        assert_eq!(fast.acquire(AxiId(4)), Err(RemapStall::PerIdQuotaFull));
        assert_eq!(fast.acquire(AxiId(6)), Err(RemapStall::SlotsExhausted));
    }

    proptest::proptest! {
        /// Random acquire/release sequences on small CAMs: the single-pass
        /// `acquire` grants the same slot, or the same stall, as the
        /// multi-pass reference, and leaves the same slot table.
        #[test]
        fn single_pass_acquire_matches_multi_pass(
            capacity in 2usize..=4,
            quota in 1u32..=3,
            ops in proptest::collection::vec((0u8..10, 0u16..6, 0usize..4), 1..120),
        ) {
            let mut fast = IdRemapper::new(capacity, quota);
            let mut reference = fast.clone();
            for (op, id, pick) in ops {
                if op < 6 {
                    acquire_both(&mut fast, &mut reference, AxiId(id));
                } else if let Some(uid) = (0..capacity)
                    .map(|k| (pick + k) % capacity)
                    .find(|&uid| fast.raw_id(uid).is_some())
                {
                    fast.release(uid);
                    reference.release(uid);
                }
                proptest::prop_assert_eq!(&fast, &reference);
            }
        }
    }
}
