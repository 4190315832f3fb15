//! The Outstanding Transaction Table (OTT), paper §II-C and Fig. 3.
//!
//! The OTT is three linked sub-tables:
//!
//! * the [`HtTable`] (ID Head-Tail) keeps one FIFO per unique ID so that
//!   same-ID transactions complete in order, as AXI4 requires;
//! * the [`LdTable`] (Linked Data) stores each outstanding transaction's
//!   details — ID, address, state, budget, latency, timeout status — in
//!   the guard-specific tracker payload;
//! * the [`EiTable`] (Enqueue Index) records AW issue order so each W
//!   beat is attributed to the right write transaction.
//!
//! The EI order belongs to the write direction: only W beats are routed
//! by issue order, since R beats carry their ID. The read guard's OTT is
//! built with [`Ott::without_ei`], which matches the area model's one EI
//! table per TMU.
//!
//! [`Ott`] coordinates the three, exposing the operations the guards
//! need: enqueue on `aw_valid`/`ar_valid`, per-ID head lookup for B/R
//! routing, EI-front lookup for W routing, and dequeue on completion.
//! When the OTT saturates, new requests stall until a transaction
//! completes or is aborted (paper §II-D).

pub mod ei;
pub mod ht;
pub mod ld;

pub use ei::EiTable;
pub use ht::{HtRow, HtTable};
pub use ld::{LdEntry, LdIndex, LdTable};

use crate::remap::UniqId;

/// The combined Outstanding Transaction Table.
///
/// `S` is the per-transaction tracker state stored in the LD rows (the
/// Write Guard and Read Guard each define their own).
///
/// ```
/// use tmu::ott::Ott;
///
/// let mut ott: Ott<&str> = Ott::new(2, 4);
/// let a = ott.enqueue(0, "first").expect("empty OTT has capacity");
/// let b = ott.enqueue(0, "second").expect("capacity 2 fits a second entry");
/// assert_eq!(ott.head_of(0), Some(a));
/// assert_eq!(ott.ei_front(), Some(a));
/// let done = ott.dequeue_head(0).expect("UID 0 has a queued head");
/// assert_eq!(done.1.tracker, "first");
/// assert_eq!(ott.head_of(0), Some(b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ott<S> {
    ht: HtTable,
    ld: LdTable<S>,
    /// Issue order, kept only by the write direction's OTT.
    ei: Option<EiTable>,
}

impl<S> Ott<S> {
    /// An OTT for `max_uniq_ids` dense ID slots and `max_outstanding`
    /// total transactions.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(max_uniq_ids: usize, max_outstanding: usize) -> Self {
        Ott {
            ei: Some(EiTable::new(max_outstanding)),
            ..Self::without_ei(max_uniq_ids, max_outstanding)
        }
    }

    /// An OTT with no EI order, for a direction whose data beats carry
    /// their ID (reads): [`Ott::ei_front`] is always `None`.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn without_ei(max_uniq_ids: usize, max_outstanding: usize) -> Self {
        Ott {
            ht: HtTable::new(max_uniq_ids),
            ld: LdTable::new(max_outstanding),
            ei: None,
        }
    }

    /// Total transaction capacity (`MaxOutstdTxns`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ld.capacity()
    }

    /// Currently tracked transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ld.len()
    }

    /// True when nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ld.is_empty()
    }

    /// True when a new transaction cannot be admitted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.ld.is_full()
    }

    /// Enqueues a transaction of `uid`, appending to that ID's FIFO and
    /// the EI order (if kept). Returns the LD row index, or `None` when
    /// saturated.
    ///
    /// # Panics
    ///
    /// Panics only if the HT, LD, and EI tables fall out of sync — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn enqueue(&mut self, uid: UniqId, tracker: S) -> Option<LdIndex> {
        let idx = self.ld.alloc(uid, tracker)?;
        if let Some(prev_tail) = self.ht.push_tail(uid, idx) {
            self.ld.get_mut(prev_tail).expect("tail row exists").next = Some(idx);
        }
        if let Some(ei) = &mut self.ei {
            ei.push(idx)
                .expect("the EI table is as deep as the LD table");
        }
        Some(idx)
    }

    /// The oldest outstanding transaction of `uid` (the one AXI4 says
    /// must respond next for that ID).
    #[must_use]
    pub fn head_of(&self, uid: UniqId) -> Option<LdIndex> {
        self.ht.head(uid)
    }

    /// Number of transactions queued for `uid`.
    #[must_use]
    pub fn count_of(&self, uid: UniqId) -> u32 {
        self.ht.count(uid)
    }

    /// The LD row whose W data phase is current (EI order front), or
    /// `None` for an OTT without EI order.
    #[must_use]
    pub fn ei_front(&self) -> Option<LdIndex> {
        self.ei.as_ref()?.front()
    }

    /// Advances the EI order past `idx` once its data phase completes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not the EI front — W beats out of AW order are
    /// a protocol violation the guard reports *before* calling this — or
    /// if the OTT keeps no EI order.
    pub fn ei_advance(&mut self, idx: LdIndex) {
        let front = self
            .ei
            .as_mut()
            .and_then(EiTable::pop_front)
            .expect("EI advance on empty table");
        assert_eq!(front, idx, "EI advance out of order");
    }

    /// Dequeues the head transaction of `uid`, returning its LD index
    /// and entry. Also removes it from the EI order if still present.
    ///
    /// # Panics
    ///
    /// Panics only if the HT, LD, and EI tables fall out of sync — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn dequeue_head(&mut self, uid: UniqId) -> Option<(LdIndex, LdEntry<S>)> {
        let head = self.ht.head(uid)?;
        let next = self.ld.get(head).expect("head row exists").next;
        self.ht.pop_head(uid, next);
        if let Some(ei) = &mut self.ei {
            ei.remove(head);
        }
        let entry = self.ld.free(head);
        Some((head, entry))
    }

    /// Shared access to an LD entry.
    #[must_use]
    pub fn get(&self, idx: LdIndex) -> Option<&LdEntry<S>> {
        self.ld.get(idx)
    }

    /// Exclusive access to an LD entry.
    pub fn get_mut(&mut self, idx: LdIndex) -> Option<&mut LdEntry<S>> {
        self.ld.get_mut(idx)
    }

    /// Iterates all tracked transactions.
    pub fn iter(&self) -> impl Iterator<Item = (LdIndex, &LdEntry<S>)> {
        self.ld.iter()
    }

    /// Iterates all tracked transactions mutably (per-cycle counter
    /// ticking).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LdIndex, &mut LdEntry<S>)> {
        self.ld.iter_mut()
    }

    /// Transactions queued ahead of a new arrival — the occupancy input
    /// of the adaptive queue-waiting budget.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.len()
    }

    /// Discards every tracked transaction (abort/reset path).
    pub fn clear(&mut self) {
        self.ht.clear();
        self.ld.clear();
        if let Some(ei) = &mut self.ei {
            ei.clear();
        }
    }

    /// Internal-consistency check used by property tests: HT counts, LD
    /// occupancy and link structure must agree.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any inconsistency.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.ht.total(),
            self.ld.len(),
            "HT total vs LD used mismatch"
        );
        for uid in 0..self.ht.capacity() {
            let row = self.ht.row(uid);
            // Walk the chain from head; must reach tail in `count` hops.
            let mut cursor = row.head;
            let mut hops = 0;
            let mut last = None;
            while let Some(idx) = cursor {
                let entry = self.ld.get(idx).expect("linked row must be live");
                assert_eq!(entry.uid, uid, "row linked under wrong uid");
                last = Some(idx);
                cursor = entry.next;
                hops += 1;
                assert!(hops <= self.ld.capacity(), "cycle in per-ID chain");
            }
            assert_eq!(hops, row.count as usize, "chain length vs count mismatch");
            assert_eq!(last, row.tail, "tail pointer mismatch");
        }
        // EI entries must reference live rows, no duplicates. Checked
        // pairwise so that debug builds, which run this after every
        // commit, do not allocate on the busy path.
        let Some(ei) = &self.ei else {
            return;
        };
        for (pos, idx) in ei.iter().enumerate() {
            assert!(self.ld.get(idx).is_some(), "EI references freed row");
            assert!(
                ei.iter().skip(pos + 1).all(|other| other != idx),
                "duplicate EI entry"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_links_fifo_per_uid() {
        let mut ott: Ott<u32> = Ott::new(2, 8);
        let a = ott.enqueue(0, 1).unwrap();
        let b = ott.enqueue(0, 2).unwrap();
        let c = ott.enqueue(1, 3).unwrap();
        assert_eq!(ott.head_of(0), Some(a));
        assert_eq!(ott.get(a).unwrap().next, Some(b));
        assert_eq!(ott.head_of(1), Some(c));
        assert_eq!(ott.count_of(0), 2);
        ott.assert_consistent();
    }

    #[test]
    fn saturation_returns_none() {
        let mut ott: Ott<u32> = Ott::new(1, 2);
        ott.enqueue(0, 1).unwrap();
        ott.enqueue(0, 2).unwrap();
        assert!(ott.is_full());
        assert_eq!(ott.enqueue(0, 3), None);
        ott.assert_consistent();
    }

    #[test]
    fn dequeue_in_fifo_order() {
        let mut ott: Ott<u32> = Ott::new(1, 4);
        ott.enqueue(0, 10).unwrap();
        ott.enqueue(0, 20).unwrap();
        ott.enqueue(0, 30).unwrap();
        let (_, e1) = ott.dequeue_head(0).unwrap();
        let (_, e2) = ott.dequeue_head(0).unwrap();
        let (_, e3) = ott.dequeue_head(0).unwrap();
        assert_eq!((e1.tracker, e2.tracker, e3.tracker), (10, 20, 30));
        assert!(ott.dequeue_head(0).is_none());
        ott.assert_consistent();
    }

    #[test]
    fn ei_order_is_global_across_ids() {
        let mut ott: Ott<u32> = Ott::new(2, 4);
        let a = ott.enqueue(0, 1).unwrap();
        let b = ott.enqueue(1, 2).unwrap();
        assert_eq!(ott.ei_front(), Some(a));
        ott.ei_advance(a);
        assert_eq!(ott.ei_front(), Some(b));
        ott.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn ei_advance_out_of_order_panics() {
        let mut ott: Ott<u32> = Ott::new(2, 4);
        let _a = ott.enqueue(0, 1).unwrap();
        let b = ott.enqueue(1, 2).unwrap();
        ott.ei_advance(b);
    }

    #[test]
    fn dequeue_removes_from_ei_too() {
        let mut ott: Ott<u32> = Ott::new(1, 4);
        let a = ott.enqueue(0, 1).unwrap();
        let b = ott.enqueue(0, 2).unwrap();
        ott.dequeue_head(0).unwrap(); // removes a
        assert_eq!(ott.ei_front(), Some(b));
        assert_ne!(ott.ei_front(), Some(a));
        ott.assert_consistent();
    }

    #[test]
    fn freed_capacity_admits_new_transactions() {
        let mut ott: Ott<u32> = Ott::new(1, 2);
        ott.enqueue(0, 1).unwrap();
        ott.enqueue(0, 2).unwrap();
        ott.dequeue_head(0).unwrap();
        assert!(ott.enqueue(0, 3).is_some());
        ott.assert_consistent();
    }

    #[test]
    fn clear_empties_all_tables() {
        let mut ott: Ott<u32> = Ott::new(2, 4);
        ott.enqueue(0, 1).unwrap();
        ott.enqueue(1, 2).unwrap();
        ott.clear();
        assert!(ott.is_empty());
        assert_eq!(ott.ei_front(), None);
        assert_eq!(ott.head_of(0), None);
        ott.assert_consistent();
    }

    #[test]
    fn without_ei_enqueues_and_dequeues_in_fifo_order() {
        let mut ott: Ott<u32> = Ott::without_ei(2, 4);
        let a = ott.enqueue(0, 1).unwrap();
        let b = ott.enqueue(0, 2).unwrap();
        let c = ott.enqueue(1, 3).unwrap();
        assert_eq!(ott.ei_front(), None, "no EI order kept");
        assert_eq!(ott.head_of(0), Some(a));
        assert_eq!(ott.get(a).unwrap().next, Some(b));
        assert_eq!(ott.head_of(1), Some(c));
        ott.assert_consistent();
        let (idx, entry) = ott.dequeue_head(0).unwrap();
        assert_eq!((idx, entry.tracker), (a, 1));
        assert_eq!(ott.head_of(0), Some(b));
        assert_eq!(ott.ei_front(), None);
        ott.assert_consistent();
    }

    #[test]
    fn without_ei_saturates_at_ld_capacity() {
        let mut ott: Ott<u32> = Ott::without_ei(1, 2);
        ott.enqueue(0, 1).unwrap();
        ott.enqueue(0, 2).unwrap();
        assert!(ott.is_full());
        assert_eq!(ott.enqueue(0, 3), None);
        ott.dequeue_head(0).unwrap();
        assert!(ott.enqueue(0, 4).is_some(), "freed row admits again");
        ott.assert_consistent();
    }

    #[test]
    fn without_ei_clear_empties_all_tables() {
        let mut ott: Ott<u32> = Ott::without_ei(2, 4);
        ott.enqueue(0, 1).unwrap();
        ott.enqueue(1, 2).unwrap();
        ott.clear();
        assert!(ott.is_empty());
        assert_eq!(ott.ei_front(), None);
        assert_eq!(ott.head_of(0), None);
        assert_eq!(ott.head_of(1), None);
        ott.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn without_ei_has_nothing_to_advance() {
        let mut ott: Ott<u32> = Ott::without_ei(1, 2);
        let a = ott.enqueue(0, 1).unwrap();
        ott.ei_advance(a);
    }

    #[test]
    fn occupancy_tracks_len() {
        let mut ott: Ott<u32> = Ott::new(2, 4);
        assert_eq!(ott.occupancy(), 0);
        ott.enqueue(0, 1).unwrap();
        assert_eq!(ott.occupancy(), 1);
    }
}
