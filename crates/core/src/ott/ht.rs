//! The ID Head-Tail (HT) table: per-unique-ID FIFO heads.
//!
//! AXI4 requires transactions sharing an ID to complete in order. The HT
//! table keeps, for each dense unique-ID slot, the head and tail LD-row
//! indices of that ID's FIFO, with the intermediate links stored in the
//! LD rows themselves ([`super::LdEntry::next`]).

use super::ld::LdIndex;
use crate::remap::UniqId;

/// One unique-ID slot's FIFO descriptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtRow {
    /// Oldest outstanding transaction of this ID.
    pub head: Option<LdIndex>,
    /// Newest outstanding transaction of this ID.
    pub tail: Option<LdIndex>,
    /// Number of queued transactions.
    pub count: u32,
}

/// The Head-Tail table: `MaxUniqIDs` FIFO descriptors.
///
/// The linking operations take the LD `next` pointers as explicit
/// arguments/return values so this table stays independent of the
/// tracker payload type; [`super::Ott`] coordinates the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtTable {
    rows: Vec<HtRow>,
}

impl HtTable {
    /// A table for `max_uniq_ids` dense ID slots.
    ///
    /// # Panics
    ///
    /// Panics if `max_uniq_ids` is zero.
    #[must_use]
    pub fn new(max_uniq_ids: usize) -> Self {
        assert!(max_uniq_ids > 0, "HT table needs at least one row");
        HtTable {
            rows: vec![HtRow::default(); max_uniq_ids],
        }
    }

    /// Number of ID slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// The FIFO descriptor of slot `uid`.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is out of range.
    #[must_use]
    pub fn row(&self, uid: UniqId) -> HtRow {
        self.rows[uid]
    }

    /// Oldest outstanding LD row of `uid`, if any.
    #[must_use]
    pub fn head(&self, uid: UniqId) -> Option<LdIndex> {
        self.rows[uid].head
    }

    /// Queued transactions of `uid`.
    #[must_use]
    pub fn count(&self, uid: UniqId) -> u32 {
        self.rows[uid].count
    }

    /// Appends LD row `idx` at the tail of `uid`'s FIFO. Returns the
    /// previous tail, whose `next` pointer the caller must set to `idx`.
    pub fn push_tail(&mut self, uid: UniqId, idx: LdIndex) -> Option<LdIndex> {
        let row = &mut self.rows[uid];
        let prev_tail = row.tail;
        row.tail = Some(idx);
        if row.head.is_none() {
            row.head = Some(idx);
        }
        row.count += 1;
        prev_tail
    }

    /// Removes the head of `uid`'s FIFO. `new_head` is the popped row's
    /// `next` pointer (which the caller reads from the LD table).
    ///
    /// Returns the popped LD row.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    pub fn pop_head(&mut self, uid: UniqId, new_head: Option<LdIndex>) -> LdIndex {
        let row = &mut self.rows[uid];
        let head = row.head.expect("pop_head on empty per-ID FIFO");
        row.head = new_head;
        if new_head.is_none() {
            row.tail = None;
        }
        row.count -= 1;
        head
    }

    /// Clears every FIFO (abort/reset path).
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(|r| *r = HtRow::default());
    }

    /// Total transactions queued across all IDs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.rows.iter().map(|r| r.count as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_single() {
        let mut ht = HtTable::new(2);
        assert_eq!(ht.push_tail(0, 5), None);
        assert_eq!(ht.head(0), Some(5));
        assert_eq!(ht.count(0), 1);
        let popped = ht.pop_head(0, None);
        assert_eq!(popped, 5);
        assert_eq!(ht.head(0), None);
        assert_eq!(ht.row(0).tail, None);
    }

    #[test]
    fn fifo_order_maintained_via_links() {
        let mut ht = HtTable::new(1);
        assert_eq!(ht.push_tail(0, 1), None);
        assert_eq!(ht.push_tail(0, 2), Some(1), "caller links 1.next = 2");
        assert_eq!(ht.push_tail(0, 3), Some(2));
        assert_eq!(ht.count(0), 3);
        assert_eq!(ht.pop_head(0, Some(2)), 1);
        assert_eq!(ht.pop_head(0, Some(3)), 2);
        assert_eq!(ht.pop_head(0, None), 3);
        assert_eq!(ht.count(0), 0);
    }

    #[test]
    fn ids_are_independent() {
        let mut ht = HtTable::new(2);
        ht.push_tail(0, 1);
        ht.push_tail(1, 2);
        assert_eq!(ht.head(0), Some(1));
        assert_eq!(ht.head(1), Some(2));
        assert_eq!(ht.total(), 2);
    }

    #[test]
    #[should_panic(expected = "empty per-ID FIFO")]
    fn pop_empty_panics() {
        let mut ht = HtTable::new(1);
        let _ = ht.pop_head(0, None);
    }

    #[test]
    fn clear_resets_all_rows() {
        let mut ht = HtTable::new(2);
        ht.push_tail(0, 1);
        ht.push_tail(1, 2);
        ht.clear();
        assert_eq!(ht.total(), 0);
        assert_eq!(ht.head(0), None);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_capacity_rejected() {
        let _ = HtTable::new(0);
    }
}
