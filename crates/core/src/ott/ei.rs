//! The Enqueue-Index (EI) table: global request order.
//!
//! AXI4 requires write data on W to follow the order of the addresses on
//! AW. The EI table records the sequence in which AW requests were
//! enqueued, so each W beat is attributed to the correct transaction.
//! Only the write direction keeps one: R beats carry their ID, and reads
//! have no cross-ID ordering rule.

use std::collections::VecDeque;

use super::ld::LdIndex;

/// FIFO of LD-row indices in enqueue order.
///
/// ```
/// use tmu::ott::EiTable;
///
/// let mut ei = EiTable::new(4);
/// ei.push(2).expect("empty FIFO of capacity 4 accepts");
/// ei.push(0).expect("one of four slots used");
/// assert_eq!(ei.front(), Some(2));
/// assert_eq!(ei.pop_front(), Some(2));
/// assert_eq!(ei.front(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EiTable {
    order: VecDeque<LdIndex>,
    capacity: usize,
}

impl EiTable {
    /// A table holding at most `capacity` indices (`MaxOutstdTxns`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EI table needs at least one row");
        EiTable {
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Appends an LD index at enqueue time.
    ///
    /// # Errors
    ///
    /// Returns `Err(idx)` when the table is saturated (cannot happen when
    /// sized to the LD capacity, but kept explicit for safety).
    pub fn push(&mut self, idx: LdIndex) -> Result<(), LdIndex> {
        if self.order.len() >= self.capacity {
            return Err(idx);
        }
        self.order.push_back(idx);
        Ok(())
    }

    /// The LD row whose data phase is current (oldest enqueued).
    #[must_use]
    pub fn front(&self) -> Option<LdIndex> {
        self.order.front().copied()
    }

    /// Pops the current row when its data phase completes.
    pub fn pop_front(&mut self) -> Option<LdIndex> {
        self.order.pop_front()
    }

    /// Removes an index wherever it sits (abort path).
    ///
    /// Returns `true` if the index was present.
    pub fn remove(&mut self, idx: LdIndex) -> bool {
        if let Some(pos) = self.order.iter().position(|&i| i == idx) {
            self.order.remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates indices in enqueue order.
    pub fn iter(&self) -> impl Iterator<Item = LdIndex> + '_ {
        self.order.iter().copied()
    }

    /// Drops all entries (abort/reset path).
    pub fn clear(&mut self) {
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_enqueue_order() {
        let mut ei = EiTable::new(8);
        for i in [3, 1, 4, 1] {
            ei.push(i).unwrap();
        }
        let seq: Vec<_> = ei.iter().collect();
        assert_eq!(seq, vec![3, 1, 4, 1]);
    }

    #[test]
    fn saturation_reports_index_back() {
        let mut ei = EiTable::new(1);
        ei.push(7).unwrap();
        assert_eq!(ei.push(9), Err(9));
        assert_eq!(ei.len(), 1);
    }

    #[test]
    fn remove_from_middle() {
        let mut ei = EiTable::new(4);
        for i in [1, 2, 3] {
            ei.push(i).unwrap();
        }
        assert!(ei.remove(2));
        assert!(!ei.remove(2), "already gone");
        let seq: Vec<_> = ei.iter().collect();
        assert_eq!(seq, vec![1, 3]);
    }

    #[test]
    fn front_and_pop() {
        let mut ei = EiTable::new(2);
        assert_eq!(ei.front(), None);
        ei.push(5).unwrap();
        assert_eq!(ei.front(), Some(5));
        assert_eq!(ei.pop_front(), Some(5));
        assert!(ei.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut ei = EiTable::new(2);
        ei.push(1).unwrap();
        ei.clear();
        assert!(ei.is_empty());
        assert_eq!(ei.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_capacity_rejected() {
        let _ = EiTable::new(0);
    }
}
