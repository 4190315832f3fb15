//! The Linked-Data (LD) table: per-transaction storage.
//!
//! Each outstanding transaction occupies one LD row holding its tracker
//! state (the generic `S` — write or read tracker) plus the `next` link
//! that threads rows of the same unique ID into the per-ID FIFO the HT
//! table heads point at. Rows are recycled through an intrusive free
//! list, exactly like the hardware's row allocator.

use crate::remap::UniqId;

/// Index of a row in the LD table.
pub type LdIndex = usize;

/// One occupied LD row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdEntry<S> {
    /// Dense unique-ID slot this transaction belongs to.
    pub uid: UniqId,
    /// Guard-specific tracker state (phase, counters, budgets, …).
    pub tracker: S,
    /// Next row of the same unique ID (FIFO order), if any.
    pub next: Option<LdIndex>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Row<S> {
    Free { next_free: Option<LdIndex> },
    Used(LdEntry<S>),
}

/// Fixed-capacity row storage with an intrusive free list.
///
/// ```
/// use tmu::ott::LdTable;
///
/// let mut ld: LdTable<&str> = LdTable::new(2);
/// let a = ld.alloc(0, "txn-a").expect("2-row table has a free row");
/// let b = ld.alloc(1, "txn-b").expect("one row still free");
/// assert!(ld.alloc(0, "txn-c").is_none(), "table full");
/// ld.free(a);
/// assert!(ld.alloc(0, "txn-c").is_some());
/// assert_eq!(ld.get(b).expect("b was never freed").tracker, "txn-b");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdTable<S> {
    rows: Vec<Row<S>>,
    free_head: Option<LdIndex>,
    used: usize,
}

impl<S> LdTable<S> {
    /// A table with `capacity` rows (the `MaxOutstdTxns` parameter).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LD table needs at least one row");
        let rows = (0..capacity)
            .map(|i| Row::Free {
                next_free: if i + 1 < capacity { Some(i + 1) } else { None },
            })
            .collect();
        LdTable {
            rows,
            free_head: Some(0),
            used: 0,
        }
    }

    /// Total rows.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Occupied rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no rows are occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// True when every row is occupied (new transactions must stall).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.free_head.is_none()
    }

    /// Allocates a row for a transaction of `uid`, returning its index,
    /// or `None` when the table is saturated.
    pub fn alloc(&mut self, uid: UniqId, tracker: S) -> Option<LdIndex> {
        let idx = self.free_head?;
        let Row::Free { next_free } = self.rows[idx] else {
            unreachable!("free list points at a used row");
        };
        self.free_head = next_free;
        self.rows[idx] = Row::Used(LdEntry {
            uid,
            tracker,
            next: None,
        });
        self.used += 1;
        Some(idx)
    }

    /// Frees row `idx`, returning its entry.
    ///
    /// # Panics
    ///
    /// Panics if the row is already free (caller bookkeeping bug).
    pub fn free(&mut self, idx: LdIndex) -> LdEntry<S> {
        let row = std::mem::replace(
            &mut self.rows[idx],
            Row::Free {
                next_free: self.free_head,
            },
        );
        let Row::Used(entry) = row else {
            unreachable!(
                "double free of LD row {idx}: head-tail and linked-data tables out of sync"
            );
        };
        self.free_head = Some(idx);
        self.used -= 1;
        entry
    }

    /// Shared access to row `idx`.
    #[must_use]
    pub fn get(&self, idx: LdIndex) -> Option<&LdEntry<S>> {
        match self.rows.get(idx) {
            Some(Row::Used(e)) => Some(e),
            _ => None,
        }
    }

    /// Exclusive access to row `idx`.
    pub fn get_mut(&mut self, idx: LdIndex) -> Option<&mut LdEntry<S>> {
        match self.rows.get_mut(idx) {
            Some(Row::Used(e)) => Some(e),
            _ => None,
        }
    }

    /// Iterates `(index, entry)` over occupied rows in index order.
    pub fn iter(&self) -> impl Iterator<Item = (LdIndex, &LdEntry<S>)> {
        self.rows.iter().enumerate().filter_map(|(i, r)| match r {
            Row::Used(e) => Some((i, e)),
            Row::Free { .. } => None,
        })
    }

    /// Iterates `(index, entry)` mutably over occupied rows.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LdIndex, &mut LdEntry<S>)> {
        self.rows
            .iter_mut()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Row::Used(e) => Some((i, e)),
                Row::Free { .. } => None,
            })
    }

    /// Frees every row (abort/reset path).
    pub fn clear(&mut self) {
        let capacity = self.rows.len();
        self.rows = (0..capacity)
            .map(|i| Row::Free {
                next_free: if i + 1 < capacity { Some(i + 1) } else { None },
            })
            .collect();
        self.free_head = Some(0);
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_full_then_stall() {
        let mut ld: LdTable<u32> = LdTable::new(3);
        let idx: Vec<_> = (0..3).map(|i| ld.alloc(0, i).unwrap()).collect();
        assert_eq!(idx.len(), 3);
        assert!(ld.is_full());
        assert_eq!(ld.alloc(0, 99), None);
        assert_eq!(ld.len(), 3);
    }

    #[test]
    fn free_recycles_lifo() {
        let mut ld: LdTable<u32> = LdTable::new(2);
        let a = ld.alloc(0, 1).unwrap();
        let _b = ld.alloc(0, 2).unwrap();
        let entry = ld.free(a);
        assert_eq!(entry.tracker, 1);
        let c = ld.alloc(1, 3).unwrap();
        assert_eq!(c, a, "most recently freed row is reused first");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut ld: LdTable<u32> = LdTable::new(1);
        let a = ld.alloc(0, 1).unwrap();
        ld.free(a);
        ld.free(a);
    }

    #[test]
    fn get_and_get_mut() {
        let mut ld: LdTable<u32> = LdTable::new(2);
        let a = ld.alloc(7, 10).unwrap();
        assert_eq!(ld.get(a).unwrap().uid, 7);
        ld.get_mut(a).unwrap().tracker = 11;
        assert_eq!(ld.get(a).unwrap().tracker, 11);
        assert!(ld.get(1).is_none(), "free row yields None");
        assert!(ld.get(99).is_none(), "out of range yields None");
    }

    #[test]
    fn iter_visits_only_used() {
        let mut ld: LdTable<u32> = LdTable::new(4);
        let a = ld.alloc(0, 1).unwrap();
        let b = ld.alloc(0, 2).unwrap();
        ld.free(a);
        let visited: Vec<_> = ld.iter().map(|(i, _)| i).collect();
        assert_eq!(visited, vec![b]);
        for (_, e) in ld.iter_mut() {
            e.tracker += 1;
        }
        assert_eq!(ld.get(b).unwrap().tracker, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut ld: LdTable<u32> = LdTable::new(2);
        ld.alloc(0, 1).unwrap();
        ld.alloc(0, 2).unwrap();
        ld.clear();
        assert!(ld.is_empty());
        assert!(!ld.is_full());
        assert_eq!(ld.alloc(0, 3), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_capacity_rejected() {
        let _: LdTable<u32> = LdTable::new(0);
    }
}
