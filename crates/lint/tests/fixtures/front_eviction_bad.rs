//! Fixture: front-eviction violations.
//! Exercised by `tests/fixtures_fire.rs`; never compiled.

use std::collections::VecDeque;

/// A bounded log kept in a `Vec`: both front operations shift it.
pub struct Log {
    entries: Vec<u64>,
    queue: VecDeque<u64>,
}

impl Log {
    /// Evicts the oldest entry the O(n) way.
    pub fn push(&mut self, v: u64) {
        if self.entries.len() == 8 {
            self.entries.remove(0);
        }
        self.entries.push(v);
    }

    /// Prepends the O(n) way.
    pub fn push_oldest(&mut self, v: u64) {
        self.entries.insert(0, v);
    }

    /// A `VecDeque` front removal: O(1), but the linter cannot tell
    /// without an allowance naming `queue`.
    pub fn pop(&mut self) -> Option<u64> {
        self.queue.remove(0)
    }

    /// These are all fine and must NOT fire.
    pub fn fine(&mut self, i: usize) {
        self.entries.remove(i);
        self.entries.remove(1);
        self.entries.insert(1, 0);
        self.entries.swap_remove(0);
        self.queue.pop_front();
    }
}

#[cfg(test)]
mod tests {
    /// Test code is exempt from the lint.
    #[test]
    fn front_removal_in_tests_is_fine() {
        let mut v = vec![1, 2];
        v.remove(0);
        assert_eq!(v, [2]);
    }
}
