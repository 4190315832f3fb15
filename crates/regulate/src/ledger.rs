//! The regulator's ledger of open transactions, one per direction.
//!
//! Isolating a manager needs to know what it still has in flight: which
//! transactions to answer with `SLVERR`, how many beats each read still
//! owes, and whether an address beat was being offered at the moment of
//! the sever. The ledger keeps exactly that — raw ID and owed beats per
//! transaction, in allocation order — and nothing a timeout monitor
//! would add on top.
//!
//! It also sizes the port the way a TMU's outstanding-transaction table
//! does, through the TMU's own [`IdRemapper`]: admission of a new address
//! stalls while `max_uniq_ids` distinct IDs are live
//! ([`RemapStall::SlotsExhausted`](tmu::remap::RemapStall)), or
//! `txn_per_id` transactions are live for the offered ID
//! ([`RemapStall::PerIdQuotaFull`](tmu::remap::RemapStall)).
//!
//! Bookkeeping follows the TMU guards' commit order:
//!
//! 1. an offered (not credit-denied, not stalled) address allocates an
//!    entry, which stays *pending* until its handshake fires — at most
//!    one entry is pending, and it is always the newest. The stall is a
//!    pure function of this committed state ([`Ledger::decide_stall`]),
//!    which the commit's own admission test ([`Ledger::admits`]) repeats;
//! 2. a fired address handshake clears the pending mark;
//! 3. a response beat taken by the manager is charged to the oldest open
//!    entry of its ID; a pending entry never retires. Writes retire on
//!    their B, reads on `RLAST` or on their final beat.

use axi4::AxiId;
use tmu::guard::{AbortSet, AbortTxn};
use tmu::remap::IdRemapper;

use crate::config::RegulatorConfig;

/// One open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Open {
    /// Raw AXI ID.
    pub(crate) id: u16,
    /// Beats still owed: the R beats of a read; the W beats of a write
    /// (only consulted while its address is pending).
    pub(crate) beats: u16,
}

/// Open transactions of one direction. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    /// Committed state: open transactions in allocation order.
    open: Vec<Open>,
    /// Committed state: the newest entry's address is offered but not
    /// yet accepted.
    pending: bool,
    /// Committed state: the live IDs and their open-transaction counts,
    /// acquired on allocation and released on retirement.
    remap: IdRemapper,
}

impl Ledger {
    pub(crate) fn new(cfg: &RegulatorConfig) -> Self {
        Ledger {
            open: Vec::with_capacity(cfg.max_uniq_ids() * cfg.txn_per_id() as usize),
            pending: false,
            remap: IdRemapper::new(cfg.max_uniq_ids(), cfg.txn_per_id()),
        }
    }

    /// Open transactions, the pending one included.
    pub(crate) fn len(&self) -> usize {
        self.open.len()
    }

    /// Open transactions whose address was accepted (all but a pending
    /// one): the subordinate owes each its response.
    pub(crate) fn accepted(&self) -> u64 {
        (self.open.len() - usize::from(self.pending)) as u64
    }

    /// Drive pass: whether the address offered with `id` must be held
    /// off this cycle: no room for it, or `hold` (no new address is
    /// admitted at all). An already pending address is never stalled.
    #[inline]
    pub(crate) fn decide_stall(&self, id: Option<u16>, hold: bool) -> bool {
        !self.pending && id.is_some_and(|id| hold || self.remap.probe(AxiId(id)).is_err())
    }

    /// Whether a commit allocates an offered address with `id`: nothing
    /// pending and not stalled. Apart from a fired handshake or a
    /// response beat, the only work [`Ledger::commit`] can do; on a
    /// cycle with none of the three it changes nothing and may be
    /// skipped.
    #[inline]
    pub(crate) fn admits(&self, id: u16, hold: bool) -> bool {
        !self.pending && !hold && self.remap.probe(AxiId(id)).is_ok()
    }

    /// Whether the newest entry's address is offered downstream but not
    /// yet accepted.
    pub(crate) fn pending(&self) -> bool {
        self.pending
    }

    /// Clock commit of the cycle's settled handshakes: the `offered`
    /// address, allocated when [admitted](Ledger::admits) under `hold`,
    /// whether it `fired`, and a `response` beat the manager took (its
    /// ID and whether it closes its transaction: `RLAST`, always for a
    /// B). Allocates, accepts and retires per the module docs' order.
    #[inline]
    pub(crate) fn commit(
        &mut self,
        offered: Option<Open>,
        hold: bool,
        fired: bool,
        response: Option<(u16, bool)>,
    ) {
        if let Some(txn) = offered {
            if !self.pending && !hold && self.remap.acquire(AxiId(txn.id)).is_ok() {
                self.open.push(txn);
                self.pending = true;
            }
        }
        if fired {
            self.pending = false;
        }
        if let Some((id, last)) = response {
            self.respond(id, last);
        }
    }

    /// Charges one response beat to the oldest open entry of `id`.
    fn respond(&mut self, id: u16, last: bool) {
        let Some(at) = self.open.iter().position(|t| t.id == id) else {
            return;
        };
        if self.pending && at + 1 == self.open.len() {
            return;
        }
        let txn = &mut self.open[at];
        txn.beats = txn.beats.saturating_sub(1);
        if last || txn.beats == 0 {
            self.open.remove(at);
            let uid = self
                .remap
                .lookup(AxiId(id))
                .expect("an open entry's ID holds a remap slot");
            self.remap.release(uid);
        }
    }

    /// The abort obligations of every open transaction, in allocation
    /// order: `responses(txn)` `SLVERR` beats each, plus `drain_w_beats`
    /// residual W beats.
    pub(crate) fn abort_set(&self, drain_w_beats: u64, responses: fn(&Open) -> u16) -> AbortSet {
        AbortSet {
            responses: self
                .open
                .iter()
                .map(|txn| AbortTxn {
                    id: AxiId(txn.id),
                    beats_remaining: responses(txn),
                })
                .collect(),
            drain_w_beats,
            accept_pending_addr: self.pending,
        }
    }

    /// The committed state: open entries, the pending mark and the live
    /// ID counts.
    #[cfg(test)]
    pub(crate) fn committed(&self) -> (&[Open], bool, &IdRemapper) {
        (&self.open, self.pending, &self.remap)
    }

    /// Forgets every open transaction (the sever hands them to the
    /// terminator).
    pub(crate) fn reset(&mut self) {
        self.open.clear();
        self.pending = false;
        self.remap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(ids: usize, per_id: u32) -> Ledger {
        Ledger::new(
            &RegulatorConfig::builder()
                .max_uniq_ids(ids)
                .txn_per_id(per_id)
                .build()
                .expect("small ledger sizing is valid"),
        )
    }

    /// Offers and accepts one transaction in a single cycle.
    fn issue(l: &mut Ledger, id: u16, beats: u16) {
        assert!(!l.decide_stall(Some(id), false));
        l.commit(Some(Open { id, beats }), false, true, None);
    }

    #[test]
    fn admission_stalls_on_id_and_per_id_capacity() {
        let mut l = ledger(2, 2);
        issue(&mut l, 1, 1);
        issue(&mut l, 1, 1);
        assert!(l.decide_stall(Some(1), false), "per-ID quota full");
        issue(&mut l, 2, 1);
        assert!(l.decide_stall(Some(3), false), "both ID slots live");
        l.commit(None, false, false, Some((1, true)));
        assert!(!l.decide_stall(Some(1), false));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn responses_retire_the_oldest_entry_of_their_id() {
        let mut l = ledger(4, 4);
        issue(&mut l, 7, 3);
        issue(&mut l, 7, 1);
        // Two beats of the first read, then an early RLAST.
        for last in [false, false] {
            l.commit(None, false, false, Some((7, last)));
        }
        assert_eq!(l.len(), 2);
        let set = l.abort_set(0, |t| t.beats.max(1));
        assert_eq!(set.responses[0].beats_remaining, 1);
        l.commit(None, false, false, Some((7, true)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn an_address_waiting_while_pending_is_quiet() {
        let mut l = ledger(4, 4);
        assert!(!l.decide_stall(Some(2), false));
        assert!(l.admits(2, false), "the first offer allocates");
        assert!(!l.admits(2, true), "held: no allocation");
        l.commit(Some(Open { id: 2, beats: 1 }), false, false, None);
        assert!(!l.decide_stall(Some(2), false));
        assert!(!l.admits(2, false), "already pending: no allocation");
        l.commit(Some(Open { id: 2, beats: 1 }), false, true, None);
        assert!(l.admits(2, false), "accepted: the next offer allocates");
    }

    #[test]
    fn pending_entry_never_retires_and_is_reported_for_abort() {
        let mut l = ledger(4, 4);
        assert!(!l.decide_stall(Some(2), false));
        l.commit(
            Some(Open { id: 2, beats: 4 }),
            false,
            false,
            Some((2, true)),
        );
        assert_eq!(l.len(), 1, "a pending entry never retires");
        assert!(l.pending());
        let set = l.abort_set(4, |_| 1);
        assert!(set.accept_pending_addr);
        assert_eq!(set.drain_w_beats, 4);
        l.reset();
        assert_eq!((l.len(), l.pending()), (0, false));
    }
}
