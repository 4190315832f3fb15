//! The one AXI subordinate pipeline behind [`MemSub`](crate::memory::MemSub)
//! and [`EthSub`](crate::ethernet::EthSub).
//!
//! [`Subordinate`] accepts writes and reads up to per-direction depths,
//! absorbs W beats into a [`Store`] and answers each direction in order
//! after a configurable latency. The models differ only in their store
//! and in the timing record their config converts into; the pipeline
//! never asks which model it is running.
//!
//! Timers advance at the start of a commit, so an entry queued in a
//! commit keeps its full delay: a B response with latency `b_latency`
//! leaves `b_latency` idle cycles between the last W beat and `b_valid`,
//! and a read reaching the head of the queue with warm-up `r_warmup`
//! leaves `r_warmup` idle cycles before its first beat.

use std::collections::VecDeque;

use axi4::burst::beat_address;
use axi4::prelude::*;

use crate::link::AxiSubordinate;

#[cfg(test)]
mod reference;

/// Where a subordinate keeps the data its W beats write and its R beats
/// read.
pub trait Store {
    /// The word held at byte address `addr`.
    fn read_word(&self, addr: u64) -> u64;
    /// Absorbs one W beat's `data`, with byte strobes `strb`, at `addr`.
    fn write_word(&mut self, addr: u64, data: u64, strb: u8);
}

/// The accept and response timing of one subordinate, the fields a
/// model's config converts into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timing {
    /// Writes awaiting data before AW stalls.
    pub(crate) aw_depth: usize,
    /// Writes awaiting data plus queued B responses before AW stalls.
    pub(crate) write_depth: usize,
    /// Reads in flight before AR stalls.
    pub(crate) ar_depth: usize,
    /// Idle cycles between the last W beat and `b_valid`.
    pub(crate) b_latency: u64,
    /// Idle cycles between a read reaching the head of the queue and its
    /// first `r_valid`.
    pub(crate) r_warmup: u64,
    /// Idle cycles between consecutive R beats of one burst.
    pub(crate) r_beat_gap: u64,
    /// `w_ready` is high `pace_on` cycles out of every
    /// `pace_on + pace_off`.
    pub(crate) pace_on: u64,
    /// See [`Self::pace_on`]. Zero never paces.
    pub(crate) pace_off: u64,
}

/// An accepted write. The first `b_queued` jobs of the queue have all
/// their data and wait for their B response.
#[derive(Debug)]
struct WriteJob {
    aw: AwBeat,
    beats_done: u16,
    /// The commit count from which `b_valid` is driven, set when the
    /// last W beat is absorbed.
    b_due: u64,
}

#[derive(Debug)]
struct ReadJob {
    ar: ArBeat,
    beats_done: u16,
    /// Commits at the head of the queue before the next R beat is
    /// driven: the warm-up, then the beat gap after each beat.
    wait: u64,
    /// Data of the R beat on the wires, latched when first driven: AXI
    /// requires a beat waiting for `ready` to stay stable, even if a
    /// write to the same word commits meanwhile.
    r_data: Option<u64>,
}

/// One AXI subordinate over the store `S`. See the [module docs](self).
#[derive(Debug)]
pub struct Subordinate<S> {
    timing: Timing,
    pub(crate) store: S,
    writes: VecDeque<WriteJob>,
    b_queued: usize,
    reads: VecDeque<ReadJob>,
    pace: u64,
    /// Commits so far, the clock of [`WriteJob::b_due`].
    commits: u64,
    pub(crate) beats_written: u64,
    pub(crate) beats_read: u64,
    pub(crate) bursts_written: u64,
    pub(crate) resets: u64,
}

impl<S: Store> Subordinate<S> {
    pub(crate) fn with_store(timing: Timing, store: S) -> Self {
        Subordinate {
            timing,
            store,
            writes: VecDeque::new(),
            b_queued: 0,
            reads: VecDeque::new(),
            pace: 0,
            commits: 0,
            beats_written: 0,
            beats_read: 0,
            bursts_written: 0,
            resets: 0,
        }
    }

    /// Accepted writes still awaiting data.
    pub(crate) fn writes_awaiting_data(&self) -> usize {
        self.writes.len() - self.b_queued
    }

    /// Accepted reads not yet fully answered.
    pub(crate) fn reads_in_flight(&self) -> usize {
        self.reads.len()
    }

    /// Drive pass: subordinate-side wires of `port`.
    pub fn drive(&mut self, port: &mut AxiPort) {
        let t = &self.timing;
        let awaiting_data = self.writes_awaiting_data();
        port.aw
            .set_ready(awaiting_data < t.aw_depth && self.writes.len() < t.write_depth);
        port.ar.set_ready(self.reads.len() < t.ar_depth);
        port.w
            .set_ready(awaiting_data > 0 && (t.pace_off == 0 || self.pace < t.pace_on));
        if let Some(job) = self.writes.front() {
            if self.b_queued > 0 && job.b_due <= self.commits {
                port.b.drive(BBeat::new(job.aw.id, Resp::Okay));
            }
        }
        if let Some(job) = self.reads.front_mut() {
            if job.wait == 0 {
                let (ar, idx, store) = (job.ar, job.beats_done, &self.store);
                let data = *job.r_data.get_or_insert_with(|| {
                    store.read_word(beat_address(ar.addr, ar.size, ar.len, ar.burst, idx).0)
                });
                let last = idx + 1 == ar.len.beats();
                port.r.drive(RBeat::new(ar.id, data, Resp::Okay, last));
            }
        }
    }

    /// Commit pass: advances timers, then absorbs fired handshakes.
    ///
    /// # Panics
    ///
    /// Panics only if a data beat fires with no write awaiting data or
    /// no read in flight — an internal invariant violation (a bug in the
    /// monitor, not a caller error).
    pub fn commit(&mut self, port: &AxiPort) {
        let t = self.timing;
        self.commits += 1;
        if let Some(job) = self.reads.front_mut() {
            job.wait = job.wait.saturating_sub(1);
        }
        if t.pace_off > 0 {
            self.pace = (self.pace + 1) % (t.pace_on + t.pace_off);
        }
        if let Some(aw) = port.aw.fired_beat() {
            self.writes.push_back(WriteJob {
                aw: *aw,
                beats_done: 0,
                b_due: 0,
            });
        }
        if let Some(w) = port.w.fired_beat() {
            let job = self
                .writes
                .get_mut(self.b_queued)
                .expect("W fired with a write awaiting data");
            let aw = job.aw;
            let addr = beat_address(aw.addr, aw.size, aw.len, aw.burst, job.beats_done);
            job.beats_done += 1;
            if job.beats_done == aw.len.beats() || w.last {
                job.b_due = self.commits.saturating_add(t.b_latency);
                self.b_queued += 1;
                self.bursts_written += 1;
            }
            self.store.write_word(addr.0, w.data, w.strb);
            self.beats_written += 1;
        }
        if port.b.fires() && self.b_queued > 0 {
            self.writes.pop_front();
            self.b_queued -= 1;
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.reads.push_back(ReadJob {
                ar: *ar,
                beats_done: 0,
                wait: t.r_warmup,
                r_data: None,
            });
        }
        if port.r.fires() {
            self.beats_read += 1;
            let job = self
                .reads
                .front_mut()
                .expect("R fired with a read in flight");
            job.beats_done += 1;
            job.r_data = None;
            if job.beats_done == job.ar.len.beats() {
                self.reads.pop_front();
            } else {
                job.wait = t.r_beat_gap;
            }
        }
    }

    /// Hardware reset input: drops all in-flight work and pacing state.
    /// The store keeps its contents, like a controller reset in front of
    /// retained DRAM.
    pub fn reset(&mut self) {
        self.writes.clear();
        self.b_queued = 0;
        self.reads.clear();
        self.pace = 0;
        self.resets += 1;
    }
}

impl<S: Store> AxiSubordinate for Subordinate<S> {
    fn drive(&mut self, port: &mut AxiPort) {
        Subordinate::drive(self, port);
    }

    fn commit(&mut self, port: &AxiPort) {
        Subordinate::commit(self, port);
    }

    fn reset(&mut self) {
        Subordinate::reset(self);
    }
}
