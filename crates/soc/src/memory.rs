//! A DRAM-controller-like AXI subordinate.
//!
//! [`MemSub`] accepts multiple outstanding transactions, stores write
//! data in a sparse word map, and answers reads from the same map (or a
//! deterministic address-derived pattern for untouched words, so read
//! data is always verifiable). Latencies are configurable to emulate
//! anything from an SRAM to a busy DRAM channel.

use std::collections::VecDeque;

use axi4::burst::beat_address;
use axi4::hash::FoldHashMap;
use axi4::prelude::*;

/// Latency/throughput knobs of the memory model.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Cycles from `WLAST` to `b_valid`.
    pub b_latency: u64,
    /// Cycles from AR acceptance to the first `r_valid`.
    pub r_warmup: u64,
    /// Extra cycles between consecutive R beats (0 = streaming).
    pub r_beat_gap: u64,
    /// Maximum accepted-but-unfinished transactions per direction before
    /// the address channels stall.
    pub max_inflight: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            b_latency: 4,
            r_warmup: 8,
            r_beat_gap: 0,
            max_inflight: 8,
        }
    }
}

/// Deterministic pattern for never-written words, so read paths are
/// verifiable without priming memory.
#[must_use]
pub fn pattern_word(addr: u64) -> u64 {
    addr ^ 0xDEAD_BEEF_CAFE_F00D
}

/// The word `store` holds at `addr`, or the pattern if never written.
fn stored_word(store: &FoldHashMap<u64, u64>, addr: u64) -> u64 {
    store
        .get(&addr)
        .copied()
        .unwrap_or_else(|| pattern_word(addr))
}

#[derive(Debug)]
struct WriteJob {
    aw: AwBeat,
    beats_done: u16,
}

#[derive(Debug)]
struct BJob {
    id: AxiId,
    delay: u64,
}

#[derive(Debug)]
struct ReadJob {
    ar: ArBeat,
    beats_done: u16,
    warmup: u64,
    gap: u64,
    /// Data of the R beat on the wires, latched when first driven: AXI
    /// requires a beat waiting for `ready` to stay stable, even if a
    /// write to the same word commits meanwhile.
    r_data: Option<u64>,
}

/// The memory subordinate. See the [module docs](self).
#[derive(Debug)]
pub struct MemSub {
    cfg: MemConfig,
    store: FoldHashMap<u64, u64>,
    writes: VecDeque<WriteJob>,
    b_queue: VecDeque<BJob>,
    reads: VecDeque<ReadJob>,
    beats_written: u64,
    beats_read: u64,
}

impl MemSub {
    /// A memory with configuration `cfg`.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        MemSub {
            cfg,
            store: FoldHashMap::default(),
            writes: VecDeque::new(),
            b_queue: VecDeque::new(),
            reads: VecDeque::new(),
            beats_written: 0,
            beats_read: 0,
        }
    }

    /// Reads a 64-bit word the model currently holds at `addr`
    /// (test/scoreboard access).
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        stored_word(&self.store, addr)
    }

    /// Total W beats absorbed.
    #[must_use]
    pub fn beats_written(&self) -> u64 {
        self.beats_written
    }

    /// Total R beats produced.
    #[must_use]
    pub fn beats_read(&self) -> u64 {
        self.beats_read
    }

    fn write_inflight(&self) -> usize {
        self.writes.len() + self.b_queue.len()
    }

    /// Drive pass: subordinate-side wires of `port`.
    pub fn drive(&mut self, port: &mut AxiPort) {
        port.aw
            .set_ready(self.write_inflight() < self.cfg.max_inflight);
        port.ar.set_ready(self.reads.len() < self.cfg.max_inflight);
        port.w.set_ready(!self.writes.is_empty());
        if let Some(b) = self.b_queue.front() {
            if b.delay == 0 {
                port.b.drive(BBeat::new(b.id, Resp::Okay));
            }
        }
        if let Some(job) = self.reads.front_mut() {
            if job.warmup == 0 && job.gap == 0 {
                let idx = job.beats_done;
                let data = *job.r_data.get_or_insert_with(|| {
                    let addr =
                        beat_address(job.ar.addr, job.ar.size, job.ar.len, job.ar.burst, idx);
                    stored_word(&self.store, addr.0)
                });
                let last = idx + 1 == job.ar.len.beats();
                port.r.drive(RBeat::new(job.ar.id, data, Resp::Okay, last));
            }
        }
    }

    /// Commit pass: absorbs fired handshakes and advances timers.
    ///
    /// # Panics
    ///
    /// Panics only if a data beat fires with no pending read job — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn commit(&mut self, port: &AxiPort) {
        // Timers advance first so entries queued in this commit keep
        // their full delay.
        for b in &mut self.b_queue {
            b.delay = b.delay.saturating_sub(1);
        }
        if let Some(job) = self.reads.front_mut() {
            if job.warmup > 0 {
                job.warmup -= 1;
            } else if job.gap > 0 && !port.r.fires() {
                job.gap -= 1;
            }
        }
        if let Some(aw) = port.aw.fired_beat() {
            self.writes.push_back(WriteJob {
                aw: *aw,
                beats_done: 0,
            });
        }
        if let Some(w) = port.w.fired_beat() {
            let w = *w;
            let (addr, job_done, job_id) = {
                let job = self
                    .writes
                    .front_mut()
                    .expect("W fired with a write in flight");
                let idx = job.beats_done;
                let addr = beat_address(job.aw.addr, job.aw.size, job.aw.len, job.aw.burst, idx);
                job.beats_done += 1;
                (
                    addr,
                    job.beats_done == job.aw.len.beats() || w.last,
                    job.aw.id,
                )
            };
            if w.strb == 0xff {
                self.store.insert(addr.0, w.data);
            } else if w.strb != 0 {
                // Partial strobes: merge byte lanes.
                let old = self.word(addr.0);
                let mut merged = old;
                for lane in 0..8 {
                    if w.strb & (1 << lane) != 0 {
                        let mask = 0xffu64 << (lane * 8);
                        merged = (merged & !mask) | (w.data & mask);
                    }
                }
                self.store.insert(addr.0, merged);
            }
            self.beats_written += 1;
            if job_done {
                self.writes.pop_front().expect("front exists");
                self.b_queue.push_back(BJob {
                    id: job_id,
                    delay: self.cfg.b_latency,
                });
            }
        }
        if port.b.fires() {
            self.b_queue.pop_front();
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.reads.push_back(ReadJob {
                ar: *ar,
                beats_done: 0,
                warmup: self.cfg.r_warmup,
                gap: 0,
                r_data: None,
            });
        }
        if port.r.fires() {
            self.beats_read += 1;
            let gap = self.cfg.r_beat_gap;
            let job = self
                .reads
                .front_mut()
                .expect("R fired with a read in flight");
            job.beats_done += 1;
            job.r_data = None;
            if job.beats_done == job.ar.len.beats() {
                self.reads.pop_front();
            } else {
                job.gap = gap;
            }
        }
    }

    /// Hardware reset: drops all in-flight work (contents persist, like
    /// a controller reset in front of retained DRAM).
    pub fn reset(&mut self) {
        self.writes.clear();
        self.b_queue.clear();
        self.reads.clear();
    }
}

impl Default for MemSub {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one full write transaction through the memory and returns
    /// cycles taken until B.
    fn do_write(mem: &mut MemSub, id: u16, addr: u64, data: &[u64]) -> u64 {
        let txn = TxnBuilder::new(AxiId(id), Addr(addr))
            .incr(data.len() as u16)
            .write(data.to_vec())
            .unwrap();
        let mut port = AxiPort::new();
        let mut aw_done = false;
        let mut sent = 0u16;
        let mut cycles = 0;
        loop {
            port.begin_cycle();
            if !aw_done {
                port.aw.drive(txn.aw_beat());
            } else if sent < txn.beats() {
                port.w.drive(txn.w_beat(sent));
            }
            port.b.set_ready(true);
            mem.drive(&mut port);
            if port.aw.fires() {
                aw_done = true;
            }
            if port.w.fires() {
                sent += 1;
            }
            let done = port.b.fires();
            mem.commit(&port);
            cycles += 1;
            assert!(cycles < 1000, "write never completed");
            if done {
                return cycles;
            }
        }
    }

    /// Drives one full read and returns the data beats.
    fn do_read(mem: &mut MemSub, id: u16, addr: u64, beats: u16) -> Vec<u64> {
        let txn = TxnBuilder::new(AxiId(id), Addr(addr))
            .incr(beats)
            .read()
            .unwrap();
        let mut port = AxiPort::new();
        let mut ar_done = false;
        let mut out = Vec::new();
        let mut cycles = 0;
        loop {
            port.begin_cycle();
            if !ar_done {
                port.ar.drive(txn.ar_beat());
            }
            port.r.set_ready(true);
            mem.drive(&mut port);
            if port.ar.fires() {
                ar_done = true;
            }
            let fired = port.r.fired_beat().copied();
            mem.commit(&port);
            if let Some(r) = fired {
                out.push(r.data);
                if r.last {
                    return out;
                }
            }
            cycles += 1;
            assert!(cycles < 1000, "read never completed");
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut mem = MemSub::default();
        do_write(&mut mem, 1, 0x100, &[10, 20, 30, 40]);
        let data = do_read(&mut mem, 2, 0x100, 4);
        assert_eq!(data, vec![10, 20, 30, 40]);
        assert_eq!(mem.beats_written(), 4);
        assert_eq!(mem.beats_read(), 4);
    }

    #[test]
    fn unwritten_words_follow_pattern() {
        let mut mem = MemSub::default();
        let data = do_read(&mut mem, 0, 0x2000, 2);
        assert_eq!(data, vec![pattern_word(0x2000), pattern_word(0x2008)]);
    }

    #[test]
    fn b_latency_is_respected() {
        let fast = do_write(
            &mut MemSub::new(MemConfig {
                b_latency: 0,
                ..MemConfig::default()
            }),
            0,
            0,
            &[1],
        );
        let slow = do_write(
            &mut MemSub::new(MemConfig {
                b_latency: 20,
                ..MemConfig::default()
            }),
            0,
            0,
            &[1],
        );
        assert!(slow >= fast + 20, "fast={fast} slow={slow}");
    }

    #[test]
    fn partial_strobes_merge_lanes() {
        let mut mem = MemSub::default();
        do_write(&mut mem, 0, 0x40, &[0x1111_2222_3333_4444]);
        // Hand-drive a single-beat write with only the low 4 lanes on.
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(AwBeat::new(
            AxiId(0),
            Addr(0x40),
            BurstLen::SINGLE,
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        mem.drive(&mut port);
        mem.commit(&port);
        port.begin_cycle();
        port.w
            .drive(WBeat::with_strobes(0xAAAA_BBBB_CCCC_DDDD, 0x0f, true));
        mem.drive(&mut port);
        mem.commit(&port);
        assert_eq!(mem.word(0x40), 0x1111_2222_CCCC_DDDD);
    }

    #[test]
    fn backpressure_when_inflight_cap_reached() {
        let mut mem = MemSub::new(MemConfig {
            max_inflight: 1,
            b_latency: 100,
            ..MemConfig::default()
        });
        // Fill the single write slot.
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(AwBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::SINGLE,
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        mem.drive(&mut port);
        assert!(port.aw.fires());
        mem.commit(&port);
        // Next AW must stall.
        port.begin_cycle();
        port.aw.drive(AwBeat::new(
            AxiId(1),
            Addr(8),
            BurstLen::SINGLE,
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        mem.drive(&mut port);
        assert!(!port.aw.fires(), "inflight cap must stall AW");
    }

    #[test]
    fn r_beat_gap_paces_stream() {
        let mut fast_mem = MemSub::new(MemConfig {
            r_beat_gap: 0,
            r_warmup: 0,
            ..MemConfig::default()
        });
        let mut slow_mem = MemSub::new(MemConfig {
            r_beat_gap: 3,
            r_warmup: 0,
            ..MemConfig::default()
        });
        // Measure cycles for an 8-beat read on each.
        let t0 = {
            let mut cycles = 0u64;
            let data = do_read(&mut fast_mem, 0, 0, 8);
            cycles += data.len() as u64;
            cycles
        };
        let _ = t0;
        let mut port = AxiPort::new();
        let txn = TxnBuilder::new(AxiId(0), Addr(0)).incr(8).read().unwrap();
        let mut ar_done = false;
        let mut beats = 0;
        let mut cycles = 0u64;
        while beats < 8 {
            port.begin_cycle();
            if !ar_done {
                port.ar.drive(txn.ar_beat());
            }
            port.r.set_ready(true);
            slow_mem.drive(&mut port);
            if port.ar.fires() {
                ar_done = true;
            }
            if port.r.fires() {
                beats += 1;
            }
            slow_mem.commit(&port);
            cycles += 1;
            assert!(cycles < 200);
        }
        assert!(cycles >= 8 * 4 - 3, "gap of 3 spreads beats: {cycles}");
    }

    #[test]
    fn reset_drops_inflight_work() {
        let mut mem = MemSub::default();
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(AwBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::from_beats(4).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        mem.drive(&mut port);
        mem.commit(&port);
        mem.reset();
        port.begin_cycle();
        mem.drive(&mut port);
        assert!(!port.w.ready(), "no write in flight after reset");
    }
}
