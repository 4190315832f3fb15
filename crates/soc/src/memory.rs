//! A DRAM-controller-like AXI subordinate.
//!
//! [`MemSub`] accepts multiple outstanding transactions, stores write
//! data in a sparse word map, and answers reads from the same map (or a
//! deterministic address-derived pattern for untouched words, so read
//! data is always verifiable). Latencies are configurable to emulate
//! anything from an SRAM to a busy DRAM channel.

use axi4::hash::FoldHashMap;

use crate::subordinate::{Store, Subordinate, Timing};

/// Latency/throughput knobs of the memory model.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Idle cycles between the `WLAST` handshake and `b_valid`.
    pub b_latency: u64,
    /// Idle cycles between AR acceptance and the first `r_valid`.
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

impl From<MemConfig> for Timing {
    /// A write counts against `max_inflight` until its B response fires.
    fn from(cfg: MemConfig) -> Self {
        Timing {
            aw_depth: cfg.max_inflight,
            write_depth: cfg.max_inflight,
            ar_depth: cfg.max_inflight,
            b_latency: cfg.b_latency,
            r_warmup: cfg.r_warmup,
            r_beat_gap: cfg.r_beat_gap,
            pace_on: 0,
            pace_off: 0,
        }
    }
}

/// Deterministic pattern for never-written words, so read paths are
/// verifiable without priming memory.
#[must_use]
pub fn pattern_word(addr: u64) -> u64 {
    addr ^ 0xDEAD_BEEF_CAFE_F00D
}

/// The memory's store: a sparse word map in which a never-written word
/// reads as [`pattern_word`] and a W beat merges its strobed byte lanes.
#[derive(Debug, Default)]
pub struct WordMap(FoldHashMap<u64, u64>);

impl Store for WordMap {
    #[inline]
    fn read_word(&self, addr: u64) -> u64 {
        self.0
            .get(&addr)
            .copied()
            .unwrap_or_else(|| pattern_word(addr))
    }

    #[inline]
    fn write_word(&mut self, addr: u64, data: u64, strb: u8) {
        if strb == 0xff {
            self.0.insert(addr, data);
        } else if strb != 0 {
            let mask = (0..8)
                .filter(|lane| strb & (1 << lane) != 0)
                .fold(0u64, |mask, lane| mask | 0xff << (lane * 8));
            let merged = (self.read_word(addr) & !mask) | (data & mask);
            self.0.insert(addr, merged);
        }
    }
}

/// The memory subordinate. See the [module docs](self).
pub type MemSub = Subordinate<WordMap>;

impl MemSub {
    /// A memory with configuration `cfg`.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        Subordinate::with_store(cfg.into(), WordMap::default())
    }

    /// Reads a 64-bit word the model currently holds at `addr`
    /// (test/scoreboard access).
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        self.store.read_word(addr)
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
}

impl Default for MemSub {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::prelude::*;

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
