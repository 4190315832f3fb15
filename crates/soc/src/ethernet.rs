//! An Ethernet-like streaming AXI peripheral.
//!
//! Stands in for the RGMII Ethernet IP of the paper's Fig. 10: a
//! memory-mapped frame buffer whose W channel is paced at "line rate"
//! (a configurable ready duty cycle), with frame accounting and a
//! hardware reset input — the target the TMU guards in the system-level
//! evaluation.

use tmu_telemetry::MetricsHub;

use crate::subordinate::{Store, Subordinate, Timing};

/// Configuration of the Ethernet-like peripheral.
#[derive(Debug, Clone, Copy)]
pub struct EthConfig {
    /// `w_ready` is asserted `pace_on` cycles out of every
    /// `pace_on + pace_off` (models serialization at line rate).
    pub pace_on: u64,
    /// See [`Self::pace_on`]. Zero means full throughput.
    pub pace_off: u64,
    /// Cycles from `WLAST` to the TX completion response (at least one).
    pub tx_latency: u64,
    /// Cycles from AR acceptance to the first RX data beat (at least
    /// one).
    pub rx_warmup: u64,
    /// Frame-buffer capacity in 64-bit words.
    pub buffer_words: usize,
}

impl Default for EthConfig {
    fn default() -> Self {
        EthConfig {
            pace_on: 4,
            pace_off: 1,
            tx_latency: 8,
            rx_warmup: 8,
            buffer_words: 4096,
        }
    }
}

impl From<EthConfig> for Timing {
    /// The latencies count cycles, not idle cycles, hence the minus one.
    /// The peripheral takes at most four writes awaiting data; queued TX
    /// completions do not count against them.
    fn from(cfg: EthConfig) -> Self {
        Timing {
            aw_depth: 4,
            write_depth: usize::MAX,
            ar_depth: 4,
            b_latency: cfg.tx_latency.saturating_sub(1),
            r_warmup: cfg.rx_warmup.saturating_sub(1),
            r_beat_gap: 0,
            pace_on: cfg.pace_on,
            pace_off: cfg.pace_off,
        }
    }
}

/// The peripheral's frame buffer: a ring of 64-bit words indexed by word
/// address modulo its size. A W beat writes the whole word whatever its
/// strobes.
#[derive(Debug)]
pub struct FrameBuffer(Vec<u64>);

impl FrameBuffer {
    fn index(&self, addr: u64) -> usize {
        (addr / 8) as usize % self.0.len()
    }
}

impl Store for FrameBuffer {
    #[inline]
    fn read_word(&self, addr: u64) -> u64 {
        self.0[self.index(addr)]
    }

    #[inline]
    fn write_word(&mut self, addr: u64, data: u64, _strb: u8) {
        let index = self.index(addr);
        self.0[index] = data;
    }
}

/// The Ethernet-like subordinate. See the [module docs](self).
pub type EthSub = Subordinate<FrameBuffer>;

impl EthSub {
    /// A peripheral with configuration `cfg`.
    #[must_use]
    pub fn new(cfg: EthConfig) -> Self {
        Subordinate::with_store(cfg.into(), FrameBuffer(vec![0; cfg.buffer_words]))
    }

    /// Complete frames transmitted (write bursts fully absorbed).
    #[must_use]
    pub fn frames_txed(&self) -> u64 {
        self.bursts_written
    }

    /// W beats absorbed.
    #[must_use]
    pub fn beats_txed(&self) -> u64 {
        self.beats_written
    }

    /// R beats produced.
    #[must_use]
    pub fn beats_rxed(&self) -> u64 {
        self.beats_read
    }

    /// Hardware resets received.
    #[must_use]
    pub fn resets_seen(&self) -> u64 {
        self.resets
    }

    /// Publishes the peripheral's levels and totals as telemetry gauges
    /// (`eth.*`), for the periodic sampler.
    pub fn publish_metrics(&self, metrics: &mut MetricsHub) {
        metrics.gauge_set("eth.frames_txed", self.bursts_written);
        metrics.gauge_set("eth.beats_txed", self.beats_written);
        metrics.gauge_set("eth.beats_rxed", self.beats_read);
        metrics.gauge_set("eth.resets_seen", self.resets);
        metrics.gauge_set("eth.tx_queue", self.writes_awaiting_data() as u64);
        metrics.gauge_set("eth.rx_queue", self.reads_in_flight() as u64);
    }
}

impl Default for EthSub {
    fn default() -> Self {
        Self::new(EthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::prelude::*;

    fn do_frame(eth: &mut EthSub, id: u16, beats: u16) -> u64 {
        let txn = TxnBuilder::new(AxiId(id), Addr(0x0))
            .incr(beats)
            .write((0..u64::from(beats)).map(|i| i + 0x100).collect())
            .unwrap();
        let mut port = AxiPort::new();
        let mut aw_done = false;
        let mut sent = 0u16;
        let mut cycles = 0u64;
        loop {
            port.begin_cycle();
            if !aw_done {
                port.aw.drive(txn.aw_beat());
            } else if sent < txn.beats() {
                port.w.drive(txn.w_beat(sent));
            }
            port.b.set_ready(true);
            eth.drive(&mut port);
            if port.aw.fires() {
                aw_done = true;
            }
            if port.w.fires() {
                sent += 1;
            }
            let done = port.b.fires();
            eth.commit(&port);
            cycles += 1;
            assert!(cycles < 10_000, "frame never completed");
            if done {
                return cycles;
            }
        }
    }

    #[test]
    fn frame_transmission_counts() {
        let mut eth = EthSub::default();
        do_frame(&mut eth, 1, 16);
        assert_eq!(eth.frames_txed(), 1);
        assert_eq!(eth.beats_txed(), 16);
        assert_eq!(eth.store.read_word(3 * 8), 0x103);
    }

    #[test]
    fn pacing_slows_large_frames() {
        let fast = do_frame(
            &mut EthSub::new(EthConfig {
                pace_on: 1,
                pace_off: 0,
                ..EthConfig::default()
            }),
            0,
            64,
        );
        let slow = do_frame(
            &mut EthSub::new(EthConfig {
                pace_on: 1,
                pace_off: 3,
                ..EthConfig::default()
            }),
            0,
            64,
        );
        assert!(slow > fast * 2, "fast={fast} slow={slow}");
    }

    #[test]
    fn rx_reads_return_buffer_contents() {
        let mut eth = EthSub::default();
        do_frame(&mut eth, 0, 4);
        let txn = TxnBuilder::new(AxiId(1), Addr(0)).incr(4).read().unwrap();
        let mut port = AxiPort::new();
        let mut ar_done = false;
        let mut data = Vec::new();
        for _ in 0..200 {
            port.begin_cycle();
            if !ar_done {
                port.ar.drive(txn.ar_beat());
            }
            port.r.set_ready(true);
            eth.drive(&mut port);
            if port.ar.fires() {
                ar_done = true;
            }
            if let Some(r) = port.r.fired_beat() {
                data.push(r.data);
                if r.last {
                    break;
                }
            }
            eth.commit(&port);
        }
        assert_eq!(data, vec![0x100, 0x101, 0x102, 0x103]);
        assert_eq!(eth.beats_rxed(), 3, "last beat counted at next commit");
    }

    #[test]
    fn reset_clears_inflight_and_counts() {
        let mut eth = EthSub::default();
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.aw.drive(AwBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::from_beats(8).unwrap(),
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        eth.drive(&mut port);
        eth.commit(&port);
        eth.reset();
        assert_eq!(eth.resets_seen(), 1);
        port.begin_cycle();
        eth.drive(&mut port);
        assert!(!port.w.ready(), "no TX in flight after reset");
        // And it still works afterwards.
        do_frame(&mut eth, 2, 4);
        assert_eq!(eth.frames_txed(), 1);
    }

    #[test]
    fn fig11_shape_250_beat_frame() {
        // The paper's stress transaction: 250 beats on a 64-bit bus.
        let mut eth = EthSub::new(EthConfig {
            pace_on: 1,
            pace_off: 0,
            ..EthConfig::default()
        });
        let cycles = do_frame(&mut eth, 0, 250);
        assert_eq!(eth.beats_txed(), 250);
        assert!(
            cycles >= 250,
            "250 beats need at least 250 cycles, took {cycles}"
        );
        assert!(
            cycles < 320,
            "healthy transfer fits the paper's 320-cycle Tc budget"
        );
    }
}
