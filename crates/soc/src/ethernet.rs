//! An Ethernet-like streaming AXI peripheral.
//!
//! Stands in for the RGMII Ethernet IP of the paper's Fig. 10: a
//! memory-mapped frame buffer whose W channel is paced at "line rate"
//! (a configurable ready duty cycle), with frame accounting and a
//! hardware reset input — the target the TMU guards in the system-level
//! evaluation.

use std::collections::VecDeque;

use axi4::burst::beat_address;
use axi4::prelude::*;
use tmu_telemetry::MetricsHub;

/// Configuration of the Ethernet-like peripheral.
#[derive(Debug, Clone, Copy)]
pub struct EthConfig {
    /// `w_ready` is asserted `pace_on` cycles out of every
    /// `pace_on + pace_off` (models serialization at line rate).
    pub pace_on: u64,
    /// See [`Self::pace_on`]. Zero means full throughput.
    pub pace_off: u64,
    /// Cycles from `WLAST` to the TX completion response.
    pub tx_latency: u64,
    /// Cycles from AR acceptance to the first RX data beat.
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

#[derive(Debug)]
struct TxJob {
    aw: AwBeat,
    beats_done: u16,
}

#[derive(Debug)]
struct TxResp {
    id: AxiId,
    delay: u64,
}

#[derive(Debug)]
struct RxJob {
    ar: ArBeat,
    beats_done: u16,
    warmup: u64,
    /// Data of the R beat on the wires, latched when first driven: AXI
    /// requires a beat waiting for `ready` to stay stable, even if a TX
    /// write to the same buffer word commits meanwhile.
    r_data: Option<u64>,
}

/// The Ethernet-like subordinate. See the [module docs](self).
#[derive(Debug)]
pub struct EthSub {
    cfg: EthConfig,
    buffer: Vec<u64>,
    tx: VecDeque<TxJob>,
    tx_resp: VecDeque<TxResp>,
    rx: VecDeque<RxJob>,
    pace_counter: u64,
    frames_txed: u64,
    beats_txed: u64,
    beats_rxed: u64,
    resets_seen: u64,
}

impl EthSub {
    /// A peripheral with configuration `cfg`.
    #[must_use]
    pub fn new(cfg: EthConfig) -> Self {
        EthSub {
            buffer: vec![0; cfg.buffer_words],
            cfg,
            tx: VecDeque::new(),
            tx_resp: VecDeque::new(),
            rx: VecDeque::new(),
            pace_counter: 0,
            frames_txed: 0,
            beats_txed: 0,
            beats_rxed: 0,
            resets_seen: 0,
        }
    }

    /// Complete frames transmitted (write bursts fully absorbed).
    #[must_use]
    pub fn frames_txed(&self) -> u64 {
        self.frames_txed
    }

    /// W beats absorbed.
    #[must_use]
    pub fn beats_txed(&self) -> u64 {
        self.beats_txed
    }

    /// R beats produced.
    #[must_use]
    pub fn beats_rxed(&self) -> u64 {
        self.beats_rxed
    }

    /// Hardware resets received.
    #[must_use]
    pub fn resets_seen(&self) -> u64 {
        self.resets_seen
    }

    /// Publishes the peripheral's levels and totals as telemetry gauges
    /// (`eth.*`), for the periodic sampler.
    pub fn publish_metrics(&self, metrics: &mut MetricsHub) {
        metrics.gauge_set("eth.frames_txed", self.frames_txed);
        metrics.gauge_set("eth.beats_txed", self.beats_txed);
        metrics.gauge_set("eth.beats_rxed", self.beats_rxed);
        metrics.gauge_set("eth.resets_seen", self.resets_seen);
        metrics.gauge_set("eth.tx_queue", self.tx.len() as u64);
        metrics.gauge_set("eth.rx_queue", self.rx.len() as u64);
    }

    /// A frame-buffer word (test/scoreboard access).
    #[must_use]
    pub fn buffer_word(&self, index: usize) -> u64 {
        self.buffer.get(index).copied().unwrap_or(0)
    }

    fn buffer_index(buffer_words: usize, addr: Addr) -> usize {
        (addr.0 / 8) as usize % buffer_words
    }

    fn w_paced_ready(&self) -> bool {
        if self.cfg.pace_off == 0 {
            return true;
        }
        self.pace_counter < self.cfg.pace_on
    }

    /// Drive pass: subordinate-side wires of `port`.
    pub fn drive(&mut self, port: &mut AxiPort) {
        port.aw.set_ready(self.tx.len() < 4);
        port.ar.set_ready(self.rx.len() < 4);
        port.w
            .set_ready(!self.tx.is_empty() && self.w_paced_ready());
        if let Some(resp) = self.tx_resp.front() {
            if resp.delay == 0 {
                port.b.drive(BBeat::new(resp.id, Resp::Okay));
            }
        }
        if let Some(job) = self.rx.front_mut() {
            if job.warmup == 0 {
                let idx = job.beats_done;
                let data = *job.r_data.get_or_insert_with(|| {
                    let addr =
                        beat_address(job.ar.addr, job.ar.size, job.ar.len, job.ar.burst, idx);
                    self.buffer[Self::buffer_index(self.cfg.buffer_words, addr)]
                });
                let last = idx + 1 == job.ar.len.beats();
                port.r.drive(RBeat::new(job.ar.id, data, Resp::Okay, last));
            }
        }
    }

    /// Commit pass: absorbs fired handshakes and advances pacing/timers.
    ///
    /// # Panics
    ///
    /// Panics only if a data beat fires with no transmit job queued — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn commit(&mut self, port: &AxiPort) {
        if let Some(aw) = port.aw.fired_beat() {
            self.tx.push_back(TxJob {
                aw: *aw,
                beats_done: 0,
            });
        }
        if let Some(w) = port.w.fired_beat() {
            let w = *w;
            let (addr, done_job) = {
                let job = self.tx.front_mut().expect("W fired with a TX in flight");
                let idx = job.beats_done;
                let addr = beat_address(job.aw.addr, job.aw.size, job.aw.len, job.aw.burst, idx);
                job.beats_done += 1;
                let finished = job.beats_done == job.aw.len.beats() || w.last;
                (addr, finished)
            };
            let index = Self::buffer_index(self.cfg.buffer_words, addr);
            self.buffer[index] = w.data;
            self.beats_txed += 1;
            if done_job {
                let job = self.tx.pop_front().expect("front exists");
                self.frames_txed += 1;
                self.tx_resp.push_back(TxResp {
                    id: job.aw.id,
                    delay: self.cfg.tx_latency,
                });
            }
        }
        if port.b.fires() {
            self.tx_resp.pop_front();
        }
        if let Some(ar) = port.ar.fired_beat() {
            self.rx.push_back(RxJob {
                ar: *ar,
                beats_done: 0,
                warmup: self.cfg.rx_warmup,
                r_data: None,
            });
        }
        if port.r.fires() {
            self.beats_rxed += 1;
            let job = self.rx.front_mut().expect("R fired with an RX in flight");
            job.beats_done += 1;
            job.r_data = None;
            if job.beats_done == job.ar.len.beats() {
                self.rx.pop_front();
            }
        }
        // Pacing wheel and timers.
        let period = self.cfg.pace_on + self.cfg.pace_off;
        if period > 0 {
            self.pace_counter = (self.pace_counter + 1) % period;
        }
        for resp in &mut self.tx_resp {
            resp.delay = resp.delay.saturating_sub(1);
        }
        if let Some(job) = self.rx.front_mut() {
            job.warmup = job.warmup.saturating_sub(1);
        }
    }

    /// Hardware reset input: drops all in-flight work and pacing state —
    /// what the external reset unit does after the TMU isolates a fault.
    pub fn reset(&mut self) {
        self.tx.clear();
        self.tx_resp.clear();
        self.rx.clear();
        self.pace_counter = 0;
        self.resets_seen += 1;
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
        assert_eq!(eth.buffer_word(3), 0x103);
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
