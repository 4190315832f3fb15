//! The memory and Ethernet models as they were before they became two
//! stores behind [`Subordinate`](super::Subordinate), kept verbatim as
//! the reference of the property at the end: the new models drive every
//! wire and hold every counter and stored word as these do.

use std::collections::VecDeque;

use axi4::burst::beat_address;
use axi4::hash::FoldHashMap;
use axi4::prelude::*;
use tmu_telemetry::MetricsHub;

use crate::ethernet::EthConfig;
use crate::memory::{pattern_word, MemConfig};

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

mod tests {
    use proptest::prelude::*;

    use super::{EthSub as RefEth, MemSub as RefMem};
    use crate::ethernet::{EthConfig, EthSub};
    use crate::link::AxiSubordinate;
    use crate::memory::{MemConfig, MemSub};
    use crate::subordinate::Store;
    use axi4::prelude::*;
    use tmu_telemetry::MetricsHub;

    /// Words of address space the stimulus touches.
    const WORDS: u64 = 64;

    /// A subordinate whose counters and stored words the property reads.
    trait Observed: AxiSubordinate {
        fn counters(&self) -> Vec<u64>;
    }

    impl AxiSubordinate for RefMem {
        fn drive(&mut self, port: &mut AxiPort) {
            RefMem::drive(self, port);
        }

        fn commit(&mut self, port: &AxiPort) {
            RefMem::commit(self, port);
        }

        fn reset(&mut self) {
            RefMem::reset(self);
        }
    }

    impl AxiSubordinate for RefEth {
        fn drive(&mut self, port: &mut AxiPort) {
            RefEth::drive(self, port);
        }

        fn commit(&mut self, port: &AxiPort) {
            RefEth::commit(self, port);
        }

        fn reset(&mut self) {
            RefEth::reset(self);
        }
    }

    impl Observed for RefMem {
        fn counters(&self) -> Vec<u64> {
            let words = (0..WORDS).map(|w| self.word(w * 8));
            [self.beats_written(), self.beats_read()]
                .into_iter()
                .chain(words)
                .collect()
        }
    }

    impl Observed for MemSub {
        fn counters(&self) -> Vec<u64> {
            let words = (0..WORDS).map(|w| self.word(w * 8));
            [self.beats_written(), self.beats_read()]
                .into_iter()
                .chain(words)
                .collect()
        }
    }

    /// The gauges `publish_metrics` sets, in name order.
    fn gauges(publish: impl FnOnce(&mut MetricsHub)) -> Vec<u64> {
        let mut hub = MetricsHub::new();
        publish(&mut hub);
        hub.gauges().map(|(_, value)| value).collect()
    }

    impl Observed for RefEth {
        fn counters(&self) -> Vec<u64> {
            let words = (0..WORDS).map(|w| self.buffer_word(w as usize % self.cfg.buffer_words));
            [
                self.frames_txed(),
                self.beats_txed(),
                self.beats_rxed(),
                self.resets_seen(),
            ]
            .into_iter()
            .chain(gauges(|hub| self.publish_metrics(hub)))
            .chain(words)
            .collect()
        }
    }

    impl Observed for EthSub {
        fn counters(&self) -> Vec<u64> {
            let words = (0..WORDS).map(|w| self.store.read_word(w * 8));
            [
                self.frames_txed(),
                self.beats_txed(),
                self.beats_rxed(),
                self.resets_seen(),
            ]
            .into_iter()
            .chain(gauges(|hub| self.publish_metrics(hub)))
            .chain(words)
            .collect()
        }
    }

    /// An address offer: ID, start word, burst kind and beats.
    type Offer = (u16, u64, BurstKind, u16);

    /// One cycle of manager-side wires, plus an optional reset after it.
    #[derive(Debug, Clone)]
    struct Cycle {
        aw: Option<Offer>,
        /// A W beat for the oldest fired AW still owed data, if any.
        w: Option<(u64, u8)>,
        ar: Option<Offer>,
        b_ready: bool,
        r_ready: bool,
        reset: bool,
    }

    /// `value` on half of the draws, `None` on the rest.
    fn maybe<S: Strategy>(value: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), value).prop_map(|(on, value)| on.then_some(value))
    }

    fn offer() -> impl Strategy<Value = Option<Offer>> {
        let kind = prop_oneof![
            Just(BurstKind::Incr),
            Just(BurstKind::Incr),
            Just(BurstKind::Fixed),
            Just(BurstKind::Wrap),
        ];
        maybe((0u16..4, 0..WORDS - 16, kind, 0u16..4)).prop_map(|offer| {
            offer.map(|(id, word, kind, n)| match kind {
                // A wrapping burst has 2, 4, 8 or 16 beats.
                BurstKind::Wrap => (id, word, kind, 2 << n),
                _ => (id, word, kind, [1, 2, 4, 7][usize::from(n)]),
            })
        })
    }

    fn cycle() -> impl Strategy<Value = Cycle> {
        let strobes = prop_oneof![Just(0xffu8), any::<u8>()];
        (
            offer(),
            maybe((any::<u64>(), strobes)),
            offer(),
            any::<bool>(),
            any::<bool>(),
            (0u8..48).prop_map(|draw| draw == 0),
        )
            .prop_map(|(aw, w, ar, b_ready, r_ready, reset)| Cycle {
                aw,
                w,
                ar,
                b_ready,
                r_ready,
                reset,
            })
    }

    /// Latencies and warm-ups of 0 and 1 on half of the draws.
    fn latency() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(1), 2u64..10]
    }

    fn mem_config() -> impl Strategy<Value = MemConfig> {
        (
            latency(),
            latency(),
            prop_oneof![Just(0u64), 1u64..4],
            prop_oneof![Just(1usize), 2usize..10],
        )
            .prop_map(
                |(b_latency, r_warmup, r_beat_gap, max_inflight)| MemConfig {
                    b_latency,
                    r_warmup,
                    r_beat_gap,
                    max_inflight,
                },
            )
    }

    fn eth_config() -> impl Strategy<Value = EthConfig> {
        (
            prop_oneof![Just(0u64), 1u64..6],
            prop_oneof![Just(0u64), 1u64..4],
            latency(),
            latency(),
            1usize..17,
        )
            .prop_map(|(pace_on, pace_off, tx_latency, rx_warmup, buffer_words)| {
                EthConfig {
                    pace_on,
                    pace_off,
                    tx_latency,
                    rx_warmup,
                    buffer_words,
                }
            })
    }

    fn beat<B>(offer: Offer, new: fn(AxiId, Addr, BurstLen, BurstSize, BurstKind) -> B) -> B {
        let (id, word, kind, beats) = offer;
        new(
            AxiId(id),
            Addr(word * 8),
            BurstLen::from_beats(beats).expect("offers have 1 to 16 beats"),
            BurstSize::from_bytes(8).expect("8 bytes is a legal beat size"),
            kind,
        )
    }

    /// The wires a subordinate drives.
    fn sub_wires(port: &AxiPort) -> (bool, bool, bool, Option<BBeat>, Option<RBeat>) {
        (
            port.aw.ready(),
            port.w.ready(),
            port.ar.ready(),
            port.b.beat().copied(),
            port.r.beat().copied(),
        )
    }

    /// Drives `reference` and `model` with the same manager, which sends
    /// W beats only for AWs that fired, and compares every wire after
    /// each drive and every counter after each commit.
    fn lockstep(reference: &mut impl Observed, model: &mut impl Observed, cycles: &[Cycle]) {
        let mut ref_port = AxiPort::new();
        let mut port = AxiPort::new();
        // Beats each fired AW still owes, oldest first.
        let mut owed: std::collections::VecDeque<u16> = std::collections::VecDeque::new();
        for (n, c) in cycles.iter().enumerate() {
            for p in [&mut ref_port, &mut port] {
                p.begin_cycle();
                if let Some(aw) = c.aw {
                    p.aw.drive(beat(aw, AwBeat::new));
                }
                if let (Some((data, strb)), Some(&left)) = (c.w, owed.front()) {
                    p.w.drive(WBeat::with_strobes(data, strb, left == 1));
                }
                if let Some(ar) = c.ar {
                    p.ar.drive(beat(ar, ArBeat::new));
                }
                p.b.set_ready(c.b_ready);
                p.r.set_ready(c.r_ready);
            }
            reference.drive(&mut ref_port);
            model.drive(&mut port);
            prop_assert_eq!(sub_wires(&ref_port), sub_wires(&port), "cycle {}", n);
            reference.commit(&ref_port);
            model.commit(&port);
            prop_assert_eq!(reference.counters(), model.counters(), "cycle {}", n);
            if let Some(aw) = port.aw.fired_beat() {
                owed.push_back(aw.len.beats());
            }
            if port.w.fires() {
                let left = owed.front_mut().expect("W fired for an owed AW");
                *left -= 1;
                if *left == 0 {
                    owed.pop_front();
                }
            }
            if c.reset {
                reference.reset();
                model.reset();
                owed.clear();
                prop_assert_eq!(reference.counters(), model.counters(), "reset {}", n);
            }
        }
    }

    proptest! {
        #[test]
        fn memory_matches_the_reference(
            cfg in mem_config(),
            cycles in prop::collection::vec(cycle(), 1..600),
        ) {
            lockstep(&mut RefMem::new(cfg), &mut MemSub::new(cfg), &cycles);
        }

        #[test]
        fn ethernet_matches_the_reference(
            cfg in eth_config(),
            cycles in prop::collection::vec(cycle(), 1..600),
        ) {
            lockstep(&mut RefEth::new(cfg), &mut EthSub::new(cfg), &cycles);
        }
    }
}
