//! A descriptor-based DMA engine — the "DMA manager" role of the
//! paper's Fig. 10 as real copy hardware rather than random traffic.
//!
//! Software pushes [`Descriptor`]s (source, destination, length); the
//! engine reads the source as AXI read bursts, buffers the data, writes
//! it to the destination as AXI write bursts, and raises a completion
//! flag per descriptor. Because the engine moves *real data*, system
//! tests can verify end-to-end integrity across the interconnect and the
//! TMU (what arrives at the destination must equal the source).
//!
//! Errors (`SLVERR`/`DECERR`, e.g. a TMU abort of the destination link)
//! mark the descriptor failed instead of completing it, and the engine
//! moves on — the recovery behaviour a real DMA driver implements.

use std::collections::VecDeque;

use axi4::prelude::*;
use tmu_telemetry::MetricsHub;

use crate::link::AxiManager;

/// One copy job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Source byte address (8-byte aligned).
    pub src: u64,
    /// Destination byte address (8-byte aligned).
    pub dst: u64,
    /// 64-bit words to move (1..=256 per AXI burst limits).
    pub words: u16,
}

/// Outcome of one processed descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaOutcome {
    /// Copy completed, data delivered.
    Done,
    /// The read or write leg returned an error response.
    Failed,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DmaState {
    Idle,
    IssueAr,
    Collect { got: u16, errored: bool },
    IssueAw,
    SendW { sent: u16 },
    AwaitB,
}

/// The DMA engine. See the [module docs](self).
#[derive(Debug)]
pub struct DmaEngine {
    id: AxiId,
    queue: VecDeque<Descriptor>,
    current: Option<Descriptor>,
    state: DmaState,
    buffer: Vec<u64>,
    outcomes: Vec<(Descriptor, DmaOutcome)>,
    /// Latched when the current descriptor's write leg saw an error.
    write_errored: bool,
}

impl DmaEngine {
    /// An engine issuing all traffic under AXI ID `id`.
    #[must_use]
    pub fn new(id: AxiId) -> Self {
        DmaEngine {
            id,
            queue: VecDeque::new(),
            current: None,
            state: DmaState::Idle,
            buffer: Vec::new(),
            outcomes: Vec::new(),
            write_errored: false,
        }
    }

    /// Queues a copy job.
    ///
    /// # Panics
    ///
    /// Panics if `words` is outside `1..=256` or the addresses are not
    /// 8-byte aligned.
    pub fn push(&mut self, desc: Descriptor) {
        assert!((1..=256).contains(&desc.words), "words outside 1..=256");
        assert!(
            desc.src.is_multiple_of(8) && desc.dst.is_multiple_of(8),
            "unaligned descriptor"
        );
        self.queue.push_back(desc);
    }

    /// Outcomes of processed descriptors, in completion order.
    #[must_use]
    pub fn outcomes(&self) -> &[(Descriptor, DmaOutcome)] {
        &self.outcomes
    }

    /// Descriptors completed successfully.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| *o == DmaOutcome::Done)
            .count()
    }

    /// Descriptors that failed (error responses).
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| *o == DmaOutcome::Failed)
            .count()
    }

    /// True when no work is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.state == DmaState::Idle && self.queue.is_empty()
    }

    fn txn_len(words: u16) -> BurstLen {
        BurstLen::from_beats(words).expect("validated at push")
    }

    fn finish(&mut self, outcome: DmaOutcome) {
        let desc = self.current.take().expect("finishing an active descriptor");
        self.outcomes.push((desc, outcome));
        self.state = DmaState::Idle;
        self.buffer.clear();
        self.write_errored = false;
    }
}

impl AxiManager for DmaEngine {
    /// Drive pass: manager-side wires of `port`.
    ///
    /// # Panics
    ///
    /// Panics only if a queued descriptor carries an illegal burst
    /// length, which `push` rejects up front — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    fn drive(&mut self, port: &mut AxiPort, _cycle: u64) {
        if self.state == DmaState::Idle {
            if let Some(desc) = self.queue.pop_front() {
                self.current = Some(desc);
                self.buffer.clear();
                self.write_errored = false;
                self.state = DmaState::IssueAr;
            }
        }
        let Some(desc) = self.current else {
            port.b.set_ready(true);
            port.r.set_ready(true);
            return;
        };
        match &self.state {
            DmaState::IssueAr => {
                port.ar.drive(ArBeat::new(
                    self.id,
                    Addr(desc.src),
                    Self::txn_len(desc.words),
                    BurstSize::from_bytes(8).expect("8 bytes is a legal AXI4 beat size"),
                    BurstKind::Incr,
                ));
            }
            DmaState::IssueAw => {
                port.aw.drive(AwBeat::new(
                    self.id,
                    Addr(desc.dst),
                    Self::txn_len(desc.words),
                    BurstSize::from_bytes(8).expect("8 bytes is a legal AXI4 beat size"),
                    BurstKind::Incr,
                ));
            }
            DmaState::SendW { sent } => {
                let idx = usize::from(*sent);
                port.w
                    .drive(WBeat::new(self.buffer[idx], *sent + 1 == desc.words));
            }
            DmaState::Idle | DmaState::Collect { .. } | DmaState::AwaitB => {}
        }
        port.b.set_ready(true);
        port.r.set_ready(true);
    }

    /// Commit pass: advances the copy state machine from fired
    /// handshakes.
    fn commit(&mut self, port: &AxiPort, _cycle: u64) {
        let Some(desc) = self.current else { return };
        match &mut self.state {
            DmaState::IssueAr => {
                if port.ar.fires() {
                    self.state = DmaState::Collect {
                        got: 0,
                        errored: false,
                    };
                }
            }
            DmaState::Collect { got, errored } => {
                if let Some(r) = port.r.fired_beat() {
                    if r.id == self.id {
                        self.buffer.push(r.data);
                        *got += 1;
                        if r.resp.is_error() {
                            *errored = true;
                        }
                        if r.last || *got == desc.words {
                            if *errored {
                                self.finish(DmaOutcome::Failed);
                            } else {
                                // Pad short (aborted) bursts defensively.
                                self.buffer.resize(usize::from(desc.words), 0);
                                self.state = DmaState::IssueAw;
                            }
                        }
                    }
                }
            }
            DmaState::IssueAw => {
                if port.aw.fires() {
                    self.state = DmaState::SendW { sent: 0 };
                }
            }
            DmaState::SendW { sent } => {
                if port.w.fires() {
                    *sent += 1;
                    if *sent == desc.words {
                        self.state = DmaState::AwaitB;
                    }
                }
                // An early abort B can arrive while data is still owed;
                // AXI obliges us to keep sending, so only latch it.
                if let Some(b) = port.b.fired_beat() {
                    if b.id == self.id && b.resp.is_error() {
                        self.write_errored = true;
                    }
                }
            }
            DmaState::AwaitB => {
                if let Some(b) = port.b.fired_beat() {
                    if b.id == self.id {
                        if b.resp.is_error() || self.write_errored {
                            self.finish(DmaOutcome::Failed);
                        } else {
                            self.finish(DmaOutcome::Done);
                        }
                    }
                }
            }
            DmaState::Idle => {}
        }
        // An early abort of the write leg: the B arrived during SendW and
        // the remaining beats have been sent — close out as failed.
        if self.write_errored && matches!(self.state, DmaState::AwaitB) {
            self.finish(DmaOutcome::Failed);
        }
    }

    /// Publishes the engine's progress as telemetry gauges (`dma.*`),
    /// for the periodic sampler.
    fn publish_metrics(&self, metrics: &mut MetricsHub) {
        metrics.gauge_set("dma.completed", self.completed() as u64);
        metrics.gauge_set("dma.failed", self.failed() as u64);
        metrics.gauge_set("dma.queued", self.queue.len() as u64);
        metrics.gauge_set("dma.active", u64::from(self.current.is_some()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{pattern_word, MemSub};

    /// Runs the engine against a single memory (copy within memory).
    fn run(engine: &mut DmaEngine, mem: &mut MemSub, cycles: u64) {
        let mut port = AxiPort::new();
        for n in 0..cycles {
            port.begin_cycle();
            engine.drive(&mut port, n);
            mem.drive(&mut port);
            engine.commit(&port, n);
            mem.commit(&port);
            if engine.is_idle() {
                break;
            }
        }
    }

    #[test]
    fn copies_data_within_memory() {
        let mut mem = MemSub::default();
        let mut engine = DmaEngine::new(AxiId(9));
        engine.push(Descriptor {
            src: 0x100,
            dst: 0x900,
            words: 16,
        });
        run(&mut engine, &mut mem, 2000);
        assert!(engine.is_idle());
        assert_eq!(engine.completed(), 1);
        assert_eq!(engine.failed(), 0);
        // Untouched source words follow the pattern; the copy must match.
        for i in 0..16u64 {
            assert_eq!(
                mem.word(0x900 + i * 8),
                pattern_word(0x100 + i * 8),
                "word {i} corrupted in flight"
            );
        }
    }

    #[test]
    fn processes_queue_in_order() {
        let mut mem = MemSub::default();
        let mut engine = DmaEngine::new(AxiId(1));
        engine.push(Descriptor {
            src: 0x0,
            dst: 0x400,
            words: 4,
        });
        engine.push(Descriptor {
            src: 0x400,
            dst: 0x800,
            words: 4,
        });
        run(&mut engine, &mut mem, 5000);
        assert_eq!(engine.completed(), 2);
        // The second copy sees the first copy's data (chained).
        for i in 0..4u64 {
            assert_eq!(mem.word(0x800 + i * 8), pattern_word(i * 8));
        }
        assert_eq!(engine.outcomes()[0].0.dst, 0x400, "in order");
    }

    #[test]
    fn max_burst_copy() {
        let mut mem = MemSub::default();
        let mut engine = DmaEngine::new(AxiId(2));
        engine.push(Descriptor {
            src: 0x0,
            dst: 0x2000,
            words: 256,
        });
        run(&mut engine, &mut mem, 10_000);
        assert_eq!(engine.completed(), 1);
        assert_eq!(mem.word(0x2000 + 255 * 8), pattern_word(255 * 8));
    }

    #[test]
    fn publish_metrics_reports_progress() {
        let mut mem = MemSub::default();
        let mut engine = DmaEngine::new(AxiId(9));
        engine.push(Descriptor {
            src: 0x0,
            dst: 0x100,
            words: 4,
        });
        run(&mut engine, &mut mem, 2000);
        let mut metrics = MetricsHub::default();
        engine.publish_metrics(&mut metrics);
        assert_eq!(metrics.gauge("dma.completed"), Some(1));
        assert_eq!(metrics.gauge("dma.failed"), Some(0));
        assert_eq!(metrics.gauge("dma.queued"), Some(0));
        assert_eq!(metrics.gauge("dma.active"), Some(0));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_descriptor_rejected() {
        DmaEngine::new(AxiId(0)).push(Descriptor {
            src: 0x3,
            dst: 0x8,
            words: 1,
        });
    }

    #[test]
    #[should_panic(expected = "1..=256")]
    fn oversized_descriptor_rejected() {
        DmaEngine::new(AxiId(0)).push(Descriptor {
            src: 0x0,
            dst: 0x8,
            words: 0,
        });
    }
}
