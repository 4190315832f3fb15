//! Traffic-generating AXI managers.
//!
//! [`TrafficGen`] plays the role of a CPU core or DMA engine: it issues
//! a configurable mix of write and read bursts across a set of IDs and
//! address ranges, obeys the AXI handshake and write-data ordering rules,
//! and keeps completion statistics including `SLVERR` aborts — which is
//! how system-level experiments see the TMU's recovery actions.

use std::collections::VecDeque;

use axi4::burst::beat_address;
use axi4::hash::FoldHashMap;
use axi4::prelude::*;
use sim::{Histogram, SimRng};

/// What traffic a [`TrafficGen`] produces.
#[derive(Debug, Clone)]
pub struct TrafficPattern {
    /// Probability that a generated transaction is a write.
    pub write_ratio: f64,
    /// Burst lengths to draw from (beats).
    pub burst_lens: Vec<u16>,
    /// AXI IDs to draw from.
    pub ids: Vec<u16>,
    /// Base of the generated address window.
    pub addr_base: u64,
    /// Size of the generated address window in bytes (bursts are kept
    /// 4 KiB-legal inside it).
    pub addr_span: u64,
    /// Maximum transactions in flight before pausing issue.
    pub max_outstanding: usize,
    /// Minimum cycles between consecutive issues.
    pub issue_gap: u64,
    /// Stop after this many transactions (`None` = endless).
    pub total_txns: Option<u64>,
    /// Data-integrity scoreboard: remember written data and check that
    /// reads of the same addresses return it (only sound when this
    /// manager is the address range's sole writer).
    pub verify_data: bool,
}

impl Default for TrafficPattern {
    fn default() -> Self {
        TrafficPattern {
            write_ratio: 0.5,
            burst_lens: vec![1, 4, 8, 16],
            ids: vec![0, 1, 2, 3],
            addr_base: 0x8000_0000,
            addr_span: 0x10_0000,
            max_outstanding: 4,
            issue_gap: 2,
            total_txns: None,
            verify_data: false,
        }
    }
}

impl TrafficPattern {
    /// A single scripted transaction: one `beats`-beat write to `addr`
    /// with `id` — the shape of the paper's Fig. 11 Ethernet stress
    /// transaction.
    #[must_use]
    pub fn single_write(id: u16, addr: u64, beats: u16) -> Self {
        TrafficPattern {
            write_ratio: 1.0,
            burst_lens: vec![beats],
            ids: vec![id],
            addr_base: addr,
            addr_span: 1, // always the base address
            max_outstanding: 1,
            issue_gap: 0,
            total_txns: Some(1),
            verify_data: false,
        }
    }
}

/// Completion statistics of one manager.
#[derive(Debug, Clone, Default)]
pub struct MgrStats {
    /// Write transactions issued (AW fired).
    pub writes_issued: u64,
    /// Writes completed with `OKAY`.
    pub writes_completed: u64,
    /// Writes completed with an error response (TMU aborts land here).
    pub writes_errored: u64,
    /// Read transactions issued (AR fired).
    pub reads_issued: u64,
    /// Reads completed with all beats `OKAY`.
    pub reads_completed: u64,
    /// Reads with at least one error beat.
    pub reads_errored: u64,
    /// W beats sent.
    pub w_beats: u64,
    /// R beats received.
    pub r_beats: u64,
    /// Read beats whose data contradicted the scoreboard (must stay 0).
    pub data_mismatches: u64,
    /// Write round-trip latency (AW issue to B).
    pub write_latency: Histogram,
    /// Read round-trip latency (AR issue to last R).
    pub read_latency: Histogram,
}

impl MgrStats {
    /// Transactions completed, both kinds and outcomes.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.writes_completed + self.writes_errored + self.reads_completed + self.reads_errored
    }
}

#[derive(Debug)]
struct PendingWrite {
    aw: AwBeat,
    issued_at: u64,
}

#[derive(Debug)]
struct DataWrite {
    aw: AwBeat,
    sent: u16,
    issued_at: u64,
    /// A response (normally a TMU `SLVERR` abort) already arrived; the
    /// remaining beats must still be sent (AXI forbids cancelling an
    /// issued burst) but no further response is expected.
    aborted: bool,
}

#[derive(Debug, Clone, Copy)]
struct AwaitB {
    id: AxiId,
    issued_at: u64,
}

#[derive(Debug)]
struct PendingRead {
    txn: ReadTxn,
    issued_at: u64,
}

#[derive(Debug, Clone)]
struct AwaitR {
    txn: ReadTxn,
    beats_done: u16,
    errored: bool,
    issued_at: u64,
    /// Data may be checked against the scoreboard: false when a write to
    /// an overlapping range was in flight (AXI does not order the read
    /// and write channels, so the result is legitimately ambiguous).
    check_data: bool,
}

impl AwaitR {
    fn beats_left(&self) -> u16 {
        self.txn.beats() - self.beats_done
    }
}

fn ranges_overlap(a_base: u64, a_bytes: u64, b_base: u64, b_bytes: u64) -> bool {
    a_base < b_base + b_bytes && b_base < a_base + a_bytes
}

/// The data word a [`TrafficGen`] writes on beat `beat` of the burst
/// announced by `aw`. Computed where the beat is driven and where the
/// scoreboard records it, so no per-write data buffer exists.
fn beat_data(aw: &AwBeat, beat: u16) -> u64 {
    aw.addr.0 ^ (u64::from(beat) << 32) ^ 0xA5A5
}

/// A traffic-generating AXI manager. See the [module docs](self).
#[derive(Debug)]
pub struct TrafficGen {
    pattern: TrafficPattern,
    rng: SimRng,
    stats: MgrStats,
    issued: u64,
    last_issue: Option<u64>,
    // AW waiting to fire (front is driven).
    aw_queue: VecDeque<PendingWrite>,
    // Writes whose AW fired: W beats sent in this order.
    data_queue: VecDeque<DataWrite>,
    // Writes with all data sent, awaiting B (any order by ID, but we
    // retire oldest-per-ID).
    await_b: Vec<AwaitB>,
    // AR waiting to fire (front is driven).
    ar_queue: VecDeque<PendingRead>,
    // Reads awaiting data, per the global issue order; routed by ID.
    await_r: Vec<AwaitR>,
    // Data-integrity scoreboard (written words), when enabled.
    scoreboard: FoldHashMap<u64, u64>,
}

impl TrafficGen {
    /// A manager following `pattern`, seeded for reproducibility.
    #[must_use]
    pub fn new(pattern: TrafficPattern, seed: u64) -> Self {
        TrafficGen {
            pattern,
            rng: SimRng::seed(seed).split("traffic-gen"),
            stats: MgrStats::default(),
            issued: 0,
            last_issue: None,
            aw_queue: VecDeque::new(),
            data_queue: VecDeque::new(),
            await_b: Vec::new(),
            ar_queue: VecDeque::new(),
            await_r: Vec::new(),
            scoreboard: FoldHashMap::default(),
        }
    }

    /// Completion statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MgrStats {
        &self.stats
    }

    /// Rewrites the traffic pattern in place mid-run: transactions
    /// already queued keep flowing, only future generation follows the
    /// new pattern. Behavioural fault plans use this to turn a
    /// well-behaved manager into a bandwidth hog without desynchronising
    /// the generator's bookkeeping.
    pub fn reconfigure(&mut self, f: impl FnOnce(&mut TrafficPattern)) {
        f(&mut self.pattern);
    }

    /// Transactions currently in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.aw_queue.len()
            + self.data_queue.len()
            + self.await_b.len()
            + self.ar_queue.len()
            + self.await_r.len()
    }

    /// True once the configured transaction budget is issued and
    /// everything in flight has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.pattern.total_txns.is_some_and(|t| self.issued >= t) && self.outstanding() == 0
    }

    fn may_issue(&self, cycle: u64) -> bool {
        if let Some(total) = self.pattern.total_txns {
            if self.issued >= total {
                return false;
            }
        }
        if self.outstanding() >= self.pattern.max_outstanding {
            return false;
        }
        match self.last_issue {
            Some(last) => cycle >= last + self.pattern.issue_gap,
            None => true,
        }
    }

    fn pick_addr(&mut self, beats: u16) -> Addr {
        let bytes = u64::from(beats) * 8;
        let span = self.pattern.addr_span.max(1);
        let raw = self.pattern.addr_base + self.rng.below(span);
        // Align to the bus width and retreat from the 4 KiB boundary so
        // the burst stays legal.
        let mut addr = raw & !0x7;
        let page_off = addr % 4096;
        if page_off + bytes > 4096 {
            addr -= page_off + bytes - 4096;
        }
        Addr(addr)
    }

    fn generate(&mut self, cycle: u64) {
        if !self.may_issue(cycle) {
            return;
        }
        let beats = *self.rng.pick(&self.pattern.burst_lens);
        let id = AxiId(*self.rng.pick(&self.pattern.ids));
        let addr = self.pick_addr(beats);
        let is_write = self.rng.chance(self.pattern.write_ratio);
        if is_write {
            let aw = TxnBuilder::new(id, addr)
                .size_bytes(8)
                .incr(beats)
                .aw_beat()
                .expect("generated burst is legal");
            if self.pattern.verify_data {
                let wr_bytes = aw.total_bytes();
                for rd in &mut self.await_r {
                    let rd_bytes = u64::from(rd.txn.beats()) * u64::from(rd.txn.size.bytes());
                    if ranges_overlap(aw.addr.0, wr_bytes, rd.txn.addr.0, rd_bytes) {
                        rd.check_data = false;
                    }
                }
            }
            self.aw_queue.push_back(PendingWrite {
                aw,
                issued_at: cycle,
            });
        } else {
            let txn = TxnBuilder::new(id, addr)
                .size_bytes(8)
                .incr(beats)
                .read()
                .expect("generated burst is legal");
            self.ar_queue.push_back(PendingRead {
                txn,
                issued_at: cycle,
            });
        }
        self.issued += 1;
        self.last_issue = Some(cycle);
    }

    /// Drive pass: generates new traffic and drives the manager-side
    /// wires of `port` for this cycle.
    pub fn drive(&mut self, port: &mut AxiPort, cycle: u64) {
        self.generate(cycle);
        if let Some(front) = self.aw_queue.front() {
            port.aw.drive(front.aw);
        }
        if let Some(front) = self.data_queue.front() {
            let beats = front.aw.len.beats();
            if front.sent < beats {
                let data = beat_data(&front.aw, front.sent);
                port.w.drive(WBeat::new(data, front.sent + 1 == beats));
            }
        }
        if let Some(front) = self.ar_queue.front() {
            port.ar.drive(front.txn.ar_beat());
        }
        port.b.set_ready(true);
        port.r.set_ready(true);
    }

    /// Commit pass: samples fired handshakes on `port`.
    ///
    /// # Panics
    ///
    /// Panics only if a handshake fires with no queued transaction — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    pub fn commit(&mut self, port: &AxiPort, cycle: u64) {
        if port.aw.fires() {
            let pending = self.aw_queue.pop_front().expect("AW fired while queued");
            self.stats.writes_issued += 1;
            self.data_queue.push_back(DataWrite {
                aw: pending.aw,
                sent: 0,
                issued_at: pending.issued_at,
                aborted: false,
            });
        }
        if port.w.fires() {
            self.stats.w_beats += 1;
            let front = self.data_queue.front_mut().expect("W fired while sending");
            if self.pattern.verify_data && !front.aborted {
                let aw = &front.aw;
                let addr = beat_address(aw.addr, aw.size, aw.len, aw.burst, front.sent);
                self.scoreboard.insert(addr.0, beat_data(aw, front.sent));
            }
            front.sent += 1;
            if front.sent == front.aw.len.beats() {
                let done = self.data_queue.pop_front().expect("front exists");
                if !done.aborted {
                    self.await_b.push(AwaitB {
                        id: done.aw.id,
                        issued_at: done.issued_at,
                    });
                }
            }
        }
        if let Some(b) = port.b.fired_beat() {
            self.retire_write(b.id, b.resp, cycle);
        }
        if port.ar.fires() {
            let pending = self.ar_queue.pop_front().expect("AR fired while queued");
            self.stats.reads_issued += 1;
            let rd_bytes = u64::from(pending.txn.beats()) * u64::from(pending.txn.size.bytes());
            let check_data = self.pattern.verify_data
                && !self
                    .aw_queue
                    .iter()
                    .map(|w| &w.aw)
                    .chain(self.data_queue.iter().filter(|w| !w.aborted).map(|w| &w.aw))
                    .any(|w| {
                        ranges_overlap(pending.txn.addr.0, rd_bytes, w.addr.0, w.total_bytes())
                    });
            self.await_r.push(AwaitR {
                txn: pending.txn,
                beats_done: 0,
                errored: false,
                issued_at: pending.issued_at,
                check_data,
            });
        }
        if let Some(r) = port.r.fired_beat() {
            self.stats.r_beats += 1;
            let r = *r;
            self.retire_read_beat(r, cycle);
        }
    }

    /// Retires the oldest write with `id`, wherever it is: a `SLVERR`
    /// abort can arrive while the write is still queued for data (the
    /// TMU severed the link and terminated the transaction early). AXI
    /// forbids cancelling the burst, so in that case the write is marked
    /// aborted and its remaining beats keep flowing (the TMU absorbs
    /// them); its statistics are recorded now.
    fn retire_write(&mut self, id: AxiId, resp: Resp, cycle: u64) {
        // Preference order mirrors age: awaiting-B first, then the data
        // queue, then un-issued AWs are never eligible (no B can exist).
        if let Some(pos) = self.await_b.iter().position(|w| w.id == id) {
            let done = self.await_b.remove(pos);
            self.note_write_done(resp, cycle - done.issued_at);
            return;
        }
        if let Some(pos) = self
            .data_queue
            .iter()
            .position(|w| w.aw.id == id && !w.aborted)
        {
            let entry = self.data_queue.get_mut(pos).expect("position valid");
            entry.aborted = true;
            let issued_at = entry.issued_at;
            self.note_write_done(resp, cycle - issued_at);
        }
        // A response with no matching write: dropped (the TMU's protocol
        // checks report these).
    }

    fn note_write_done(&mut self, resp: Resp, latency: u64) {
        if resp.is_error() {
            self.stats.writes_errored += 1;
        } else {
            self.stats.writes_completed += 1;
        }
        self.stats.write_latency.record(latency);
    }

    fn retire_read_beat(&mut self, r: RBeat, cycle: u64) {
        let Some(pos) = self.await_r.iter().position(|x| x.txn.id == r.id) else {
            return; // stray beat; the TMU's protocol checks report it
        };
        let entry = &mut self.await_r[pos];
        if entry.check_data && !r.resp.is_error() && entry.beats_done < entry.txn.beats() {
            let txn = &entry.txn;
            let addr = beat_address(txn.addr, txn.size, txn.len, txn.burst, entry.beats_done);
            if let Some(expected) = self.scoreboard.get(&addr.0) {
                if *expected != r.data {
                    self.stats.data_mismatches += 1;
                }
            }
        }
        entry.beats_done += 1;
        if r.resp.is_error() {
            entry.errored = true;
        }
        if r.last || entry.beats_left() == 0 {
            let done = self.await_r.remove(pos);
            if done.errored || r.resp.is_error() {
                self.stats.reads_errored += 1;
            } else {
                self.stats.reads_completed += 1;
            }
            self.stats.read_latency.record(cycle - done.issued_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An immediate-response loopback subordinate for driving the
    /// manager standalone.
    #[derive(Debug, Default)]
    struct Loopback {
        w_expect: VecDeque<(u16, u16)>,
        b_owed: VecDeque<u16>,
        r_owed: VecDeque<(u16, u16)>,
    }

    impl Loopback {
        fn drive(&mut self, port: &mut AxiPort) {
            port.aw.set_ready(true);
            port.ar.set_ready(true);
            port.w.set_ready(!self.w_expect.is_empty());
            if let Some(id) = self.b_owed.front() {
                port.b.drive(BBeat::new(AxiId(*id), Resp::Okay));
            }
            if let Some((id, left)) = self.r_owed.front() {
                port.r
                    .drive(RBeat::new(AxiId(*id), 1, Resp::Okay, *left == 1));
            }
        }

        fn commit(&mut self, port: &AxiPort) {
            if let Some(aw) = port.aw.fired_beat() {
                self.w_expect.push_back((aw.id.0, aw.len.beats()));
            }
            if port.w.fires() {
                let front = self.w_expect.front_mut().unwrap();
                front.1 -= 1;
                if front.1 == 0 {
                    let (id, _) = self.w_expect.pop_front().unwrap();
                    self.b_owed.push_back(id);
                }
            }
            if port.b.fires() {
                self.b_owed.pop_front();
            }
            if let Some(ar) = port.ar.fired_beat() {
                self.r_owed.push_back((ar.id.0, ar.len.beats()));
            }
            if port.r.fires() {
                let front = self.r_owed.front_mut().unwrap();
                front.1 -= 1;
                if front.1 == 0 {
                    self.r_owed.pop_front();
                }
            }
        }
    }

    fn run(gen: &mut TrafficGen, cycles: u64) {
        let mut lb = Loopback::default();
        let mut port = AxiPort::new();
        for n in 0..cycles {
            port.begin_cycle();
            gen.drive(&mut port, n);
            lb.drive(&mut port);
            gen.commit(&port, n);
            lb.commit(&port);
        }
    }

    #[test]
    fn mixed_traffic_completes() {
        let mut gen = TrafficGen::new(
            TrafficPattern {
                total_txns: Some(20),
                ..TrafficPattern::default()
            },
            42,
        );
        run(&mut gen, 3000);
        assert!(gen.is_done(), "outstanding: {}", gen.outstanding());
        let s = gen.stats();
        assert_eq!(s.writes_issued + s.reads_issued, 20);
        assert_eq!(s.writes_completed, s.writes_issued);
        assert_eq!(s.reads_completed, s.reads_issued);
        assert_eq!(s.writes_errored + s.reads_errored, 0);
        assert!(s.write_latency.count() + s.read_latency.count() == 20);
    }

    #[test]
    fn single_write_script() {
        let mut gen = TrafficGen::new(TrafficPattern::single_write(3, 0x9000_0000, 16), 1);
        run(&mut gen, 200);
        assert!(gen.is_done());
        assert_eq!(gen.stats().writes_completed, 1);
        assert_eq!(gen.stats().w_beats, 16);
    }

    #[test]
    fn w_beats_equal_the_buffered_write_data() {
        let (id, addr) = (3, 0x9000_0000);
        let mut gen = TrafficGen::new(TrafficPattern::single_write(id, addr, 16), 1);
        // The burst as the generator used to buffer it.
        let expected = TxnBuilder::new(AxiId(id), Addr(addr))
            .size_bytes(8)
            .incr(16)
            .write((0..16u64).map(|i| addr ^ (i << 32) ^ 0xA5A5).collect())
            .unwrap();
        let mut lb = Loopback::default();
        let mut port = AxiPort::new();
        let mut aws = Vec::new();
        let mut ws = Vec::new();
        for n in 0..200 {
            port.begin_cycle();
            gen.drive(&mut port, n);
            lb.drive(&mut port);
            aws.extend(port.aw.fired_beat().copied());
            ws.extend(port.w.fired_beat().copied());
            gen.commit(&port, n);
            lb.commit(&port);
        }
        assert!(gen.is_done());
        assert_eq!(aws, vec![expected.aw_beat()]);
        let want: Vec<WBeat> = (0..16).map(|i| expected.w_beat(i)).collect();
        assert_eq!(ws, want);
    }

    #[test]
    fn single_read_script() {
        let pattern = TrafficPattern {
            write_ratio: 0.0,
            ..TrafficPattern::single_write(2, 0x9000_0000, 8)
        };
        let mut gen = TrafficGen::new(pattern, 1);
        run(&mut gen, 200);
        assert!(gen.is_done());
        assert_eq!(gen.stats().reads_completed, 1);
        assert_eq!(gen.stats().r_beats, 8);
    }

    #[test]
    fn respects_outstanding_limit() {
        let mut gen = TrafficGen::new(
            TrafficPattern {
                max_outstanding: 2,
                issue_gap: 0,
                ..TrafficPattern::default()
            },
            7,
        );
        // Without a subordinate nothing completes; outstanding must cap.
        let mut port = AxiPort::new();
        for n in 0..100 {
            port.begin_cycle();
            gen.drive(&mut port, n);
            gen.commit(&port, n);
            assert!(gen.outstanding() <= 2);
        }
    }

    #[test]
    fn slverr_abort_cancels_pending_data() {
        // Hand-drive: AW fires, one beat sent, then a SLVERR B arrives.
        let mut gen = TrafficGen::new(
            TrafficPattern {
                write_ratio: 1.0,
                burst_lens: vec![8],
                ids: vec![5],
                total_txns: Some(1),
                ..TrafficPattern::default()
            },
            9,
        );
        let mut port = AxiPort::new();
        // Cycle 0: AW fires.
        port.begin_cycle();
        gen.drive(&mut port, 0);
        port.aw.set_ready(true);
        gen.commit(&port, 0);
        // Cycle 1: one W beat fires.
        port.begin_cycle();
        gen.drive(&mut port, 1);
        port.w.set_ready(true);
        gen.commit(&port, 1);
        assert_eq!(gen.stats().w_beats, 1);
        // Cycle 2: SLVERR B (TMU abort). The error is recorded now but
        // AXI forbids cancelling the burst: remaining beats keep flowing.
        port.begin_cycle();
        gen.drive(&mut port, 2);
        port.b.drive(BBeat::abort(AxiId(5)));
        port.w.set_ready(true);
        gen.commit(&port, 2);
        assert_eq!(gen.stats().writes_errored, 1);
        assert!(gen.outstanding() > 0, "aborted burst still owes beats");
        // Cycles 3..: the zombie burst drains its remaining beats, then
        // disappears without expecting a second response.
        for n in 3..20 {
            port.begin_cycle();
            gen.drive(&mut port, n);
            port.w.set_ready(true);
            gen.commit(&port, n);
        }
        assert_eq!(gen.stats().w_beats, 8, "all beats delivered");
        assert_eq!(gen.outstanding(), 0);
        assert!(gen.is_done());
    }

    #[test]
    fn generated_bursts_never_cross_4k() {
        let mut gen = TrafficGen::new(
            TrafficPattern {
                burst_lens: vec![256],
                addr_base: 0x8000_0000,
                addr_span: 0x10000,
                total_txns: Some(50),
                max_outstanding: 50,
                issue_gap: 0,
                ..TrafficPattern::default()
            },
            11,
        );
        let mut port = AxiPort::new();
        let mut seen = 0;
        for n in 0..500 {
            port.begin_cycle();
            gen.drive(&mut port, n);
            if let Some(aw) = port.aw.beat() {
                use axi4::burst::crosses_4k_boundary;
                assert!(!crosses_4k_boundary(aw.addr, aw.size, aw.len, aw.burst));
                seen += 1;
            }
            if let Some(ar) = port.ar.beat() {
                use axi4::burst::crosses_4k_boundary;
                assert!(!crosses_4k_boundary(ar.addr, ar.size, ar.len, ar.burst));
            }
            port.aw.set_ready(true);
            port.ar.set_ready(true);
            gen.commit(&port, n);
        }
        assert!(seen > 0);
    }

    #[test]
    fn scoreboard_verifies_read_after_write() {
        // Against a real memory model (sole writer over a small window),
        // every read of a written word returns it: zero mismatches.
        let mut link = crate::link::GuardedLink::new(
            TrafficPattern {
                write_ratio: 0.5,
                burst_lens: vec![1, 2, 4],
                addr_base: 0x100,
                addr_span: 0x100,
                total_txns: Some(60),
                verify_data: true,
                ..TrafficPattern::default()
            },
            tmu::TmuConfig::default(),
            crate::memory::MemSub::default(),
            21,
        );
        assert!(link.run_until(20_000, |l| l.mgr.is_done()));
        assert!(link.mgr.stats().reads_completed > 5, "some reads happened");
        assert_eq!(
            link.mgr.stats().data_mismatches,
            0,
            "memory returns written data"
        );
    }

    #[test]
    fn scoreboard_catches_corruption() {
        // A loopback that answers every read with garbage: once the
        // manager has written (and remembered) a word, reading it back
        // must increment the mismatch counter.
        #[derive(Debug, Default)]
        struct LyingLoopback(Loopback);
        impl LyingLoopback {
            fn drive(&mut self, port: &mut AxiPort) {
                self.0.drive(port);
                port.r.corrupt(|r| r.data ^= 0xFFFF_0000);
            }
            fn commit(&mut self, port: &AxiPort) {
                self.0.commit(port);
            }
        }
        let mut gen = TrafficGen::new(
            TrafficPattern {
                write_ratio: 0.5,
                burst_lens: vec![1],
                ids: vec![0],
                addr_base: 0x40,
                addr_span: 1, // single address: reads hit written data
                total_txns: Some(20),
                verify_data: true,
                ..TrafficPattern::default()
            },
            23,
        );
        let mut lb = LyingLoopback::default();
        let mut port = AxiPort::new();
        for n in 0..4000 {
            port.begin_cycle();
            gen.drive(&mut port, n);
            lb.drive(&mut port);
            gen.commit(&port, n);
            lb.commit(&port);
        }
        assert!(gen.is_done());
        assert!(
            gen.stats().data_mismatches > 0,
            "corrupted read data must be flagged"
        );
    }

    /// Hand-drives one manager against a subordinate that answers every
    /// read with stale data (0), one transaction at a time.
    struct StaleBench {
        gen: TrafficGen,
        port: AxiPort,
        cycle: u64,
    }

    impl StaleBench {
        fn step(&mut self, sub: impl FnOnce(&mut AxiPort)) {
            self.port.begin_cycle();
            self.gen.drive(&mut self.port, self.cycle);
            sub(&mut self.port);
            self.gen.commit(&self.port, self.cycle);
            self.cycle += 1;
        }

        /// Generates one single-beat transaction at `addr` and fires its
        /// address.
        fn issue(&mut self, write: bool, addr: u64) {
            let pattern = &mut self.gen.pattern;
            pattern.write_ratio = if write { 1.0 } else { 0.0 };
            pattern.addr_base = addr;
            pattern.total_txns = Some(self.gen.issued + 1);
            self.step(|p| {
                p.aw.set_ready(true);
                p.ar.set_ready(true);
                assert!(p.aw.fires() || p.ar.fires());
            });
        }

        /// Takes the oldest write's beat and answers it.
        fn finish_write(&mut self) {
            self.step(|p| p.w.set_ready(true));
            self.step(|p| p.b.drive(BBeat::new(AxiId(0), Resp::Okay)));
        }

        /// Answers the oldest read with stale data.
        fn finish_read(&mut self) {
            self.step(|p| p.r.drive(RBeat::new(AxiId(0), 0, Resp::Okay, true)));
        }
    }

    #[test]
    fn reads_racing_an_overlapping_write_are_not_data_checked() {
        let mut bench = StaleBench {
            gen: TrafficGen::new(
                TrafficPattern {
                    burst_lens: vec![1],
                    ids: vec![0],
                    addr_span: 1,
                    max_outstanding: 8,
                    issue_gap: 0,
                    verify_data: true,
                    ..TrafficPattern::default()
                },
                3,
            ),
            port: AxiPort::new(),
            cycle: 0,
        };
        // A read whose address fires while an overlapping write's data is
        // still owed may see either data.
        bench.issue(true, 0x40);
        bench.issue(false, 0x40);
        bench.finish_write();
        bench.finish_read();
        assert_eq!(bench.gen.stats().data_mismatches, 0);
        // A write in flight elsewhere does not exempt the read.
        bench.issue(true, 0x1000);
        bench.issue(false, 0x40);
        bench.finish_read();
        bench.finish_write();
        assert_eq!(
            bench.gen.stats().data_mismatches,
            1,
            "stale data is flagged"
        );
        // A read is exempted too when an overlapping write is generated
        // before its data returns.
        bench.issue(false, 0x40);
        bench.issue(true, 0x40);
        bench.finish_read();
        bench.finish_write();
        assert_eq!(bench.gen.stats().data_mismatches, 1);
        let s = bench.gen.stats();
        assert_eq!((s.writes_completed, s.reads_completed), (3, 3));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let mut a = TrafficGen::new(TrafficPattern::default(), 5);
        let mut b = TrafficGen::new(TrafficPattern::default(), 5);
        run(&mut a, 500);
        run(&mut b, 500);
        assert_eq!(a.stats().writes_issued, b.stats().writes_issued);
        assert_eq!(a.stats().reads_issued, b.stats().reads_issued);
        assert_eq!(a.stats().w_beats, b.stats().w_beats);
    }
}
