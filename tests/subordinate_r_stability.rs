//! The memory and Ethernet models hold a stalled R beat stable.
//!
//! AXI requires a beat waiting for `ready` to keep its payload. A read
//! whose first beat is held off by back-pressure while a write to the
//! same words lands must still return the data it first drove. A
//! standalone protocol checker watches the subordinate's port.

use axi_tmu::axi4::prelude::*;
use axi_tmu::soc::ethernet::EthSub;
use axi_tmu::soc::link::AxiSubordinate;
use axi_tmu::soc::memory::{MemConfig, MemSub};

/// Reads 4 beats at `addr`, holds R `ready` low once the first R beat
/// is offered, writes the same 4 words meanwhile, and releases R only
/// after the write's B. Returns the checker's violations.
#[allow(clippy::panic)] // a test helper's panic is the failure report
fn stalled_read_overlapped_by_write(sub: &mut impl AxiSubordinate, addr: u64) -> Vec<Violation> {
    let read = TxnBuilder::new(AxiId(1), Addr(addr))
        .incr(4)
        .read()
        .expect("legal read");
    let write = TxnBuilder::new(AxiId(2), Addr(addr))
        .incr(4)
        .write(vec![0x1111, 0x2222, 0x3333, 0x4444])
        .expect("legal write");
    let mut checker = ProtocolChecker::new();
    let mut violations = Vec::new();
    let (mut ar_done, mut r_offered, mut aw_done, mut b_done) = (false, false, false, false);
    let (mut w_sent, mut r_beats) = (0, 0);
    let mut port = AxiPort::new();
    for cycle in 0..500 {
        port.begin_cycle();
        if !ar_done {
            port.ar.drive(read.ar_beat());
        }
        if r_offered && !aw_done {
            port.aw.drive(write.aw_beat());
        }
        if aw_done && w_sent < write.beats() {
            port.w.drive(write.w_beat(w_sent));
        }
        port.b.set_ready(true);
        port.r.set_ready(b_done);
        sub.drive(&mut port);
        violations.extend(checker.observe(&port, cycle));
        ar_done |= port.ar.fires();
        r_offered |= port.r.valid();
        aw_done |= port.aw.fires();
        w_sent += u16::from(port.w.fires());
        b_done |= port.b.fires();
        if port.r.fires() {
            r_beats += 1;
        }
        sub.commit(&port);
        if r_beats == read.beats() {
            assert!(b_done, "the write landed while the read was stalled");
            return violations;
        }
    }
    panic!("read did not complete: {r_beats} beats");
}

#[test]
fn memory_holds_stalled_r_beat_across_overlapping_write() {
    let mut mem = MemSub::new(MemConfig {
        r_warmup: 0,
        ..MemConfig::default()
    });
    let violations = stalled_read_overlapped_by_write(&mut mem, 0x1000);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn ethernet_holds_stalled_r_beat_across_overlapping_write() {
    let mut eth = EthSub::default();
    let violations = stalled_read_overlapped_by_write(&mut eth, 0x0);
    assert!(violations.is_empty(), "{violations:?}");
}
