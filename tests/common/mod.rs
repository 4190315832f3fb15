//! Stimulus shared by the TMU property suites.

use axi_tmu::axi4::prelude::*;
use axi_tmu::sim::SimRng;

mod cases;
pub use cases::cases;

/// Arbitrary wires: each cycle every driver picks a fresh beat, except
/// that a beat left waiting is usually driven again unchanged.
pub struct ArbitraryWires {
    rng: SimRng,
    held_aw: Option<AwBeat>,
    held_w: Option<WBeat>,
    held_b: Option<BBeat>,
    held_ar: Option<ArBeat>,
    held_r: Option<RBeat>,
}

impl ArbitraryWires {
    pub fn new(seed: u64) -> Self {
        ArbitraryWires {
            rng: SimRng::seed(seed).split("wires"),
            held_aw: None,
            held_w: None,
            held_b: None,
            held_ar: None,
            held_r: None,
        }
    }

    fn burst(&mut self) -> (AxiId, Addr, BurstLen, BurstSize, BurstKind) {
        let rng = &mut self.rng;
        let id = AxiId(rng.below(6) as u16);
        let addr = Addr(rng.below(0x2000) & !0x7);
        let len = BurstLen::from_beats(1 + rng.below(4) as u16).expect("1..=4 beats");
        let size = BurstSize::from_bytes(if rng.chance(0.02) { 16 } else { 8 }).expect("legal");
        let kind = match rng.below(50) {
            0 => BurstKind::Wrap,
            1 => BurstKind::Fixed,
            2 => BurstKind::Reserved,
            _ => BurstKind::Incr,
        };
        (id, addr, len, size, kind)
    }

    /// Re-drives `held` with probability 0.97, else maybe a new beat.
    fn pick<T: Copy>(
        rng: &mut SimRng,
        held: Option<T>,
        p_new: f64,
        new: impl FnOnce(&mut SimRng) -> T,
    ) -> Option<T> {
        match held {
            Some(beat) if rng.chance(0.97) => Some(beat),
            _ if rng.chance(p_new) => Some(new(rng)),
            _ => None,
        }
    }

    /// Drives the manager side: AW, W, AR and the B/R `ready`s.
    pub fn drive_manager(&mut self, port: &mut AxiPort) {
        let (id, addr, len, size, kind) = self.burst();
        if let Some(aw) = Self::pick(&mut self.rng, self.held_aw, 0.3, |_| {
            AwBeat::new(id, addr, len, size, kind)
        }) {
            port.aw.drive(aw);
        }
        if let Some(w) = Self::pick(&mut self.rng, self.held_w, 0.5, |rng| {
            let strb = if rng.chance(0.01) { 0 } else { 0xff };
            WBeat::with_strobes(rng.below(1 << 16), strb, rng.chance(0.4))
        }) {
            port.w.drive(w);
        }
        let (id, addr, len, size, kind) = self.burst();
        if let Some(ar) = Self::pick(&mut self.rng, self.held_ar, 0.3, |_| {
            ArBeat::new(id, addr, len, size, kind)
        }) {
            port.ar.drive(ar);
        }
        port.b.set_ready(self.rng.chance(0.8));
        port.r.set_ready(self.rng.chance(0.8));
    }

    /// Drives the subordinate side: the AW/W/AR `ready`s, B and R.
    pub fn drive_subordinate(&mut self, port: &mut AxiPort) {
        port.aw.set_ready(self.rng.chance(0.7));
        port.w.set_ready(self.rng.chance(0.7));
        port.ar.set_ready(self.rng.chance(0.7));
        if let Some(b) = Self::pick(&mut self.rng, self.held_b, 0.1, |rng| {
            BBeat::new(AxiId(rng.below(6) as u16), Resp::Okay)
        }) {
            port.b.drive(b);
        }
        if let Some(r) = Self::pick(&mut self.rng, self.held_r, 0.2, |rng| {
            RBeat::new(AxiId(rng.below(6) as u16), 0, Resp::Okay, rng.chance(0.4))
        }) {
            port.r.drive(r);
        }
    }

    /// Remembers the settled manager-side beats still waiting.
    pub fn settle(&mut self, mgr: &AxiPort) {
        fn waiting<T: Copy>(ch: &Channel<T>) -> Option<T> {
            if ch.fires() {
                None
            } else {
                ch.beat().copied()
            }
        }
        self.held_aw = waiting(&mgr.aw);
        self.held_w = waiting(&mgr.w);
        self.held_b = waiting(&mgr.b);
        self.held_ar = waiting(&mgr.ar);
        self.held_r = waiting(&mgr.r);
    }
}
