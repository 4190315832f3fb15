//! The valid/ready handshake wire model.
//!
//! A [`Channel`] models the combinational wires of one AXI channel for the
//! current cycle: a driver asserts `valid` together with a payload, a
//! receiver asserts `ready`, and the beat *fires* (transfers) iff both are
//! high when the clock commits. All wires are cleared at the start of every
//! cycle by [`Channel::begin_cycle`] / [`AxiPort::begin_cycle`] and must be
//! re-driven — exactly like combinational outputs of registered logic.
//!
//! The payload *is* the `valid` wire: `valid` is high iff a payload is
//! present, so there is one source of truth and every pass over the wires
//! clears, copies and tests one field.

use std::fmt;

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

/// One AXI channel's wires for the current cycle.
///
/// The type parameter `T` is the beat payload ([`AwBeat`], [`WBeat`], …).
/// `valid` is the payload's presence; the only other wire is `ready`.
///
/// # Example
///
/// ```
/// use axi4::{Channel, WBeat};
///
/// let mut ch: Channel<WBeat> = Channel::new();
/// ch.begin_cycle();
/// ch.drive(WBeat::new(42, true));
/// assert!(ch.valid() && !ch.fires());
/// ch.set_ready(true);
/// assert!(ch.fires());
/// assert_eq!(ch.beat().unwrap().data, 42);
/// ```
#[derive(Debug, Clone)]
pub struct Channel<T> {
    ready: bool,
    payload: Option<T>,
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Channel::new()
    }
}

impl<T> Channel<T> {
    /// Creates an idle channel (no valid, no ready).
    #[must_use]
    pub fn new() -> Self {
        Channel {
            ready: false,
            payload: None,
        }
    }

    /// Clears all wires for a new cycle. Call before any drive pass.
    pub fn begin_cycle(&mut self) {
        self.ready = false;
        self.payload = None;
    }

    /// Drives `valid` high with `beat` as the payload.
    pub fn drive(&mut self, beat: T) {
        self.payload = Some(beat);
    }

    /// Drives the receiver-side `ready` wire.
    pub fn set_ready(&mut self, ready: bool) {
        self.ready = ready;
    }

    /// The `valid` wire: whether a payload is driven.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.payload.is_some()
    }

    /// The `ready` wire.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// True iff the beat transfers at the next clock commit
    /// (`valid && ready`).
    #[must_use]
    pub fn fires(&self) -> bool {
        self.ready && self.payload.is_some()
    }

    /// The payload currently on the wires, if `valid` is driven.
    #[must_use]
    pub fn beat(&self) -> Option<&T> {
        self.payload.as_ref()
    }

    /// The payload if the handshake fires this cycle.
    #[must_use]
    pub fn fired_beat(&self) -> Option<&T> {
        if self.ready {
            self.payload.as_ref()
        } else {
            None
        }
    }

    /// Forces `valid` low and drops the payload — models a driver that
    /// fails to present its beat (fault injection).
    pub fn suppress_valid(&mut self) {
        self.payload = None;
    }

    /// Mutates the driven payload in place, if `valid` is high — models
    /// wire corruption (fault injection). No-op on an idle channel.
    pub fn corrupt(&mut self, f: impl FnOnce(&mut T)) {
        if let Some(p) = self.payload.as_mut() {
            f(p);
        }
    }
}

impl<T: Clone> Channel<T> {
    /// Copies the driver-side wires (`valid` + payload) from `src` onto
    /// this channel — the forwarding a pass-through monitor performs.
    pub fn forward_driver_from(&mut self, src: &Channel<T>) {
        self.payload = src.payload.clone();
    }

    /// Copies the receiver-side wire (`ready`) from `src` onto this
    /// channel.
    pub fn forward_ready_from(&mut self, src: &Channel<T>) {
        self.ready = src.ready;
    }
}

impl<T: fmt::Display> fmt::Display for Channel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Some(p) => write!(f, "[{} v=1 r={}]", p, u8::from(self.ready)),
            None => write!(f, "[idle r={}]", u8::from(self.ready)),
        }
    }
}

/// The five-channel AXI4 port bundle seen at one interface.
///
/// Naming follows the subordinate's perspective for requests: `aw`, `w`
/// and `ar` are driven by the manager; `b` and `r` are driven by the
/// subordinate.
#[derive(Debug, Clone, Default)]
pub struct AxiPort {
    /// Write-address channel.
    pub aw: Channel<AwBeat>,
    /// Write-data channel.
    pub w: Channel<WBeat>,
    /// Write-response channel.
    pub b: Channel<BBeat>,
    /// Read-address channel.
    pub ar: Channel<ArBeat>,
    /// Read-data channel.
    pub r: Channel<RBeat>,
}

impl AxiPort {
    /// Creates an idle port.
    #[must_use]
    pub fn new() -> Self {
        AxiPort::default()
    }

    /// Clears all ten wire groups for a new cycle.
    pub fn begin_cycle(&mut self) {
        self.aw.begin_cycle();
        self.w.begin_cycle();
        self.b.begin_cycle();
        self.ar.begin_cycle();
        self.r.begin_cycle();
    }

    /// Forwards all manager-driven wires (AW/W/AR valid+payload, B/R
    /// ready) from `mgr` onto this port. Used by pass-through monitors.
    pub fn forward_request_from(&mut self, mgr: &AxiPort) {
        self.aw.forward_driver_from(&mgr.aw);
        self.w.forward_driver_from(&mgr.w);
        self.ar.forward_driver_from(&mgr.ar);
        self.b.forward_ready_from(&mgr.b);
        self.r.forward_ready_from(&mgr.r);
    }

    /// Forwards all subordinate-driven wires (B/R valid+payload, AW/W/AR
    /// ready) from `sub` onto this port.
    pub fn forward_response_from(&mut self, sub: &AxiPort) {
        self.b.forward_driver_from(&sub.b);
        self.r.forward_driver_from(&sub.r);
        self.aw.forward_ready_from(&sub.aw);
        self.w.forward_ready_from(&sub.w);
        self.ar.forward_ready_from(&sub.ar);
    }
}

impl fmt::Display for AxiPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AW{} W{} B{} AR{} R{}",
            self.aw, self.w, self.b, self.ar, self.r
        )
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize};

    fn aw_beat() -> AwBeat {
        AwBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::SINGLE,
            BurstSize::default(),
            BurstKind::Incr,
        )
    }

    #[test]
    fn channel_idle_by_default() {
        let ch: Channel<WBeat> = Channel::new();
        assert!(!ch.valid() && !ch.ready() && !ch.fires());
        assert!(ch.beat().is_none());
    }

    #[test]
    fn fires_requires_both_wires() {
        let mut ch = Channel::new();
        ch.drive(WBeat::new(1, false));
        assert!(!ch.fires());
        ch.set_ready(true);
        assert!(ch.fires());
        assert_eq!(ch.fired_beat().unwrap().data, 1);
    }

    #[test]
    fn ready_without_valid_does_not_fire() {
        let mut ch: Channel<WBeat> = Channel::new();
        ch.set_ready(true);
        assert!(!ch.fires());
        assert!(ch.fired_beat().is_none());
    }

    #[test]
    fn begin_cycle_clears_everything() {
        let mut ch = Channel::new();
        ch.drive(WBeat::new(1, true));
        ch.set_ready(true);
        ch.begin_cycle();
        assert!(!ch.valid() && !ch.ready());
        assert!(ch.beat().is_none());
    }

    #[test]
    fn forwarding_copies_each_direction_separately() {
        let mut src = Channel::new();
        src.drive(WBeat::new(9, true));
        src.set_ready(true);

        let mut dst: Channel<WBeat> = Channel::new();
        dst.forward_driver_from(&src);
        assert!(dst.valid());
        assert!(!dst.ready(), "ready must not leak through driver forward");

        let mut dst2: Channel<WBeat> = Channel::new();
        dst2.forward_ready_from(&src);
        assert!(dst2.ready());
        assert!(!dst2.valid(), "valid must not leak through ready forward");
    }

    #[test]
    fn port_forwarding_request_and_response() {
        let mut mgr = AxiPort::new();
        mgr.aw.drive(aw_beat());
        mgr.b.set_ready(true);

        let mut sub = AxiPort::new();
        sub.forward_request_from(&mgr);
        assert!(sub.aw.valid());
        assert!(sub.b.ready());

        sub.aw.set_ready(true);
        sub.b.drive(BBeat::new(AxiId(0), crate::types::Resp::Okay));
        mgr.forward_response_from(&sub);
        assert!(mgr.aw.fires());
        assert!(mgr.b.fires());
    }

    #[test]
    fn display_is_nonempty() {
        let port = AxiPort::new();
        assert!(!port.to_string().is_empty());
    }

    #[test]
    fn corrupt_on_an_idle_channel_is_a_no_op() {
        let mut ch: Channel<WBeat> = Channel::new();
        ch.set_ready(true);
        ch.corrupt(|_| panic!("an idle channel has no payload to corrupt"));
        assert!(!ch.valid() && ch.ready() && ch.beat().is_none());
    }

    #[test]
    fn forwarding_an_idle_driver_clears_a_driven_one() {
        let idle: Channel<WBeat> = Channel::new();
        let mut dst = Channel::new();
        dst.drive(WBeat::new(7, true));
        dst.set_ready(true);
        dst.forward_driver_from(&idle);
        assert!(!dst.valid() && !dst.fires() && dst.beat().is_none());
        assert!(dst.ready(), "ready is the receiver's wire");
    }

    /// The two-field wire model (`valid` beside the payload) the channel
    /// is checked against: every writer sets both fields.
    #[derive(Debug, Clone)]
    struct TwoFieldChannel<T> {
        valid: bool,
        ready: bool,
        payload: Option<T>,
    }

    impl<T: Clone + fmt::Display> TwoFieldChannel<T> {
        fn new() -> Self {
            TwoFieldChannel {
                valid: false,
                ready: false,
                payload: None,
            }
        }

        fn begin_cycle(&mut self) {
            *self = Self::new();
        }

        fn drive(&mut self, beat: T) {
            self.valid = true;
            self.payload = Some(beat);
        }

        fn suppress_valid(&mut self) {
            self.valid = false;
            self.payload = None;
        }

        fn corrupt(&mut self, f: impl FnOnce(&mut T)) {
            if self.valid {
                if let Some(p) = self.payload.as_mut() {
                    f(p);
                }
            }
        }

        fn forward_driver_from(&mut self, src: &TwoFieldChannel<T>) {
            self.valid = src.valid;
            self.payload = src.payload.clone();
        }

        fn fires(&self) -> bool {
            self.valid && self.ready
        }

        fn beat(&self) -> Option<&T> {
            self.payload.as_ref().filter(|_| self.valid)
        }

        fn fired_beat(&self) -> Option<&T> {
            self.payload.as_ref().filter(|_| self.fires())
        }

        fn display(&self) -> String {
            match (&self.payload, self.valid) {
                (Some(p), true) => format!("[{} v=1 r={}]", p, u8::from(self.ready)),
                _ => format!("[idle r={}]", u8::from(self.ready)),
            }
        }
    }

    /// One wire operation; the forwards take a source channel given by
    /// its payload and `ready`.
    #[derive(Debug, Clone)]
    enum Op<T> {
        BeginCycle,
        Drive(T),
        SetReady(bool),
        SuppressValid,
        Corrupt,
        ForwardDriver(Option<T>, bool),
        ForwardReady(Option<T>, bool),
    }

    fn ops<S>(beat: impl Fn() -> S) -> impl Strategy<Value = Vec<Op<S::Value>>>
    where
        S: Strategy + 'static,
        S::Value: Clone,
    {
        let source = || (any::<bool>(), beat(), any::<bool>());
        let op = prop_oneof![
            Just(Op::BeginCycle),
            beat().prop_map(Op::Drive),
            any::<bool>().prop_map(Op::SetReady),
            Just(Op::SuppressValid),
            Just(Op::Corrupt),
            source().prop_map(|(on, b, r)| Op::ForwardDriver(on.then_some(b), r)),
            source().prop_map(|(on, b, r)| Op::ForwardReady(on.then_some(b), r)),
        ];
        prop::collection::vec(op, 1..64)
    }

    /// A source channel for the forwards, in both models.
    fn source<T: Clone + fmt::Display>(
        payload: Option<T>,
        ready: bool,
    ) -> (Channel<T>, TwoFieldChannel<T>) {
        let mut src = Channel::new();
        let mut src_ref = TwoFieldChannel::new();
        if let Some(beat) = payload {
            src.drive(beat.clone());
            src_ref.drive(beat);
        }
        src.set_ready(ready);
        src_ref.ready = ready;
        (src, src_ref)
    }

    /// Applies `ops` to a [`Channel`] and to the two-field reference and
    /// compares every observer after each one.
    fn same_wires<T>(ops: &[Op<T>], corrupt: fn(&mut T))
    where
        T: Clone + PartialEq + fmt::Debug + fmt::Display,
    {
        let mut ch = Channel::new();
        let mut reference = TwoFieldChannel::new();
        for (step, op) in ops.iter().cloned().enumerate() {
            match op {
                Op::BeginCycle => {
                    ch.begin_cycle();
                    reference.begin_cycle();
                }
                Op::Drive(beat) => {
                    ch.drive(beat.clone());
                    reference.drive(beat);
                }
                Op::SetReady(ready) => {
                    ch.set_ready(ready);
                    reference.ready = ready;
                }
                Op::SuppressValid => {
                    ch.suppress_valid();
                    reference.suppress_valid();
                }
                Op::Corrupt => {
                    ch.corrupt(corrupt);
                    reference.corrupt(corrupt);
                }
                Op::ForwardDriver(payload, ready) => {
                    let (src, src_ref) = source(payload, ready);
                    ch.forward_driver_from(&src);
                    reference.forward_driver_from(&src_ref);
                }
                Op::ForwardReady(payload, ready) => {
                    let (src, src_ref) = source(payload, ready);
                    ch.forward_ready_from(&src);
                    reference.ready = src_ref.ready;
                }
            }
            prop_assert_eq!(ch.valid(), reference.valid, "valid after step {}", step);
            prop_assert_eq!(ch.ready(), reference.ready, "ready after step {}", step);
            prop_assert_eq!(ch.fires(), reference.fires(), "fires after step {}", step);
            prop_assert_eq!(ch.beat(), reference.beat(), "beat after step {}", step);
            prop_assert_eq!(
                ch.fired_beat(),
                reference.fired_beat(),
                "fired_beat after step {}",
                step
            );
            prop_assert_eq!(
                ch.to_string(),
                reference.display(),
                "display after step {}",
                step
            );
        }
    }

    fn w_beat() -> impl Strategy<Value = WBeat> {
        (any::<u64>(), any::<bool>()).prop_map(|(data, last)| WBeat::new(data, last))
    }

    fn aw_beat_any() -> impl Strategy<Value = AwBeat> {
        (0u16..16, any::<u64>(), 1u16..=16).prop_map(|(id, addr, beats)| {
            AwBeat::new(
                AxiId(id),
                Addr(addr),
                BurstLen::from_beats(beats).expect("1..=16 beats"),
                BurstSize::default(),
                BurstKind::Incr,
            )
        })
    }

    proptest! {
        #[test]
        fn w_wires_match_the_two_field_model(ops in ops(w_beat)) {
            same_wires(&ops, |w| w.data ^= 0xFFFF_0000);
        }

        #[test]
        fn aw_wires_match_the_two_field_model(ops in ops(aw_beat_any)) {
            same_wires(&ops, |aw| aw.id = AxiId(aw.id.0 ^ 0x3f5));
        }
    }
}
