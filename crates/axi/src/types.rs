//! Scalar vocabulary of the AXI4 protocol.
//!
//! These newtypes keep the rest of the code base honest about what a raw
//! integer means: a transaction ID is not an address is not a burst length.

#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;

/// An AXI4 transaction identifier (`AWID`/`ARID`/`BID`/`RID`).
///
/// AXI4 permits ID widths up to implementation-defined limits; 16 bits is
/// plenty for the subordinate-side links the TMU guards. The TMU's ID
/// remapper compacts this potentially sparse space into a dense internal
/// index (see the `tmu` crate).
///
/// ```
/// use axi4::AxiId;
/// let id = AxiId(0x2a);
/// assert_eq!(format!("{id}"), "ID#42");
/// assert_eq!(format!("{id:x}"), "2a");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AxiId(pub u16);

impl fmt::Display for AxiId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ID#{}", self.0)
    }
}

impl fmt::LowerHex for AxiId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u16> for AxiId {
    #[inline]
    fn from(raw: u16) -> Self {
        AxiId(raw)
    }
}

/// A byte address on the AXI bus (`AWADDR`/`ARADDR`).
///
/// ```
/// use axi4::Addr;
/// let a = Addr(0x8000_1000);
/// assert_eq!(a.offset(0x10).0, 0x8000_1010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns this address displaced by `bytes` (wrapping on overflow,
    /// matching hardware adder behaviour).
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Returns the address aligned *down* to `bytes` (which must be a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two.
    #[inline]
    #[must_use]
    pub fn align_down(self, bytes: u64) -> Addr {
        assert!(bytes.is_power_of_two(), "alignment must be a power of two");
        Addr(self.0 & !(bytes - 1))
    }

    /// True if the address is aligned to `bytes` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two.
    #[inline]
    #[must_use]
    pub fn is_aligned(self, bytes: u64) -> bool {
        assert!(bytes.is_power_of_two(), "alignment must be a power of two");
        self.0 & (bytes - 1) == 0
    }
}

impl fmt::Display for Addr {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    #[inline]
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// The AXI4 burst type (`AWBURST`/`ARBURST`).
///
/// The two-bit encoding `0b11` is reserved by the specification; issuing it
/// is a protocol violation that the checker (and the TMU guard modules)
/// flag as [`crate::checker::Rule::BurstReserved`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BurstKind {
    /// Every beat targets the same address (FIFO-style peripherals).
    Fixed,
    /// Each beat increments the address by the beat size. The common case.
    #[default]
    Incr,
    /// Incrementing with wrap-around at an aligned boundary (cache lines).
    Wrap,
    /// The reserved `0b11` encoding — always a protocol violation.
    Reserved,
}

impl BurstKind {
    /// Decodes the two-bit wire encoding.
    ///
    /// ```
    /// use axi4::BurstKind;
    /// assert_eq!(BurstKind::from_bits(0b01), BurstKind::Incr);
    /// assert_eq!(BurstKind::from_bits(0b11), BurstKind::Reserved);
    /// ```
    #[inline]
    #[must_use]
    pub fn from_bits(bits: u8) -> BurstKind {
        match bits & 0b11 {
            0b00 => BurstKind::Fixed,
            0b01 => BurstKind::Incr,
            0b10 => BurstKind::Wrap,
            _ => BurstKind::Reserved,
        }
    }

    /// Encodes to the two-bit wire representation.
    #[inline]
    #[must_use]
    pub fn to_bits(self) -> u8 {
        match self {
            BurstKind::Fixed => 0b00,
            BurstKind::Incr => 0b01,
            BurstKind::Wrap => 0b10,
            BurstKind::Reserved => 0b11,
        }
    }
}

impl fmt::Display for BurstKind {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BurstKind::Fixed => "FIXED",
            BurstKind::Incr => "INCR",
            BurstKind::Wrap => "WRAP",
            BurstKind::Reserved => "RESERVED",
        };
        f.write_str(s)
    }
}

/// The AXI4 burst length field (`AWLEN`/`ARLEN`).
///
/// On the wire this is *beats − 1*: `AWLEN = 0` means one beat, `AWLEN =
/// 255` means 256 beats (the AXI4 maximum for INCR bursts).
///
/// ```
/// use axi4::BurstLen;
/// let len = BurstLen::from_beats(16).unwrap();
/// assert_eq!(len.raw(), 15);
/// assert_eq!(len.beats(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BurstLen(u8);

impl BurstLen {
    /// A single-beat burst (`AWLEN = 0`).
    pub const SINGLE: BurstLen = BurstLen(0);
    /// The longest AXI4 INCR burst (256 beats).
    pub const MAX: BurstLen = BurstLen(255);

    /// Constructs from the raw wire value (*beats − 1*).
    #[inline]
    #[must_use]
    pub fn from_raw(raw: u8) -> BurstLen {
        BurstLen(raw)
    }

    /// Constructs from a beat count in `1..=256`; returns `None` outside
    /// that range.
    #[inline]
    #[must_use]
    pub fn from_beats(beats: u16) -> Option<BurstLen> {
        if (1..=256).contains(&beats) {
            Some(BurstLen((beats - 1) as u8))
        } else {
            None
        }
    }

    /// The raw wire value (*beats − 1*).
    #[inline]
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// The number of data beats in the burst (`1..=256`).
    #[inline]
    #[must_use]
    pub fn beats(self) -> u16 {
        u16::from(self.0) + 1
    }

    /// True if this length is legal for a WRAP burst (2, 4, 8 or 16
    /// beats per the AXI4 specification).
    #[inline]
    #[must_use]
    pub fn is_legal_wrap(self) -> bool {
        matches!(self.beats(), 2 | 4 | 8 | 16)
    }
}

impl fmt::Display for BurstLen {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} beats", self.beats())
    }
}

/// The AXI4 burst size field (`AWSIZE`/`ARSIZE`): log2 of the bytes per
/// beat.
///
/// ```
/// use axi4::BurstSize;
/// let size = BurstSize::from_bytes(8).unwrap(); // 64-bit bus
/// assert_eq!(size.raw(), 3);
/// assert_eq!(size.bytes(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BurstSize(u8);

impl BurstSize {
    /// The largest size AXI4 encodes (128 bytes per beat).
    pub const MAX_RAW: u8 = 7;

    /// Constructs from the raw 3-bit wire value (log2 bytes); returns
    /// `None` above 7.
    #[inline]
    #[must_use]
    pub fn from_raw(raw: u8) -> Option<BurstSize> {
        (raw <= Self::MAX_RAW).then_some(BurstSize(raw))
    }

    /// Constructs from a power-of-two byte count in `1..=128`.
    #[inline]
    #[must_use]
    pub fn from_bytes(bytes: u32) -> Option<BurstSize> {
        if bytes.is_power_of_two() && (1..=128).contains(&bytes) {
            Some(BurstSize(bytes.trailing_zeros() as u8))
        } else {
            None
        }
    }

    /// The raw wire value (log2 of the bytes per beat).
    #[inline]
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Bytes transferred per beat.
    #[inline]
    #[must_use]
    pub fn bytes(self) -> u32 {
        1 << self.0
    }
}

impl Default for BurstSize {
    /// Defaults to 8 bytes per beat — the 64-bit data bus used throughout
    /// the paper's system-level evaluation.
    #[inline]
    fn default() -> Self {
        BurstSize(3)
    }
}

impl fmt::Display for BurstSize {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B/beat", self.bytes())
    }
}

/// The AXI4 response code (`BRESP`/`RRESP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Resp {
    /// Normal access success.
    #[default]
    Okay,
    /// Exclusive access success.
    ExOkay,
    /// Subordinate error — the code the TMU forces when aborting
    /// transactions of a faulty subordinate.
    SlvErr,
    /// Decode error (no subordinate at the address).
    DecErr,
}

impl Resp {
    /// Decodes the two-bit wire encoding.
    #[inline]
    #[must_use]
    pub fn from_bits(bits: u8) -> Resp {
        match bits & 0b11 {
            0b00 => Resp::Okay,
            0b01 => Resp::ExOkay,
            0b10 => Resp::SlvErr,
            _ => Resp::DecErr,
        }
    }

    /// Encodes to the two-bit wire representation.
    #[inline]
    #[must_use]
    pub fn to_bits(self) -> u8 {
        match self {
            Resp::Okay => 0b00,
            Resp::ExOkay => 0b01,
            Resp::SlvErr => 0b10,
            Resp::DecErr => 0b11,
        }
    }

    /// True for the two error responses (`SLVERR`, `DECERR`).
    #[inline]
    #[must_use]
    pub fn is_error(self) -> bool {
        matches!(self, Resp::SlvErr | Resp::DecErr)
    }
}

impl fmt::Display for Resp {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resp::Okay => "OKAY",
            Resp::ExOkay => "EXOKAY",
            Resp::SlvErr => "SLVERR",
            Resp::DecErr => "DECERR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axi_id_roundtrip_and_display() {
        let id = AxiId::from(7u16);
        assert_eq!(id.0, 7);
        assert_eq!(id.to_string(), "ID#7");
        assert_eq!(format!("{id:x}"), "7");
    }

    #[test]
    fn addr_offset_wraps() {
        assert_eq!(Addr(u64::MAX).offset(1), Addr(0));
    }

    #[test]
    fn addr_alignment() {
        let a = Addr(0x1234);
        assert_eq!(a.align_down(0x100), Addr(0x1200));
        assert!(a.is_aligned(4));
        assert!(!a.is_aligned(8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn addr_align_rejects_non_power_of_two() {
        let _ = Addr(0).align_down(3);
    }

    #[test]
    fn burst_kind_bit_roundtrip() {
        for bits in 0..4u8 {
            assert_eq!(BurstKind::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(BurstKind::from_bits(0b11), BurstKind::Reserved);
        assert_eq!(BurstKind::default(), BurstKind::Incr);
    }

    #[test]
    fn burst_len_encodings() {
        assert_eq!(BurstLen::SINGLE.beats(), 1);
        assert_eq!(BurstLen::MAX.beats(), 256);
        assert_eq!(BurstLen::from_beats(0), None);
        assert_eq!(BurstLen::from_beats(257), None);
        assert_eq!(BurstLen::from_beats(256).unwrap().raw(), 255);
        assert_eq!(BurstLen::from_raw(15).beats(), 16);
    }

    #[test]
    fn wrap_legality() {
        for beats in [2u16, 4, 8, 16] {
            assert!(BurstLen::from_beats(beats).unwrap().is_legal_wrap());
        }
        for beats in [1u16, 3, 5, 32, 256] {
            assert!(!BurstLen::from_beats(beats).unwrap().is_legal_wrap());
        }
    }

    #[test]
    fn burst_size_encodings() {
        assert_eq!(BurstSize::from_bytes(1).unwrap().raw(), 0);
        assert_eq!(BurstSize::from_bytes(128).unwrap().raw(), 7);
        assert_eq!(BurstSize::from_bytes(3), None);
        assert_eq!(BurstSize::from_bytes(256), None);
        assert_eq!(BurstSize::from_raw(8), None);
        assert_eq!(BurstSize::default().bytes(), 8);
    }

    #[test]
    fn resp_bit_roundtrip_and_error_class() {
        for bits in 0..4u8 {
            assert_eq!(Resp::from_bits(bits).to_bits(), bits);
        }
        assert!(Resp::SlvErr.is_error());
        assert!(Resp::DecErr.is_error());
        assert!(!Resp::Okay.is_error());
        assert!(!Resp::ExOkay.is_error());
    }
}
