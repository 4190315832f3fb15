//! Whole-transaction descriptors.
//!
//! Traffic generators plan in terms of transactions; the wires carry
//! beats. [`WriteTxn`] and [`ReadTxn`] bridge the two: they describe a
//! complete burst plus the data it carries, and can be lowered to the
//! per-channel beats ([`WriteTxn::aw_beat`], [`WriteTxn::w_beat`], …).

#![warn(clippy::missing_inline_in_public_items)]

use crate::beat::{ArBeat, AwBeat, WBeat};
use crate::burst::crosses_4k_boundary;
use crate::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize};

/// Errors building a transaction descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTxnError {
    /// Beat count was outside `1..=256`.
    BadLength(u16),
    /// The data vector length does not match the burst length.
    DataLenMismatch {
        /// Beats the burst declares.
        expected: u16,
        /// Data words supplied.
        got: usize,
    },
    /// The burst would cross a 4 KiB boundary (illegal per AXI4).
    Crosses4k,
    /// WRAP burst with an illegal length (must be 2, 4, 8 or 16 beats).
    IllegalWrapLen(u16),
    /// FIXED burst longer than the 16-beat AXI4 maximum.
    IllegalFixedLen(u16),
    /// WRAP burst with a start address not aligned to the beat size.
    UnalignedWrap(Addr),
}

impl std::fmt::Display for BuildTxnError {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildTxnError::BadLength(beats) => write!(f, "burst length {beats} outside 1..=256"),
            BuildTxnError::DataLenMismatch { expected, got } => {
                write!(
                    f,
                    "burst declares {expected} beats but {got} data words were supplied"
                )
            }
            BuildTxnError::Crosses4k => write!(f, "burst crosses a 4 KiB boundary"),
            BuildTxnError::IllegalWrapLen(beats) => {
                write!(f, "wrap burst length {beats} not in {{2,4,8,16}}")
            }
            BuildTxnError::IllegalFixedLen(beats) => {
                write!(f, "fixed burst length {beats} exceeds the 16-beat maximum")
            }
            BuildTxnError::UnalignedWrap(addr) => {
                write!(f, "wrap burst start {addr} not aligned to the beat size")
            }
        }
    }
}

impl std::error::Error for BuildTxnError {}

/// A complete write transaction: one AW beat, `len.beats()` W beats and
/// one expected B response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTxn {
    /// Transaction ID.
    pub id: AxiId,
    /// Burst start address.
    pub addr: Addr,
    /// Burst length.
    pub len: BurstLen,
    /// Bytes per beat.
    pub size: BurstSize,
    /// Burst type.
    pub burst: BurstKind,
    /// One data word per beat.
    pub data: Vec<u64>,
}

impl WriteTxn {
    /// The AW beat announcing this transaction.
    #[inline]
    #[must_use]
    pub fn aw_beat(&self) -> AwBeat {
        AwBeat::new(self.id, self.addr, self.len, self.size, self.burst)
    }

    /// The W beat for data beat `index` (0-based), with `WLAST` set on the
    /// final beat.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    #[must_use]
    pub fn w_beat(&self, index: u16) -> WBeat {
        let beats = self.len.beats();
        assert!(index < beats, "beat index {index} out of range");
        WBeat::new(self.data[usize::from(index)], index + 1 == beats)
    }

    /// Number of data beats.
    #[inline]
    #[must_use]
    pub fn beats(&self) -> u16 {
        self.len.beats()
    }
}

/// A complete read transaction: one AR beat and `len.beats()` expected R
/// beats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadTxn {
    /// Transaction ID.
    pub id: AxiId,
    /// Burst start address.
    pub addr: Addr,
    /// Burst length.
    pub len: BurstLen,
    /// Bytes per beat.
    pub size: BurstSize,
    /// Burst type.
    pub burst: BurstKind,
}

impl ReadTxn {
    /// The AR beat announcing this transaction.
    #[inline]
    #[must_use]
    pub fn ar_beat(&self) -> ArBeat {
        ArBeat::new(self.id, self.addr, self.len, self.size, self.burst)
    }

    /// Number of expected data beats.
    #[inline]
    #[must_use]
    pub fn beats(&self) -> u16 {
        self.len.beats()
    }
}

/// Builder for legal transactions, validating the AXI4 burst rules.
///
/// # Example
///
/// ```
/// use axi4::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let wr = TxnBuilder::new(AxiId(1), Addr(0x2000))
///     .size_bytes(8)
///     .incr(4)
///     .write((0..4).map(|i| i * 0x11).collect())?;
/// assert_eq!(wr.beats(), 4);
/// assert!(wr.w_beat(3).last);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TxnBuilder {
    id: AxiId,
    addr: Addr,
    beats: u16,
    size: BurstSize,
    burst: BurstKind,
}

impl TxnBuilder {
    /// Starts a builder for a single-beat INCR burst at `addr` with the
    /// default 64-bit beat size.
    #[inline]
    #[must_use]
    pub fn new(id: AxiId, addr: Addr) -> Self {
        TxnBuilder {
            id,
            addr,
            beats: 1,
            size: BurstSize::default(),
            burst: BurstKind::Incr,
        }
    }

    /// Sets the beat size in bytes (power of two, `1..=128`).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a legal AXI4 size.
    #[inline]
    #[must_use]
    pub fn size_bytes(mut self, bytes: u32) -> Self {
        let size = BurstSize::from_bytes(bytes);
        assert!(size.is_some(), "{bytes} is not a legal AXI4 beat size");
        self.size = size.expect("asserted legal beat size just above");
        self
    }

    /// Selects an INCR burst of `beats` beats.
    #[inline]
    #[must_use]
    pub fn incr(mut self, beats: u16) -> Self {
        self.burst = BurstKind::Incr;
        self.beats = beats;
        self
    }

    /// Selects a FIXED burst of `beats` beats.
    #[inline]
    #[must_use]
    pub fn fixed(mut self, beats: u16) -> Self {
        self.burst = BurstKind::Fixed;
        self.beats = beats;
        self
    }

    /// Selects a WRAP burst of `beats` beats (must be 2, 4, 8 or 16 to
    /// validate).
    #[inline]
    #[must_use]
    pub fn wrap(mut self, beats: u16) -> Self {
        self.burst = BurstKind::Wrap;
        self.beats = beats;
        self
    }

    #[inline]
    fn validate(&self) -> Result<BurstLen, BuildTxnError> {
        let len = BurstLen::from_beats(self.beats).ok_or(BuildTxnError::BadLength(self.beats))?;
        if self.burst == BurstKind::Fixed && self.beats > 16 {
            return Err(BuildTxnError::IllegalFixedLen(self.beats));
        }
        if self.burst == BurstKind::Wrap {
            if !len.is_legal_wrap() {
                return Err(BuildTxnError::IllegalWrapLen(self.beats));
            }
            if !self.addr.is_aligned(u64::from(self.size.bytes())) {
                return Err(BuildTxnError::UnalignedWrap(self.addr));
            }
        }
        if crosses_4k_boundary(self.addr, self.size, len, self.burst) {
            return Err(BuildTxnError::Crosses4k);
        }
        Ok(len)
    }

    /// Finishes as a write transaction carrying `data` (one word per
    /// beat).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildTxnError`] if the burst violates an AXI4 rule or
    /// `data.len()` does not match the beat count.
    #[inline]
    pub fn write(self, data: Vec<u64>) -> Result<WriteTxn, BuildTxnError> {
        let len = self.validate()?;
        if data.len() != usize::from(len.beats()) {
            return Err(BuildTxnError::DataLenMismatch {
                expected: len.beats(),
                got: data.len(),
            });
        }
        Ok(WriteTxn {
            id: self.id,
            addr: self.addr,
            len,
            size: self.size,
            burst: self.burst,
            data,
        })
    }

    /// Finishes as a write's address beat alone, for a producer that
    /// computes each W beat's data as it drives it instead of buffering a
    /// [`WriteTxn`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildTxnError`] if the burst violates an AXI4 rule.
    #[inline]
    pub fn aw_beat(self) -> Result<AwBeat, BuildTxnError> {
        let len = self.validate()?;
        Ok(AwBeat::new(self.id, self.addr, len, self.size, self.burst))
    }

    /// Finishes as a read transaction.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildTxnError`] if the burst violates an AXI4 rule.
    #[inline]
    pub fn read(self) -> Result<ReadTxn, BuildTxnError> {
        let len = self.validate()?;
        Ok(ReadTxn {
            id: self.id,
            addr: self.addr,
            len,
            size: self.size,
            burst: self.burst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aw_beat_matches_write_txn_and_validates() {
        let builder = TxnBuilder::new(AxiId(2), Addr(0x40)).size_bytes(4).incr(4);
        let wr = builder.clone().write(vec![0; 4]).unwrap();
        assert_eq!(builder.aw_beat().unwrap(), wr.aw_beat());
        assert_eq!(
            TxnBuilder::new(AxiId(0), Addr(0xFF8)).incr(2).aw_beat(),
            Err(BuildTxnError::Crosses4k)
        );
    }

    #[test]
    fn write_txn_lowering() {
        let wr = TxnBuilder::new(AxiId(5), Addr(0x100))
            .size_bytes(8)
            .incr(3)
            .write(vec![10, 20, 30])
            .unwrap();
        assert_eq!(wr.aw_beat().id, AxiId(5));
        assert_eq!(wr.w_beat(0).data, 10);
        assert!(!wr.w_beat(1).last);
        assert!(wr.w_beat(2).last);
    }

    #[test]
    fn read_txn_lowering() {
        let rd = TxnBuilder::new(AxiId(2), Addr(0x80))
            .incr(16)
            .read()
            .unwrap();
        assert_eq!(rd.ar_beat().len.beats(), 16);
        assert_eq!(rd.beats(), 16);
    }

    #[test]
    fn data_len_mismatch_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0))
            .incr(4)
            .write(vec![1, 2])
            .unwrap_err();
        assert_eq!(
            err,
            BuildTxnError::DataLenMismatch {
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn crossing_4k_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0xFF8))
            .size_bytes(8)
            .incr(4)
            .read()
            .unwrap_err();
        assert_eq!(err, BuildTxnError::Crosses4k);
    }

    #[test]
    fn illegal_wrap_len_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0))
            .wrap(3)
            .write(vec![0; 3])
            .unwrap_err();
        assert_eq!(err, BuildTxnError::IllegalWrapLen(3));
    }

    #[test]
    fn oversized_fixed_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0))
            .fixed(17)
            .read()
            .unwrap_err();
        assert_eq!(err, BuildTxnError::IllegalFixedLen(17));
        assert!(TxnBuilder::new(AxiId(0), Addr(0)).fixed(16).read().is_ok());
    }

    #[test]
    fn unaligned_wrap_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0x3))
            .size_bytes(8)
            .wrap(4)
            .read()
            .unwrap_err();
        assert_eq!(err, BuildTxnError::UnalignedWrap(Addr(0x3)));
    }

    #[test]
    fn zero_beats_rejected() {
        let err = TxnBuilder::new(AxiId(0), Addr(0))
            .incr(0)
            .read()
            .unwrap_err();
        assert_eq!(err, BuildTxnError::BadLength(0));
    }

    #[test]
    fn error_display_messages() {
        for err in [
            BuildTxnError::BadLength(0),
            BuildTxnError::DataLenMismatch {
                expected: 4,
                got: 1,
            },
            BuildTxnError::Crosses4k,
            BuildTxnError::IllegalWrapLen(3),
            BuildTxnError::IllegalFixedLen(17),
            BuildTxnError::UnalignedWrap(Addr(1)),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
