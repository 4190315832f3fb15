//! Burst address arithmetic per the AXI4 specification.
//!
//! These functions implement the address-generation rules of AMBA AXI4
//! §A3.4: FIXED bursts repeat the start address, INCR bursts advance by the
//! beat size, and WRAP bursts advance but wrap at an aligned boundary of
//! `beats × size` bytes. They are used by subordinates (to know where each
//! beat lands), by scoreboards (to verify data), and by the protocol
//! checker (4 KiB rule, wrap legality).

#![warn(clippy::missing_inline_in_public_items)]

use crate::types::{Addr, BurstKind, BurstLen, BurstSize};

/// The AXI4 protection-boundary granule: a burst must not cross a 4 KiB
/// page.
pub const BOUNDARY_4K: u64 = 4096;

/// Computes the byte address of beat `index` (0-based) of a burst.
///
/// For WRAP bursts the start address is assumed aligned to the beat size
/// (a requirement of the specification — the checker flags violations, but
/// this function still produces the hardware-accurate wrapped sequence for
/// aligned starts).
///
/// # Panics
///
/// Panics if `index >= len.beats()`.
///
/// # Example
///
/// ```
/// use axi4::prelude::*;
/// use axi4::burst::beat_address;
///
/// let size = BurstSize::from_bytes(8).unwrap();
/// let len = BurstLen::from_beats(4).unwrap();
/// // WRAP burst of 4x8 bytes starting at 0x30 wraps at the 32-byte boundary 0x20.
/// let addrs: Vec<u64> = (0..4)
///     .map(|i| beat_address(Addr(0x30), size, len, BurstKind::Wrap, i).0)
///     .collect();
/// assert_eq!(addrs, vec![0x30, 0x38, 0x20, 0x28]);
/// ```
#[inline]
#[must_use]
pub fn beat_address(
    start: Addr,
    size: BurstSize,
    len: BurstLen,
    kind: BurstKind,
    index: u16,
) -> Addr {
    assert!(
        index < len.beats(),
        "beat index {index} out of range for {len}"
    );
    let bytes = u64::from(size.bytes());
    match kind {
        BurstKind::Fixed => start,
        BurstKind::Incr | BurstKind::Reserved => start.offset(bytes * u64::from(index)),
        BurstKind::Wrap => {
            let container = bytes * u64::from(len.beats());
            let lower = wrap_boundary(start, size, len);
            let linear = start.offset(bytes * u64::from(index)).0;
            let wrapped = lower.0 + (linear - lower.0) % container;
            Addr(wrapped)
        }
    }
}

/// The lower wrap boundary of a WRAP burst: the start address aligned down
/// to `beats × size` bytes.
///
/// ```
/// use axi4::prelude::*;
/// let b = wrap_boundary(Addr(0x34), BurstSize::from_bytes(4).unwrap(),
///                       BurstLen::from_beats(4).unwrap());
/// assert_eq!(b.0, 0x30);
/// ```
#[inline]
#[must_use]
pub fn wrap_boundary(start: Addr, size: BurstSize, len: BurstLen) -> Addr {
    let container = u64::from(size.bytes()) * u64::from(len.beats());
    // Container is a power of two for legal wrap bursts (len ∈ {2,4,8,16},
    // size a power of two). For illegal lengths fall back to align-down on
    // the next power of two so the model stays total.
    let align = container.next_power_of_two();
    start.align_down(align)
}

/// True if a burst starting at `start` would cross a 4 KiB boundary —
/// forbidden for all burst types by AXI4.
///
/// FIXED and WRAP bursts can never cross (FIXED stays put; WRAP's
/// container is at most 16 × 128 = 2 KiB and aligned), so only INCR bursts
/// are actually at risk.
///
/// ```
/// use axi4::prelude::*;
/// let size = BurstSize::from_bytes(8).unwrap();
/// let len = BurstLen::from_beats(4).unwrap();
/// assert!(crosses_4k_boundary(Addr(0xFF8), size, len, BurstKind::Incr));
/// assert!(!crosses_4k_boundary(Addr(0xFE0), size, len, BurstKind::Incr));
/// assert!(!crosses_4k_boundary(Addr(0xFF8), size, len, BurstKind::Fixed));
/// ```
#[inline]
#[must_use]
pub fn crosses_4k_boundary(start: Addr, size: BurstSize, len: BurstLen, kind: BurstKind) -> bool {
    match kind {
        BurstKind::Fixed | BurstKind::Wrap => false,
        BurstKind::Incr | BurstKind::Reserved => {
            let first_page = start.0 / BOUNDARY_4K;
            let last_byte = start.0 + u64::from(size.bytes()) * u64::from(len.beats()) - 1;
            let last_page = last_byte / BOUNDARY_4K;
            first_page != last_page
        }
    }
}

/// Iterator over every beat address of a burst, in transfer order.
///
/// Produced by [`beat_addresses`].
#[derive(Debug, Clone)]
pub struct BeatAddresses {
    start: Addr,
    size: BurstSize,
    len: BurstLen,
    kind: BurstKind,
    next: u16,
}

impl Iterator for BeatAddresses {
    type Item = Addr;

    #[inline]
    fn next(&mut self) -> Option<Addr> {
        if self.next >= self.len.beats() {
            return None;
        }
        let addr = beat_address(self.start, self.size, self.len, self.kind, self.next);
        self.next += 1;
        Some(addr)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = usize::from(self.len.beats() - self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BeatAddresses {}

/// Returns an iterator over all beat addresses of a burst.
///
/// ```
/// use axi4::prelude::*;
/// use axi4::burst::beat_addresses;
/// let addrs: Vec<_> = beat_addresses(Addr(0x10), BurstSize::from_bytes(4).unwrap(),
///                                    BurstLen::from_beats(3).unwrap(), BurstKind::Incr)
///     .map(|a| a.0)
///     .collect();
/// assert_eq!(addrs, vec![0x10, 0x14, 0x18]);
/// ```
#[inline]
#[must_use]
pub fn beat_addresses(
    start: Addr,
    size: BurstSize,
    len: BurstLen,
    kind: BurstKind,
) -> BeatAddresses {
    BeatAddresses {
        start,
        size,
        len,
        kind,
        next: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sz(bytes: u32) -> BurstSize {
        BurstSize::from_bytes(bytes).unwrap()
    }

    fn ln(beats: u16) -> BurstLen {
        BurstLen::from_beats(beats).unwrap()
    }

    #[test]
    fn fixed_burst_repeats_address() {
        for i in 0..8 {
            assert_eq!(
                beat_address(Addr(0x44), sz(4), ln(8), BurstKind::Fixed, i),
                Addr(0x44)
            );
        }
    }

    #[test]
    fn incr_burst_steps_by_size() {
        assert_eq!(
            beat_address(Addr(0x100), sz(16), ln(4), BurstKind::Incr, 3),
            Addr(0x130)
        );
    }

    #[test]
    fn wrap_burst_aligned_start_equals_incr() {
        // Aligned to the container: never actually wraps.
        for i in 0..4 {
            assert_eq!(
                beat_address(Addr(0x40), sz(8), ln(4), BurstKind::Wrap, i),
                beat_address(Addr(0x40), sz(8), ln(4), BurstKind::Incr, i),
            );
        }
    }

    #[test]
    fn wrap_burst_wraps_mid_container() {
        // 8 beats x 4 bytes = 32-byte container; start at 0x18 within [0x00,0x20).
        let addrs: Vec<u64> = (0..8)
            .map(|i| beat_address(Addr(0x18), sz(4), ln(8), BurstKind::Wrap, i).0)
            .collect();
        assert_eq!(addrs, vec![0x18, 0x1c, 0x00, 0x04, 0x08, 0x0c, 0x10, 0x14]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn beat_index_out_of_range_panics() {
        let _ = beat_address(Addr(0), sz(4), ln(2), BurstKind::Incr, 2);
    }

    #[test]
    fn boundary_4k_edge_cases() {
        // Exactly filling a page is legal.
        assert!(!crosses_4k_boundary(
            Addr(0xF00),
            sz(8),
            ln(32),
            BurstKind::Incr
        ));
        // One byte over is not.
        assert!(crosses_4k_boundary(
            Addr(0xF08),
            sz(8),
            ln(32),
            BurstKind::Incr
        ));
        // Page-aligned 2 KiB burst (256 x 8 B) stays inside one page...
        assert!(!crosses_4k_boundary(
            Addr(0x1000),
            sz(8),
            ln(256),
            BurstKind::Incr
        ));
        // ...but starting in the upper half of the page pushes it over.
        assert!(crosses_4k_boundary(
            Addr(0x1808),
            sz(8),
            ln(256),
            BurstKind::Incr
        ));
    }

    #[test]
    fn wrap_and_fixed_never_cross_4k() {
        assert!(!crosses_4k_boundary(
            Addr(0xFFF),
            sz(128),
            ln(16),
            BurstKind::Wrap
        ));
        assert!(!crosses_4k_boundary(
            Addr(0xFFF),
            sz(128),
            ln(256),
            BurstKind::Fixed
        ));
    }

    #[test]
    fn iterator_yields_every_beat() {
        let it = beat_addresses(Addr(0), sz(8), ln(16), BurstKind::Incr);
        assert_eq!(it.len(), 16);
        let v: Vec<_> = it.collect();
        assert_eq!(v.len(), 16);
        assert_eq!(v[15], Addr(0x78));
    }
}
