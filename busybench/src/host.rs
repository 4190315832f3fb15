//! A fixed reference kernel that measures how fast the host is running
//! at the moment.
//!
//! The host's speed drifts by a third or more over tens of seconds when
//! other processes share its cores, and the drift lasts longer than a
//! run, so no statistic over one run's chunks removes it. The reference
//! kernel slows down with the simulator: the runs interleave simulator
//! chunks with reference chunks and scale host times to a host running
//! the kernel at [`NOMINAL_ITERS_PER_US`]. The kernel is the benchmark's
//! own code, so no change to the simulator moves it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel speed of the nominal host, in iterations per microsecond. A
/// quiet 2-vCPU Xeon VM runs the kernel at about this speed.
pub const NOMINAL_ITERS_PER_US: f64 = 55.0;

/// Iterations per reference chunk: a few milliseconds, like a simulator
/// chunk.
pub const CHUNK_ITERS: u64 = 200_000;

/// The reference kernel: xorshift-driven hash-map updates and scattered
/// table reads and writes with data-dependent branches, a mix like the
/// simulator's.
#[derive(Debug)]
pub struct Reference {
    map: HashMap<u64, u64>,
    table: Vec<u64>,
    x: u64,
}

impl Reference {
    /// A kernel with its working set allocated.
    pub fn new() -> Self {
        Reference {
            map: HashMap::new(),
            table: vec![1; 1 << 16],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one chunk of [`CHUNK_ITERS`] iterations; returns its time in
    /// nanoseconds.
    pub fn chunk_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..CHUNK_ITERS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let slot = self.map.entry(self.x % 4096).or_insert(0);
            *slot = slot.wrapping_add(i);
            let j = (self.x >> 20) as usize % self.table.len();
            self.table[j] = self.table[j].wrapping_add(acc);
            if self.x & 1 == 0 {
                acc = acc.wrapping_add(self.table[(j * 7) % self.table.len()]);
            } else {
                acc ^= *slot;
            }
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64
    }
}

/// How much slower the host ran than the nominal host, from reference
/// chunk times: multiply a host time by `1 / factor`, or a host rate by
/// `factor`, to get the nominal host's.
pub fn speed_factor(chunk_ns: &[f64]) -> f64 {
    let total: f64 = chunk_ns.iter().sum();
    NOMINAL_ITERS_PER_US / (CHUNK_ITERS as f64 * chunk_ns.len() as f64 / total * 1e3)
}
