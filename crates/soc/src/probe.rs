//! Waveform probing: samples an [`AxiPort`]'s wires each cycle into a
//! standard VCD document for inspection with GTKWave & friends.
//!
//! Debugging handshake timing from printouts is painful; a waveform is
//! the natural view. [`WaveProbe`] watches the handshake-relevant wires
//! of one port (valids, readys, IDs, `WLAST`/`RLAST`, response codes)
//! and emits value changes only.

use axi4::channel::AxiPort;
use sim::vcd::{SignalId, VcdWriter};
use tmu_telemetry::MetricsHub;

/// Reads one probed signal off a port.
type Reader = fn(&AxiPort) -> u64;

/// Every probed signal in declaration order: name, width in bits (1 is
/// a wire) and its reader.
const SIGNALS: [(&str, u32, Reader); 16] = [
    ("aw_valid", 1, |p| u64::from(p.aw.valid())),
    ("aw_ready", 1, |p| u64::from(p.aw.ready())),
    ("aw_id", 16, |p| {
        p.aw.beat().map_or(0, |b| u64::from(b.id.0))
    }),
    ("w_valid", 1, |p| u64::from(p.w.valid())),
    ("w_ready", 1, |p| u64::from(p.w.ready())),
    ("w_last", 1, |p| {
        u64::from(p.w.beat().is_some_and(|b| b.last))
    }),
    ("b_valid", 1, |p| u64::from(p.b.valid())),
    ("b_ready", 1, |p| u64::from(p.b.ready())),
    ("b_resp", 2, |p| {
        p.b.beat().map_or(0, |b| u64::from(b.resp.to_bits()))
    }),
    ("ar_valid", 1, |p| u64::from(p.ar.valid())),
    ("ar_ready", 1, |p| u64::from(p.ar.ready())),
    ("ar_id", 16, |p| {
        p.ar.beat().map_or(0, |b| u64::from(b.id.0))
    }),
    ("r_valid", 1, |p| u64::from(p.r.valid())),
    ("r_ready", 1, |p| u64::from(p.r.ready())),
    ("r_last", 1, |p| {
        u64::from(p.r.beat().is_some_and(|b| b.last))
    }),
    ("r_resp", 2, |p| {
        p.r.beat().map_or(0, |b| u64::from(b.resp.to_bits()))
    }),
];

/// Whether one channel of a port fires.
type Fires = fn(&AxiPort) -> bool;

/// The handshake counters the probe publishes, one per channel.
const HANDSHAKES: [(&str, Fires); 5] = [
    ("probe.aw_handshakes", |p| p.aw.fires()),
    ("probe.w_handshakes", |p| p.w.fires()),
    ("probe.b_handshakes", |p| p.b.fires()),
    ("probe.ar_handshakes", |p| p.ar.fires()),
    ("probe.r_handshakes", |p| p.r.fires()),
];

/// Samples one AXI port per cycle into a VCD document.
///
/// ```
/// use axi4::prelude::*;
/// use soc::probe::WaveProbe;
///
/// let mut probe = WaveProbe::new("mgr_port");
/// let mut port = AxiPort::new();
/// port.begin_cycle();
/// port.aw.drive(AwBeat::new(AxiId(3), Addr(0), BurstLen::SINGLE,
///                           BurstSize::from_bytes(8).unwrap(), BurstKind::Incr));
/// probe.sample(0, &port);
/// port.begin_cycle();
/// probe.sample(1, &port);
/// let vcd = probe.render();
/// assert!(vcd.contains("aw_valid"));
/// assert!(vcd.contains("#1"));
/// ```
#[derive(Debug, Clone)]
pub struct WaveProbe {
    vcd: VcdWriter,
    /// The VCD handle of each of [`SIGNALS`].
    ids: [SignalId; SIGNALS.len()],
    /// The values last recorded, per signal.
    last: Option<[u64; SIGNALS.len()]>,
    samples: u64,
    /// Fires counted per channel, per [`HANDSHAKES`].
    handshakes: [u64; HANDSHAKES.len()],
}

impl WaveProbe {
    /// A probe whose VCD scope is named `scope`.
    #[must_use]
    pub fn new(scope: impl Into<String>) -> Self {
        let mut vcd = VcdWriter::new(scope);
        let ids = SIGNALS.map(|(name, width, _)| match width {
            1 => vcd.add_wire(name),
            _ => vcd.add_vector(name, width),
        });
        WaveProbe {
            vcd,
            ids,
            last: None,
            samples: 0,
            handshakes: [0; HANDSHAKES.len()],
        }
    }

    /// Samples the settled wires of `port` at `cycle`. Only changed
    /// values are recorded, wires before vectors, so idle stretches
    /// cost nothing.
    pub fn sample(&mut self, cycle: u64, port: &AxiPort) {
        for (count, (_, fires)) in self.handshakes.iter_mut().zip(HANDSHAKES) {
            *count += u64::from(fires(port));
        }
        let now = SIGNALS.map(|(_, _, read)| read(port));
        for wires in [true, false] {
            for (k, &(_, width, _)) in SIGNALS.iter().enumerate() {
                if (width == 1) != wires || self.last.is_some_and(|last| last[k] == now[k]) {
                    continue;
                }
                if wires {
                    self.vcd.change_wire(cycle, self.ids[k], now[k] != 0);
                } else {
                    self.vcd.change_vector(cycle, self.ids[k], now[k]);
                }
            }
        }
        self.last = Some(now);
        self.samples += 1;
    }

    /// Number of cycles sampled.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Publishes the probe's handshake totals as telemetry gauges
    /// (`probe.*`), for the periodic sampler.
    pub fn publish_metrics(&self, metrics: &mut MetricsHub) {
        metrics.gauge_set("probe.samples", self.samples);
        for (&count, (name, _)) in self.handshakes.iter().zip(HANDSHAKES) {
            metrics.gauge_set(name, count);
        }
    }

    /// Renders the VCD document.
    #[must_use]
    pub fn render(&self) -> String {
        self.vcd.render()
    }

    /// Writes the VCD document to `writer` (a `&mut` reference works).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.vcd.write_to(writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::prelude::*;

    #[test]
    fn records_only_changes() {
        let mut probe = WaveProbe::new("p");
        let mut port = AxiPort::new();
        // 10 idle cycles after the initial snapshot: one time marker.
        for n in 0..10 {
            port.begin_cycle();
            probe.sample(n, &port);
        }
        let idle = probe.render();
        // Time markers are lines starting with '#' (the '#' character
        // alone also appears as a signal identifier code).
        let idle_markers = idle.lines().filter(|l| l.starts_with('#')).count();
        assert_eq!(idle_markers, 1, "idle cycles must not emit changes: {idle}");

        // A handshake appears and disappears: two more markers.
        port.begin_cycle();
        port.w.drive(WBeat::new(1, true));
        port.w.set_ready(true);
        probe.sample(10, &port);
        port.begin_cycle();
        probe.sample(11, &port);
        let active = probe.render();
        assert!(active.lines().filter(|l| l.starts_with('#')).count() >= 3);
        assert!(active.contains("w_last"));
        assert_eq!(probe.samples(), 12);
    }

    #[test]
    fn vector_ids_recorded() {
        let mut probe = WaveProbe::new("p");
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.ar.drive(ArBeat::new(
            AxiId(0x2A),
            Addr(0),
            BurstLen::SINGLE,
            BurstSize::from_bytes(8).unwrap(),
            BurstKind::Incr,
        ));
        probe.sample(0, &port);
        let vcd = probe.render();
        assert!(vcd.contains("b101010 "), "ar_id 0x2A in binary: {vcd}");
    }

    #[test]
    fn counts_handshakes_and_publishes_gauges() {
        let mut probe = WaveProbe::new("p");
        let mut port = AxiPort::new();
        port.begin_cycle();
        port.w.drive(WBeat::new(1, true));
        port.w.set_ready(true);
        probe.sample(0, &port);
        port.begin_cycle();
        probe.sample(1, &port);
        let mut metrics = MetricsHub::default();
        probe.publish_metrics(&mut metrics);
        assert_eq!(metrics.gauge("probe.w_handshakes"), Some(1));
        assert_eq!(metrics.gauge("probe.aw_handshakes"), Some(0));
        assert_eq!(metrics.gauge("probe.samples"), Some(2));
    }

    #[test]
    fn write_to_sink() {
        let mut probe = WaveProbe::new("p");
        let port = AxiPort::new();
        probe.sample(0, &port);
        let mut buf = Vec::new();
        probe.write_to(&mut buf).unwrap();
        assert!(!buf.is_empty());
    }
}
