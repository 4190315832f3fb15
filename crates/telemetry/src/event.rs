//! The typed trace-event vocabulary.
//!
//! [`TraceEvent`] covers every lifecycle observation the TMU stack makes:
//! channel handshakes, OTT enqueue/dequeue, phase transitions, budget
//! assignments, deadline-wheel arms and fires, faults, recovery stages,
//! and free-form counter/gauge updates. Every variant is `Copy` and
//! carries only integers and `&'static str`s, so *constructing* an event
//! is free — the disabled-telemetry fast path pays one branch and
//! nothing else.
//!
//! The offline workspace has no serialisation crate, so machine-readable
//! output is hand-assembled by [`TraceEvent::json_fields`].

use std::fmt;

/// Transaction direction (which guard emitted the event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Write-channel group (AW/W/B).
    Write,
    /// Read-channel group (AR/R).
    Read,
}

impl Dir {
    /// Lowercase name, used in metric keys and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Write => "write",
            Dir::Read => "read",
        }
    }

    /// Single-letter tag used in track names ("W"/"R").
    #[must_use]
    pub fn letter(self) -> &'static str {
        match self {
            Dir::Write => "W",
            Dir::Read => "R",
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An AXI4 channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Write-address channel.
    Aw,
    /// Write-data channel.
    W,
    /// Write-response channel.
    B,
    /// Read-address channel.
    Ar,
    /// Read-data channel.
    R,
}

impl Channel {
    /// Canonical uppercase channel name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Channel::Aw => "AW",
            Channel::W => "W",
            Channel::B => "B",
            Channel::Ar => "AR",
            Channel::R => "R",
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monitored transaction phase, decoupled from the monitor's own phase
/// enums so the telemetry layer has no dependency on the TMU crate. The
/// TMU provides `From<WritePhase>`/`From<ReadPhase>` conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseId {
    /// Which guard's state machine the phase belongs to.
    pub dir: Dir,
    /// 0-based index among that direction's monitored phases.
    pub index: u8,
    /// Human-readable phase name (e.g. `"AW-handshake"`).
    pub name: &'static str,
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.dir.letter(), self.name)
    }
}

/// Coarse fault classification carried by [`TraceEvent::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A timeout counter expired.
    Timeout,
    /// The TMU's protocol checks flagged a rule violation: one of its
    /// stateless `WireRules` or one of its guards' context rules.
    Protocol,
}

impl FaultClass {
    /// Lowercase name, used in metric keys and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Timeout => "timeout",
            FaultClass::Protocol => "protocol",
        }
    }
}

/// Stages of the TMU's fault-recovery state machine, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// Paths severed; `SLVERR` aborts started.
    Severed {
        /// Write transactions handed to the terminator for abort.
        writes: u32,
        /// Read transactions handed to the terminator for abort.
        reads: u32,
        /// Residual W beats still to be drained from the manager.
        drain: u32,
    },
    /// All abort responses delivered to the manager.
    AbortsDelivered,
    /// Hardware reset of the subordinate requested.
    ResetRequested,
    /// Reset complete; monitoring resumed.
    Resumed,
}

impl RecoveryStage {
    /// Lowercase stage name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryStage::Severed { .. } => "severed",
            RecoveryStage::AbortsDelivered => "aborts-delivered",
            RecoveryStage::ResetRequested => "reset-requested",
            RecoveryStage::Resumed => "resumed",
        }
    }
}

/// One structured trace event. Allocation-free to construct and record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A channel handshake fired (`valid && ready`). `id` is 0 for the W
    /// channel, which carries no ID in AXI4.
    Handshake {
        /// The channel that fired.
        channel: Channel,
        /// Raw AXI ID of the beat (0 on W).
        id: u16,
    },
    /// A transaction entered the Outstanding Transaction Table.
    OttEnqueue {
        /// Direction of the transaction.
        dir: Dir,
        /// Raw AXI ID.
        id: u16,
        /// Start address.
        addr: u64,
        /// Burst length in beats.
        beats: u16,
        /// LD-table slot allocated.
        slot: u32,
        /// Initial monitored phase.
        phase: PhaseId,
    },
    /// A transaction retired from the OTT (completed normally).
    OttDequeue {
        /// Direction of the transaction.
        dir: Dir,
        /// Raw AXI ID.
        id: u16,
        /// LD-table slot released.
        slot: u32,
        /// Total in-flight cycles, enqueue to retirement inclusive.
        total_cycles: u64,
    },
    /// A guard state machine moved between monitored phases.
    PhaseTransition {
        /// Direction of the transaction.
        dir: Dir,
        /// Raw AXI ID.
        id: u16,
        /// LD-table slot of the transaction.
        slot: u32,
        /// Phase being left.
        from: PhaseId,
        /// Phase being entered.
        to: PhaseId,
    },
    /// A Full-Counter rebudget: the phase counter restarted with `budget`.
    Rebudget {
        /// Direction of the transaction.
        dir: Dir,
        /// Raw AXI ID.
        id: u16,
        /// LD-table slot of the transaction.
        slot: u32,
        /// The freshly assigned budget in cycles.
        budget: u64,
    },
    /// A timeout deadline was registered in the deadline wheel.
    WheelArm {
        /// Guard that armed it.
        dir: Dir,
        /// LD-table slot the deadline belongs to.
        slot: u32,
        /// Cycle whose commit the expiry fires in.
        fire_at: u64,
    },
    /// An armed deadline fired (the counter was materialized and found
    /// expired).
    WheelFire {
        /// Guard whose wheel fired.
        dir: Dir,
        /// LD-table slot that expired.
        slot: u32,
        /// Cycle the deadline was armed at.
        armed_at: u64,
    },
    /// A fault was detected.
    Fault {
        /// Timeout or protocol violation.
        class: FaultClass,
        /// Direction, when attributable to one guard.
        dir: Option<Dir>,
        /// Raw AXI ID of the failing transaction (0 if unknown).
        id: u16,
        /// Faulting phase (Full-Counter timeouts only).
        phase: Option<PhaseId>,
    },
    /// The recovery state machine reached `stage`.
    Recovery {
        /// The stage reached.
        stage: RecoveryStage,
    },
    /// A traffic regulator granted an address handshake, spending
    /// credits from the manager's budget window.
    CreditGrant {
        /// Direction of the granted transaction.
        dir: Dir,
        /// Raw AXI ID of the granted address beat.
        id: u16,
        /// Payload bytes charged against the byte budget.
        bytes: u64,
    },
    /// A traffic regulator gated an address handshake for lack of
    /// credits (recorded once per stalled burst, when the wait begins).
    CreditDeny {
        /// Direction of the denied transaction.
        dir: Dir,
        /// Raw AXI ID of the denied address beat.
        id: u16,
    },
    /// A regulator replenishment window rolled over and the manager's
    /// credits were restored to their per-window budgets.
    CreditReplenish {
        /// Index of the window that just completed.
        window: u64,
        /// Whether demand exceeded the budget during that window.
        overrun: bool,
    },
    /// A regulator escalated to isolation: the manager exceeded its
    /// budget for `streak` consecutive windows, so its link is severed
    /// and every outstanding transaction aborts with `SLVERR`.
    Isolated {
        /// Consecutive overrun windows that triggered the isolation.
        streak: u32,
    },
    /// A named monotonic counter increased by `delta`. Routed into the
    /// [`crate::MetricsHub`] automatically.
    Counter {
        /// Metric key (dotted naming convention, e.g. `tmu.faults`).
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// A named gauge was set to `value`. Routed into the
    /// [`crate::MetricsHub`] automatically.
    Gauge {
        /// Metric key (dotted naming convention).
        name: &'static str,
        /// New value.
        value: u64,
    },
}

impl TraceEvent {
    /// Short kebab-case kind tag, used as the JSON `"kind"` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Handshake { .. } => "handshake",
            TraceEvent::OttEnqueue { .. } => "ott-enqueue",
            TraceEvent::OttDequeue { .. } => "ott-dequeue",
            TraceEvent::PhaseTransition { .. } => "phase-transition",
            TraceEvent::Rebudget { .. } => "rebudget",
            TraceEvent::WheelArm { .. } => "wheel-arm",
            TraceEvent::WheelFire { .. } => "wheel-fire",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::CreditGrant { .. } => "credit-grant",
            TraceEvent::CreditDeny { .. } => "credit-deny",
            TraceEvent::CreditReplenish { .. } => "credit-replenish",
            TraceEvent::Isolated { .. } => "isolated",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::Gauge { .. } => "gauge",
        }
    }

    /// Renders the variant's payload as JSON object fields (no braces,
    /// no leading comma): `"dir":"write","id":3,…`. The offline workspace
    /// has no serialisation crate, so serialization is assembled by hand.
    #[must_use]
    pub fn json_fields(&self) -> String {
        match *self {
            TraceEvent::Handshake { channel, id } => {
                format!("\"channel\":\"{}\",\"id\":{id}", channel.as_str())
            }
            TraceEvent::OttEnqueue {
                dir,
                id,
                addr,
                beats,
                slot,
                phase,
            } => format!(
                "\"dir\":\"{}\",\"id\":{id},\"addr\":{addr},\"beats\":{beats},\
                 \"slot\":{slot},\"phase\":\"{}\"",
                dir.as_str(),
                phase.name
            ),
            TraceEvent::OttDequeue {
                dir,
                id,
                slot,
                total_cycles,
            } => format!(
                "\"dir\":\"{}\",\"id\":{id},\"slot\":{slot},\"total_cycles\":{total_cycles}",
                dir.as_str()
            ),
            TraceEvent::PhaseTransition {
                dir,
                id,
                slot,
                from,
                to,
            } => format!(
                "\"dir\":\"{}\",\"id\":{id},\"slot\":{slot},\"from\":\"{}\",\"to\":\"{}\"",
                dir.as_str(),
                from.name,
                to.name
            ),
            TraceEvent::Rebudget {
                dir,
                id,
                slot,
                budget,
            } => format!(
                "\"dir\":\"{}\",\"id\":{id},\"slot\":{slot},\"budget\":{budget}",
                dir.as_str()
            ),
            TraceEvent::WheelArm { dir, slot, fire_at } => format!(
                "\"dir\":\"{}\",\"slot\":{slot},\"fire_at\":{fire_at}",
                dir.as_str()
            ),
            TraceEvent::WheelFire {
                dir,
                slot,
                armed_at,
            } => format!(
                "\"dir\":\"{}\",\"slot\":{slot},\"armed_at\":{armed_at}",
                dir.as_str()
            ),
            TraceEvent::Fault {
                class,
                dir,
                id,
                phase,
            } => {
                let dir_s = dir.map_or("null".to_string(), |d| format!("\"{}\"", d.as_str()));
                let phase_s = phase.map_or("null".to_string(), |p| format!("\"{}\"", p.name));
                format!(
                    "\"class\":\"{}\",\"dir\":{dir_s},\"id\":{id},\"phase\":{phase_s}",
                    class.as_str()
                )
            }
            TraceEvent::Recovery {
                stage:
                    RecoveryStage::Severed {
                        writes,
                        reads,
                        drain,
                    },
            } => format!(
                "\"stage\":\"severed\",\"writes\":{writes},\"reads\":{reads},\"drain\":{drain}"
            ),
            TraceEvent::Recovery { stage } => format!("\"stage\":\"{}\"", stage.as_str()),
            TraceEvent::CreditGrant { dir, id, bytes } => {
                format!("\"dir\":\"{}\",\"id\":{id},\"bytes\":{bytes}", dir.as_str())
            }
            TraceEvent::CreditDeny { dir, id } => {
                format!("\"dir\":\"{}\",\"id\":{id}", dir.as_str())
            }
            TraceEvent::CreditReplenish { window, overrun } => {
                format!("\"window\":{window},\"overrun\":{overrun}")
            }
            TraceEvent::Isolated { streak } => format!("\"streak\":{streak}"),
            TraceEvent::Counter { name, delta } => {
                format!("\"name\":\"{name}\",\"delta\":{delta}")
            }
            TraceEvent::Gauge { name, value } => {
                format!("\"name\":\"{name}\",\"value\":{value}")
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Handshake { channel, id } => write!(f, "{channel} handshake id={id}"),
            TraceEvent::OttEnqueue {
                dir,
                id,
                addr,
                beats,
                slot,
                ..
            } => write!(
                f,
                "{dir} enqueue id={id} addr={addr:#x} beats={beats} slot={slot}"
            ),
            TraceEvent::OttDequeue {
                dir,
                id,
                slot,
                total_cycles,
            } => write!(
                f,
                "{dir} dequeue id={id} slot={slot} after {total_cycles} cycles"
            ),
            TraceEvent::PhaseTransition {
                dir,
                id,
                slot,
                from,
                to,
            } => write!(f, "{dir} id={id} slot={slot}: {} -> {}", from.name, to.name),
            TraceEvent::Rebudget {
                dir,
                id,
                slot,
                budget,
            } => write!(f, "{dir} id={id} slot={slot}: rebudget {budget} cycles"),
            TraceEvent::WheelArm { dir, slot, fire_at } => {
                write!(f, "{dir} wheel arm slot={slot} fire_at={fire_at}")
            }
            TraceEvent::WheelFire {
                dir,
                slot,
                armed_at,
            } => {
                write!(f, "{dir} wheel fire slot={slot} armed_at={armed_at}")
            }
            TraceEvent::Fault {
                class,
                dir,
                id,
                phase,
                ..
            } => {
                write!(f, "fault: {}", class.as_str())?;
                if let Some(d) = dir {
                    write!(f, " {d}")?;
                }
                write!(f, " id={id}")?;
                if let Some(p) = phase {
                    write!(f, " phase={}", p.name)?;
                }
                Ok(())
            }
            TraceEvent::Recovery {
                stage:
                    RecoveryStage::Severed {
                        writes,
                        reads,
                        drain,
                    },
            } => write!(
                f,
                "recovery: severed, aborting {writes} writes / {reads} reads, \
                 draining {drain} beats"
            ),
            TraceEvent::Recovery { stage } => write!(f, "recovery: {}", stage.as_str()),
            TraceEvent::CreditGrant { dir, id, bytes } => {
                write!(f, "{dir} credit grant id={id} bytes={bytes}")
            }
            TraceEvent::CreditDeny { dir, id } => write!(f, "{dir} credit deny id={id}"),
            TraceEvent::CreditReplenish { window, overrun } => {
                write!(f, "credit replenish window={window} overrun={overrun}")
            }
            TraceEvent::Isolated { streak } => {
                write!(f, "isolated after {streak} overrun windows")
            }
            TraceEvent::Counter { name, delta } => write!(f, "counter {name} += {delta}"),
            TraceEvent::Gauge { name, value } => write!(f, "gauge {name} = {value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aw_phase() -> PhaseId {
        PhaseId {
            dir: Dir::Write,
            index: 0,
            name: "AW-handshake",
        }
    }

    #[test]
    fn events_are_copy_and_small() {
        // The hot-path contract: constructing an event must be free.
        // `Copy` enforces no drop glue; the size bound keeps it a few
        // register moves.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
    }

    #[test]
    fn kind_tags_are_distinct() {
        let events = [
            TraceEvent::Handshake {
                channel: Channel::Aw,
                id: 1,
            },
            TraceEvent::Recovery {
                stage: RecoveryStage::Severed {
                    writes: 1,
                    reads: 0,
                    drain: 0,
                },
            },
            TraceEvent::Counter {
                name: "x",
                delta: 1,
            },
        ];
        let kinds: Vec<_> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, vec!["handshake", "recovery", "counter"]);
    }

    #[test]
    fn json_fields_are_valid_object_bodies() {
        let e = TraceEvent::OttEnqueue {
            dir: Dir::Write,
            id: 3,
            addr: 0x1000,
            beats: 8,
            slot: 2,
            phase: aw_phase(),
        };
        let body = format!("{{{}}}", e.json_fields());
        assert!(body.contains("\"dir\":\"write\""));
        assert!(body.contains("\"addr\":4096"));
        assert!(body.contains("\"phase\":\"AW-handshake\""));
    }

    #[test]
    fn fault_json_handles_optionals() {
        let full = TraceEvent::Fault {
            class: FaultClass::Timeout,
            dir: Some(Dir::Read),
            id: 7,
            phase: Some(PhaseId {
                dir: Dir::Read,
                index: 1,
                name: "data-wait",
            }),
        };
        assert!(full.json_fields().contains("\"phase\":\"data-wait\""));
        let bare = TraceEvent::Fault {
            class: FaultClass::Protocol,
            dir: None,
            id: 0,
            phase: None,
        };
        assert!(bare.json_fields().contains("\"dir\":null"));
        assert!(bare.json_fields().contains("\"phase\":null"));
    }

    #[test]
    fn credit_events_serialize_and_display() {
        let grant = TraceEvent::CreditGrant {
            dir: Dir::Write,
            id: 2,
            bytes: 256,
        };
        assert!(grant.json_fields().contains("\"bytes\":256"));
        assert_eq!(grant.kind(), "credit-grant");
        assert_eq!(grant.to_string(), "write credit grant id=2 bytes=256");
        let replenish = TraceEvent::CreditReplenish {
            window: 7,
            overrun: true,
        };
        assert!(replenish.json_fields().contains("\"overrun\":true"));
        let isolated = TraceEvent::Isolated { streak: 3 };
        assert_eq!(isolated.to_string(), "isolated after 3 overrun windows");
        assert_eq!(
            TraceEvent::CreditDeny {
                dir: Dir::Read,
                id: 1
            }
            .kind(),
            "credit-deny"
        );
    }

    #[test]
    fn display_reads_naturally() {
        let e = TraceEvent::PhaseTransition {
            dir: Dir::Write,
            id: 1,
            slot: 0,
            from: aw_phase(),
            to: PhaseId {
                dir: Dir::Write,
                index: 1,
                name: "data-entry",
            },
        };
        assert_eq!(
            e.to_string(),
            "write id=1 slot=0: AW-handshake -> data-entry"
        );
    }
}
