//! Signal-level fault injection for AXI4 links.
//!
//! Reproduces the fault-injection setup of the paper's Fig. 9: random or
//! scripted failures forced onto the wires at key transaction stages —
//! missing `aw_ready`, suppressed write data, `w_ready` failure during
//! transfer, mid-burst stalls, missing `b_valid`, and B-channel ID
//! corruption — plus the symmetric read-side classes.
//!
//! * [`FaultClass`] — the fault taxonomy.
//! * [`FaultPlan`] / [`Trigger`] / [`Duration`] — when and how long a
//!   fault is applied.
//! * [`Injector`] — the wire-level corruptor spliced into the per-cycle
//!   pipeline.
//! * [`BudgetExhaustion`] — a behavioural (wire-legal) fault that turns
//!   a manager greedy; detected by traffic regulators, not the TMU.
//! * [`fuzz`] — seeded random plan generation for fuzz campaigns.
//!
//! # Where faults are applied
//!
//! Manager-side faults (e.g. [`FaultClass::WValidSuppress`] — "no valid
//! data received from the master") corrupt the manager port *before* the
//! TMU's request forwarding; subordinate-side faults corrupt the
//! subordinate port *after* the subordinate drives and *before* the TMU's
//! response forwarding. The TMU therefore observes exactly what real
//! monitoring hardware would see.
//!
//! # Example
//!
//! ```
//! use faults::{FaultClass, FaultPlan, Injector, Trigger};
//! use axi4::AxiPort;
//!
//! let mut injector = Injector::idle();
//! injector.arm(FaultPlan::new(FaultClass::AwReadyDrop, Trigger::AtCycle(100)));
//!
//! let mut sub_port = AxiPort::new();
//! sub_port.begin_cycle();
//! sub_port.aw.set_ready(true);
//! injector.corrupt_subordinate_side(&mut sub_port, 100);
//! assert!(!sub_port.aw.ready(), "aw_ready dropped from cycle 100");
//! assert_eq!(injector.activation_cycle(), Some(100));
//! ```

pub mod fuzz;
pub mod injector;
pub mod plan;

pub use injector::Injector;
pub use plan::{BudgetExhaustion, Duration, FaultClass, FaultPlan, Trigger};
