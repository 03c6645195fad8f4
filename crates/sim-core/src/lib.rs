//! # aurora-sim-core
//!
//! The model of the simulated NEC SX-Aurora TSUBASA platform: a virtual
//! time base, per-process logical clocks, shared hardware-resource
//! timelines, transfer cost models, calibration constants derived from the
//! paper, and seeded fault plans. Observability (spans, metric registers,
//! health events, SLOs) lives in `aurora-telemetry`; [`trace::record`] is
//! its `SimTime`-typed recording facade.
//!
//! ## Why virtual time?
//!
//! The paper evaluates *latencies* (Fig. 9) and *bandwidths* (Fig. 10,
//! Table IV) of communication mechanisms that only exist on real SX-Aurora
//! hardware. The reproduction executes every protocol for real (threads,
//! atomics, memcpys) but accounts the *duration* of each simulated hardware
//! operation on a virtual time base with picosecond resolution. Virtual
//! durations compose along the protocol's critical path exactly like a
//! conservative parallel discrete-event simulation: every message carries
//! the virtual timestamp at which it becomes visible, and a receiver joins
//! that timestamp into its own clock (`Clock::join`).
//!
//! This makes the reported numbers deterministic — independent of host OS
//! scheduling — while the code paths remain genuinely concurrent.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calib;
mod clock;
pub mod fault;
pub mod model;
pub mod resource;
pub mod time;
pub mod trace;

pub use clock::Clock;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSite};
pub use model::{LinkModel, SegmentedModel};
pub use resource::Timeline;
pub use time::SimTime;

// `benchmark/src` still imports these observability names through this
// crate (and `trace::TraceSession`, re-exported in `trace.rs`). Every
// other crate imports them from `aurora_telemetry`. The change that
// points `benchmark/` at `aurora_telemetry` deletes this block and that
// line.
pub use aurora_telemetry::{BackendMetrics, HealthEventKind, MetricsSnapshot};
