//! # aurora-sim-core
//!
//! Foundation of the simulated NEC SX-Aurora TSUBASA platform: a virtual
//! time base, per-process logical clocks, shared hardware-resource
//! timelines, transfer cost models, calibration constants derived from the
//! paper, and measurement statistics.
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
pub mod clock;
pub mod fault;
pub mod metrics;
pub mod model;
pub mod resource;
pub mod rng;
pub mod slo;
pub mod stats;
pub mod time;
pub mod trace;

pub use aurora_telemetry::{
    HealthEvent, HealthEventKind, HealthRegistry, TargetState, HISTOGRAM_BUCKETS,
};
pub use clock::Clock;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSite};
pub use metrics::{
    BackendMetrics, LaneMetricsSnapshot, LaneStats, MetricsSnapshot, NodeMetricsSnapshot,
};
pub use model::{LinkModel, SegmentedModel, TransferCost};
pub use resource::Timeline;
pub use slo::{SloReport, SloSpec};
pub use stats::{Histogram, Summary};
pub use time::SimTime;
