//! # aurora-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§V) against the simulated platform:
//!
//! | target | paper artefact | binary |
//! |---|---|---|
//! | [`fig9`]   | Fig. 9 offload cost          | `repro_fig9` |
//! | [`fig10`]  | Fig. 10 bandwidth curves     | `repro_fig10` |
//! | [`table4`] | Table IV peak bandwidths     | `repro_table4` |
//! | [`sysinfo`]| Tables I & III               | `repro_tables` |
//! | [`claims`] | §V textual claims, checked   | `repro_claims` |
//! | [`ablation`]| design-choice ablations     | `repro_ablation` |
//!
//! `repro_all` runs everything and writes `EXPERIMENTS`-ready output.
//!
//! Methodology mirrors §V: warm-up iterations, then averages over many
//! repetitions; measurements are deterministic virtual time. Bounds on
//! virtual-time results are `#[test]`s in the root package's `tests/`;
//! wall-clock measurement is `benchmark/` (`hotpath`). The one bench
//! target here, `telemetry_overhead`, gates the always-on telemetry's
//! wall-clock cost against the offload cycle it rides on.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod breakdown;
pub mod breakeven;
pub mod claims;
pub mod fig10;
pub mod fig9;
pub mod harness;
pub mod sysinfo;
pub mod table4;

pub use harness::{BenchConfig, Row};
