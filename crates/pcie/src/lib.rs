//! # aurora-pcie
//!
//! PCIe Gen3 x16 link and system-topology model of the NEC SX-Aurora
//! TSUBASA A300-8 (paper Fig. 3): two Xeon sockets joined by UPI, one
//! PCIe switch per socket, four Vector Engines behind each switch.
//!
//! The link model captures the mechanisms the paper's bandwidth analysis
//! rests on (§V): 256-byte maximum TLP payload, protocol overhead capping
//! effective bandwidth at ~13.4 GiB/s (91 % of 14.7 GiB/s raw), posted
//! writes vs. non-posted reads, and per-direction wire occupancy so that
//! concurrent transfers contend.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod link;
mod topology;

pub use link::{Direction, LinkConfig, PcieLink};
pub use topology::Topology;
