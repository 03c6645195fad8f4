//! # aurora-ve
//!
//! Device model of the NEC Vector Engine Type 10B:
//!
//! * `specs` — Table I hardware specifications (VE and host CPU);
//! * [`device::VeDevice`] — one VE card: HBM2 memory with its allocator,
//!   the PCIe link, the DMAATB;
//! * [`udma::UserDma`] — the per-core user DMA engine VE code programs
//!   directly (§IV-A), bypassing VEOS;
//! * [`lhm_shm::LhmShmUnit`] — the LHM/SHM (Load/Store Host Memory)
//!   instructions for single-word access to DMAATB-registered memory.
//!
//! Everything the VE initiates operates on VEHVA addresses and requires a
//! prior DMAATB registration — the constraint that shapes the paper's
//! DMA-based protocol (Figs. 7–8). VE code resolves a registration once
//! into an [`aurora_mem::DmaWindow`] and hands that to the units, so an
//! LHM, SHM or user-DMA access takes no table lock and no reference
//! count.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod device;
mod lhm_shm;
mod specs;
mod udma;

pub use device::VeDevice;
pub use lhm_shm::LhmShmUnit;
pub use specs::{CpuSpecs, VeSpecs};
pub use udma::UserDma;
