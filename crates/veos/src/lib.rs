//! # veos-sim
//!
//! Simulated Vector Engine Operating System (§I-B). The VEs run no OS;
//! VEOS lives on the host and provides:
//!
//! * process management — [`process::VeProcess`] with a VEMVA address
//!   space over the VE's HBM ([`daemon::Veos::create_process`]);
//! * memory management — `alloc_mem`/`free_mem` mapping pages;
//! * the **privileged DMA manager** ([`dma_manager::DmaManager`]) that
//!   VEO's `read_mem`/`write_mem` go through: absolute addresses,
//!   on-the-fly virtual→physical translation, and the three-component
//!   software hop (pseudo-process → VEOS → kernel modules) that makes the
//!   paper's VEO-based message latency ~85–131 µs. The *improved*
//!   (1.3.2-4dma) mode overlaps bulk translations, the *classic* mode
//!   pays per page — the ablation of §III-D;
//! * reverse syscall offloading ([`syscall`]) — VE code executing Linux
//!   system calls in its host pseudo-process.
//!
//! [`machine::AuroraMachine`] assembles the whole A300-8: topology, VE
//! devices, per-socket VH memory, SysV shm, one VEOS instance per VE.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod daemon;
mod dma_manager;
mod machine;
pub mod process;
pub mod syscall;

pub use daemon::Veos;
pub use dma_manager::{DmaManager, HostBuf};
pub use machine::{AuroraMachine, MachineConfig, VhMemory};
pub use process::VeProcess;
