//! # ham-backend-dma
//!
//! The DMA-based HAM-Offload communication backend (paper §IV,
//! Figs. 7–8) — the fast protocol that cuts the offloading cost by
//! 13.1× relative to a native VEO call and 70.8× relative to the VEO
//! backend (Fig. 9).
//!
//! All communication memory lives in a **SysV shared-memory segment on
//! the VH** (Fig. 7): the VH's protocol operations become local memory
//! accesses, and the **VE initiates every transfer** with hardware it
//! controls directly — the LHM/SHM instructions for flags and the user
//! DMA engine for messages — after registering the segment in its DMAATB.
//! No VEOS involvement, no on-the-fly translation.
//!
//! Application start, initialisation (shm key exchange, DMAATB
//! registration via the `ham_dma_init` C-API call) and bulk data
//! exchange (`put`/`get`) still go through the VEO API (§IV-B), which is
//! why this crate builds on the shared `aurora-proto` [`AuroraCore`].
//! Host-side protocol state (slots, sequences, completions) lives in
//! `ham_offload::chan`; this crate implements only the DMA transport
//! verbs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod protocol;
mod reverse;

pub use protocol::DmaBackend;

pub use aurora_proto::{AuroraCore, ProtocolConfig};
