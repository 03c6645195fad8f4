//! # ham-backend-veo
//!
//! The VEO-based HAM-Offload communication backend (paper §III, Fig. 5).
//!
//! All communication buffers live in **VE memory**; the VH is the active
//! side, using `veo_write_mem` to deposit offload messages + notification
//! flags and `veo_read_mem` to poll result flags and fetch result
//! messages. The VE side runs `ham_main()` — started asynchronously
//! through VEO (§III-C, Fig. 4) — polling its local flags and executing
//! active messages.
//!
//! Every VEO operation pays the privileged-DMA software path (§III-D),
//! which is why this backend's empty-offload cost is ~432 µs (Fig. 9):
//! two writes (message, flag) + two reads (result flag, result message).
//!
//! Setup, buffer management, VEO-based bulk transfer and the backend
//! skeleton (spawn, teardown, the VE-side loop) live in the shared
//! `aurora-proto` crate, since "starting the application,
//! initialisation and data exchange are still performed through the
//! VEO API" (§IV-B) for both Aurora backends. Host-side protocol state
//! (slots, sequences, completions) lives in `ham_offload::chan` — this
//! crate implements only the transport verbs of the VEO protocol.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod channel;

pub use aurora_proto::{AuroraCore, ProtocolConfig, VeTargetMemory};
pub use channel::VeoBackend;
