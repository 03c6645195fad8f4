//! # veo-api
//!
//! The VEO (Vector Engine Offloading) user API (§I-B, §III), mirroring
//! NEC's libveo against the simulated platform:
//!
//! * [`proc::VeoProc`] — `veo_proc_create`: spawns a VE process via VEOS;
//! * [`library::KernelLibrary`] — `veo_load_library`/`veo_get_sym`: a "VE
//!   shared library" of named kernels (simulating dlopen/dlsym on the VE
//!   binary);
//! * [`context::VeoContext`] — `veo_context_open` + `veo_call_async` /
//!   `veo_call_wait_result`: an in-order command queue executing kernels
//!   on a VE worker thread;
//! * `read_mem`/`write_mem`/`alloc_mem`/`free_mem` on [`proc::VeoProc`] —
//!   data movement through VEOS's privileged DMA manager, from a VH
//!   buffer or, as libveo takes a host pointer, straight from the
//!   caller's slice (`write_mem_from`/`read_mem_into`).
//!
//! Kernels execute with a [`context::VeContext`] in hand: the VE-side
//! world (process memory, the user DMA engine, the LHM/SHM unit, SysV
//! shm attach) — everything the paper's DMA protocol needs from inside
//! `ham_main()`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod args;
mod context;
mod library;
mod proc;

pub use args::ArgsStack;
pub use context::{VeContext, VeoContext};
pub use library::{KernelLibrary, SymHandle};
pub use proc::VeoProc;

/// Errors of the VEO layer.
#[derive(Clone, Debug, PartialEq)]
pub enum VeoError {
    /// Unknown symbol name.
    UnknownSymbol(String),
    /// No library loaded yet.
    NoLibrary,
    /// Memory subsystem failure.
    Mem(String),
    /// The context was closed.
    ContextClosed,
    /// Unknown request id.
    UnknownRequest(u64),
}

impl core::fmt::Display for VeoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VeoError::UnknownSymbol(s) => write!(f, "unknown symbol {s:?}"),
            VeoError::NoLibrary => write!(f, "no library loaded"),
            VeoError::Mem(m) => write!(f, "memory error: {m}"),
            VeoError::ContextClosed => write!(f, "context closed"),
            VeoError::UnknownRequest(r) => write!(f, "unknown request {r}"),
        }
    }
}

impl std::error::Error for VeoError {}

impl From<aurora_mem::MemError> for VeoError {
    fn from(e: aurora_mem::MemError) -> Self {
        VeoError::Mem(e.to_string())
    }
}
