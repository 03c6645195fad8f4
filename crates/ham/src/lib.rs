//! # ham — Heterogeneous Active Messages
//!
//! The messaging layer of HAM-Offload (paper §I-A, Fig. 6). An *active
//! message* carries an action: a typed functor that the receiving process
//! deserialises and executes. Heterogeneity means sender and receiver are
//! different binaries (here: different simulated processes with different
//! local handler addresses), so function pointers cannot travel — instead
//! each message type gets a **handler key** that is valid across binaries
//! and translates in O(1) to the local handler address.
//!
//! Components:
//!
//! * [`codec`] — compact little-endian wire format: the [`codec::Wire`]
//!   trait and its impls;
//! * [`message`] — the [`ActiveMessage`] trait and execution context;
//! * [`registry`] — per-process handler tables with the sorted-type-name
//!   key construction of the paper (`typeid` + lexicographic order);
//! * [`wire`] — the fixed message header (key, length, kind, timestamp);
//! * [`ham_kernel!`]/[`f2f!`] — the user-facing sugar mirroring the
//!   paper's `f2f()` function-to-functor conversion.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
pub mod message;
pub mod registry;
pub mod wire;

#[macro_use]
mod macros;

pub use message::{ActiveMessage, ExecContext, TargetMemory};
pub use registry::{HandlerKey, Registry, RegistryBuilder};
pub use wire::MsgHeader;

/// Errors of the active-message layer.
#[derive(Clone, Debug, PartialEq)]
pub enum HamError {
    /// Malformed payload bytes: truncated, trailing or invalid.
    Codec(String),
    /// A handler key with no local translation — the binaries disagree
    /// on the registered message set.
    UnknownKey(u64),
    /// A type was used before registration.
    Unregistered(&'static str),
    /// Target-memory access failure inside a handler.
    Mem(String),
    /// Malformed wire data.
    Wire(String),
}

impl core::fmt::Display for HamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HamError::Codec(m) => write!(f, "codec error: {m}"),
            HamError::UnknownKey(k) => write!(f, "unknown handler key {k}"),
            HamError::Unregistered(t) => write!(f, "message type not registered: {t}"),
            HamError::Mem(m) => write!(f, "target memory error: {m}"),
            HamError::Wire(m) => write!(f, "wire format error: {m}"),
        }
    }
}

impl std::error::Error for HamError {}
