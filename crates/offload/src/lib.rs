//! # ham-offload
//!
//! The HAM-Offload programming model (paper Table II): a pure-library
//! offloading framework — no language extension, no special compiler.
//! Code to offload is written as [`ham::ham_kernel!`] kernels, bound to
//! arguments with [`ham::f2f!`], and shipped to a target with
//! [`Offload::sync`] / [`Offload::async_`]. Buffers on targets are
//! managed explicitly ([`Offload::allocate`], [`Offload::put`],
//! [`Offload::get`], [`Offload::copy`]) — the OpenCL-like split the paper
//! describes.
//!
//! The transport is pluggable via [`CommBackend`]. This crate ships a
//! reference in-process backend ([`local::LocalBackend`]); the
//! SX-Aurora backends live in `ham-backend-veo` (§III) and
//! `ham-backend-dma` (§IV).
//!
//! ```
//! use ham::{ham_kernel, f2f};
//! use ham_offload::{local::LocalBackend, NodeId, Offload};
//!
//! ham_kernel! {
//!     pub fn double_it(_ctx, x: u64) -> u64 { x * 2 }
//! }
//!
//! let offload = Offload::new(LocalBackend::spawn(1, |b| {
//!     b.register::<double_it>();
//! }));
//! let target = NodeId(1);
//! let r = offload.sync(target, f2f!(double_it, 21)).unwrap();
//! assert_eq!(r, 42);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
mod buffer;
pub mod chan;
pub mod device;
mod future;
pub mod local;
mod runtime;
mod scalar;
pub mod sched;
pub mod target_loop;
pub mod types;

pub use backend::{CommBackend, RawBuffer};
pub use buffer::BufferPtr;
pub use chan::{ChannelCore, ProtocolConfig, SLOT_META};
pub use future::Future;
pub use runtime::Offload;
pub use scalar::Scalar;
pub use sched::{PoolFuture, SchedPolicy, TargetPool};
pub use types::{DeviceType, NodeDescriptor, NodeId};

use ham::HamError;

/// Errors surfaced by the offloading API.
#[derive(Clone, Debug, PartialEq)]
pub enum OffloadError {
    /// Messaging-layer failure.
    Ham(HamError),
    /// Transport/backend failure.
    Backend(String),
    /// Target memory management failure.
    Mem(String),
    /// Node id out of range or the host where a target was expected.
    BadNode(NodeId),
    /// The target has shut down.
    Shutdown,
    /// The offload's completion flag never arrived and bounded retries
    /// were exhausted (recovery policy deadline).
    Timeout,
    /// The target died (process crash, link failure, peer disconnect);
    /// its channel is evicted, failing in-flight and future offloads.
    TargetLost(NodeId),
    /// The offload was pulled out of a slow target's staged accumulator
    /// before ever reaching the wire, so it can be resubmitted to an
    /// idle peer. Internal to the scheduler's rebalance path — the pool
    /// reposts these; user code only sees it if it bypasses the pool.
    Migrated,
}

impl From<HamError> for OffloadError {
    fn from(e: HamError) -> Self {
        OffloadError::Ham(e)
    }
}

impl core::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OffloadError::Ham(e) => write!(f, "{e}"),
            OffloadError::Backend(m) => write!(f, "backend error: {m}"),
            OffloadError::Mem(m) => write!(f, "target memory error: {m}"),
            OffloadError::BadNode(n) => write!(f, "bad node {}", n.0),
            OffloadError::Shutdown => write!(f, "target has shut down"),
            OffloadError::Timeout => {
                write!(f, "offload timed out: completion flag never arrived")
            }
            OffloadError::TargetLost(n) => write!(f, "target {} lost", n.0),
            OffloadError::Migrated => {
                write!(
                    f,
                    "offload migrated off its target before reaching the wire"
                )
            }
        }
    }
}

impl std::error::Error for OffloadError {}
