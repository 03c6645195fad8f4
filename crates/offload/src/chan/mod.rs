//! The shared **channel core**: one host-side protocol engine for every
//! transport.
//!
//! The paper's layering (Fig. 1) puts a single HAM-Offload runtime over
//! interchangeable transports — the RPC machinery itself is
//! transport-agnostic. This module family is that machinery, extracted
//! so each backend implements only *transport verbs* (send a frame, poll
//! flags, fetch or deposit a result frame) while everything a channel
//! has to get right lives here exactly once:
//!
//! * slot accounting — `SlotRing` hands out receive/send slots with
//!   the discipline each side expects (strict round-robin for the
//!   target-polled receive array, first-free for results);
//! * sequence management and in-flight bookkeeping — the `pending` module keeps
//!   one record per frame on the wire (slots, post time, telemetry id,
//!   batch members, stored wire image), ordered by sequence number;
//! * the protocol state machine — [`ChannelCore`] holds the rings, the
//!   in-flight records and the parked completions (finished result
//!   frames or transport errors, kept until the owning future claims
//!   them, so one flag sweep drains *all* ready completions instead of
//!   checking a single slot) under one lock, and [`engine`] drives it
//!   against the [`crate::CommBackend`] transport verbs;
//! * small-message batching — [`batch`] defines the `MsgKind::Batch`
//!   envelope and [`BatchConfig`] its flush watermarks, so deep
//!   pipelines pay one transport transaction per *batch* instead of per
//!   message;
//! * adaptive batching — the `adaptive` module closes the loop on those
//!   watermarks per channel from the observed flush-latency histogram,
//!   under the `BatchConfig::slo_micros` time-in-accumulator bound;
//! * buffer recycling — [`FramePool`] keeps the post → complete hot
//!   path allocation-free by handing wire frames out of a per-thread
//!   cache, with no lock, atomic or refcount on the warm path; caches
//!   trade buffers in batches through one shared depot.
//!
//! Slot-layout constants shared by the Aurora transports
//! ([`ProtocolConfig`], [`SLOT_META`]) also live here, so `ham-backend-dma`
//! no longer reaches into a sibling backend for them.
//!
//! See `docs/channel-core.md` for the state machine diagram and a guide
//! to writing a new backend on top of this module.

mod adaptive;
pub mod backoff;
pub mod batch;
mod config;
pub mod core;
pub mod engine;
mod pending;
pub mod pool;
mod recovery;
mod ring;

pub use self::core::{
    ChannelCore, FlushFrame, FlushPrep, ReplayFrame, Reservation, Reserve, ResumeReport, Stage,
    DEFAULT_PUSH_CREDITS,
};
pub(crate) use backoff::Backoff;
pub use backoff::Idle;
pub use batch::BatchConfig;
pub use config::{ProtocolConfig, SLOT_META};
pub use pending::PendingEntry;
pub use pool::{FramePool, PooledFrame};
pub use recovery::{MissVerdict, RecoveryPolicy};
