//! The communication-backend seam (paper Fig. 1, bottom layer).
//!
//! HAM separates active-message semantics from transport — and since the
//! channel-core refactor a backend is *only* a transport. All protocol
//! state (slot accounting, sequence numbers, the in-flight table,
//! completion buffering) lives in the [`crate::chan::ChannelCore`] each
//! backend owns per target, and [`crate::chan::engine`] drives both
//! halves. What remains here are transport verbs:
//!
//! * **polled** transports (VEO, DMA — the Aurora protocols with real
//!   flag words in memory — and the in-process slot arrays of
//!   [`crate::local::LocalBackend`]) implement
//!   [`CommBackend::poll_flags`] and [`CommBackend::fetch_frame`]; the
//!   engine sweeps flags and pulls every ready frame;
//! * **push** transports (TCP sockets) have a receiver thread call
//!   [`crate::chan::ChannelCore::deposit_frame`] as results arrive, and
//!   keep the default no-op polls.

use crate::chan::{ChannelCore, PendingEntry, Reservation};
use crate::types::{NodeDescriptor, NodeId};
use crate::OffloadError;
use aurora_sim_core::{BackendMetrics, Clock};
use ham::wire::MsgHeader;
use ham::Registry;
use std::sync::Arc;

/// Registers the application's kernels; both "binaries" (host and target
/// processes) are built from the same registrar — HAM-Offload's
/// "compile the whole application for both sides" (§III-C).
pub type Registrar = dyn Fn(&mut ham::RegistryBuilder) + Send + Sync;

/// Build one process's registry from the shared registrar (the "same
/// source, two binaries" of §III-C): same kernels, a per-process `seed`
/// for the local handler addresses.
pub fn build_registry(registrar: &Arc<Registrar>, seed: u64) -> Registry {
    let mut b = ham::RegistryBuilder::new();
    registrar(&mut b);
    b.seal(seed)
}

/// Identifies an in-flight offload on a target's channel: the sequence
/// number its [`ChannelCore`] minted at reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SlotId(pub u64);

/// An untyped view of a target buffer for bulk transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawBuffer {
    /// Owning node.
    pub node: NodeId,
    /// Target-virtual address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A message/bulk-data transport to one or more offload targets.
pub trait CommBackend: Send + Sync + 'static {
    /// Number of offload targets (nodes `1..=num_targets`).
    fn num_targets(&self) -> u16;

    /// The host process's sealed handler registry. Built from the same
    /// registrar as every target's, so handler keys agree.
    fn host_registry(&self) -> &Arc<Registry>;

    /// Descriptor of any node, including the host.
    fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError>;

    /// The channel state of `target` — the engine's half of the
    /// protocol. Every backend owns one [`ChannelCore`] per target.
    fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError>;

    /// Put one wire frame onto the transport, into the slots named by
    /// `res`. `frame` is the *full* wire bytes — header ‖ payload,
    /// already assembled in a pooled buffer by the engine — so
    /// implementations write it verbatim instead of concatenating
    /// header and payload themselves (`header` is passed alongside for
    /// transports that route on it). Called by the engine after a
    /// successful reservation; if this fails the engine cancels the
    /// reservation, so implementations need not clean up channel state.
    fn send_frame(
        &self,
        target: NodeId,
        res: &Reservation,
        header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError>;

    /// Polled transports: check the completion flag of one in-flight
    /// offload. `Ok(Some(token))` means the result frame is ready;
    /// `token` is transport-defined (the DMA protocol passes the
    /// flag's landing timestamp) and is handed back to
    /// [`CommBackend::fetch_frame`]. The default suits push
    /// transports: never ready by polling.
    fn poll_flags(
        &self,
        _target: NodeId,
        _seq: u64,
        _entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        Ok(None)
    }

    /// Polled transports: read the result frame of an offload whose
    /// flag was seen ready into `out` (an empty frame the engine checked
    /// out of the channel's pool), releasing the transport-side slot
    /// state. Slot accounting itself is the engine's job.
    fn fetch_frame(
        &self,
        _target: NodeId,
        _seq: u64,
        _entry: &PendingEntry,
        _token: u64,
        _out: &mut Vec<u8>,
    ) -> Result<(), OffloadError> {
        Err(OffloadError::Backend(
            "push transport: results are deposited, not fetched".into(),
        ))
    }

    /// Allocate `bytes` on a target; returns the target-virtual address.
    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError>;

    /// Free a target allocation.
    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError>;

    /// Write host data into a target buffer (Table II `put`).
    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError>;

    /// Read a target buffer into host memory (Table II `get`).
    fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError>;

    /// The host process's virtual clock (what benchmarks read).
    fn host_clock(&self) -> &Clock;

    /// This backend's metric registers. The runtime bumps them on every
    /// Table II operation; backends only need to own the storage.
    fn metrics(&self) -> &BackendMetrics;

    /// Liveness probe: verify `target` is reachable *right now* without
    /// placing work on it. Transports with a control plane (TCP) send a
    /// real `Ping` round trip; the default checks the channel state — an
    /// evicted or degraded channel fails with its latched error, a
    /// settled one answers. Implementations only check reachability and
    /// record nothing: [`crate::chan::engine::probe`] records the
    /// `Probe` or `ProbeMiss` health event for the outcome.
    fn probe(&self, target: NodeId) -> Result<(), OffloadError> {
        let chan = self.channel(target)?;
        match chan.eviction().or_else(|| chan.degradation()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Fault injection: kill one target abruptly (process death, link
    /// cut) without the shutdown handshake, as if the hardware failed.
    /// The next flag sweep observes the death and evicts the target's
    /// channel. Backends without a kill mechanism keep the default.
    fn kill_target(&self, _target: NodeId) -> Result<(), OffloadError> {
        Err(OffloadError::Backend(
            "fault injection is not supported by this backend".into(),
        ))
    }

    /// Ask all targets to leave their message loops and join them.
    /// Idempotent.
    fn shutdown(&self);
}
