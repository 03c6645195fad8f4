//! Lazy synchronisation on asynchronous offloads (Table II:
//! `future<T>`).
//!
//! HAM-Offload futures are *polling* futures: the host checks the
//! target's result flag when asked ([`Future::test`]) or spins on it
//! ([`Future::get`]). Nothing runs in the background on the host — the
//! paper's design keeps the host thread in control of when communication
//! happens. A poll is a *drain*: one flag sweep retires every ready
//! frame on the channel and parks its result in the
//! [`crate::chan::ChannelCore`], so sibling futures settle from the
//! parked completions without touching the transport again. Every
//! blocking wait in the crate — [`Future::get`], `Offload::wait_*`,
//! `TargetPool::{get, wait_*}` — is `wait`.

use crate::backend::{CommBackend, SlotId};
use crate::chan::{engine, Backoff};
use crate::types::NodeId;
use crate::OffloadError;
use aurora_sim_core::SimTime;
use aurora_telemetry::{node_scope, offload_scope, OffloadId};
use ham::HamError;
use std::sync::Arc;

/// Handle to the result of an [`crate::Offload::async_`] offload.
#[must_use = "futures do nothing unless polled with test() or get()"]
pub struct Future<T> {
    /// `None` for already-completed futures (e.g. `put_async`, whose
    /// underlying VEO transfer is synchronous).
    backend: Option<Arc<dyn CommBackend>>,
    target: NodeId,
    slot: SlotId,
    decode: fn(&[u8]) -> Result<T, HamError>,
    state: State<T>,
    /// Telemetry correlation id of the offload this future resolves.
    offload: OffloadId,
    /// Virtual post time, for the latency metric at completion.
    posted_at: SimTime,
    /// The channel's unsent marker, claimed together with the result.
    unsent: bool,
}

enum State<T> {
    Pending,
    Ready(Result<T, OffloadError>),
    Taken,
}

impl<T> Future<T> {
    /// Construct (backends/runtime only).
    pub(crate) fn new(
        backend: Arc<dyn CommBackend>,
        target: NodeId,
        slot: SlotId,
        decode: fn(&[u8]) -> Result<T, HamError>,
        offload: OffloadId,
        posted_at: SimTime,
    ) -> Self {
        Self {
            backend: Some(backend),
            target,
            slot,
            decode,
            state: State::Pending,
            offload,
            posted_at,
            unsent: false,
        }
    }

    /// An already-completed future (Table II's `future<void>`-returning
    /// `put`/`get`: the simulated transports, like real `veo_write_mem`
    /// and `veo_read_mem`, complete synchronously, so the future exists
    /// for API compatibility and is immediately ready).
    pub(crate) fn ready(target: NodeId, value: Result<T, OffloadError>) -> Self {
        fn never<T>(_: &[u8]) -> Result<T, HamError> {
            unreachable!("ready futures never decode")
        }
        Self {
            backend: None,
            target,
            slot: SlotId(u64::MAX),
            decode: never::<T>,
            state: State::Ready(value),
            offload: OffloadId(0),
            posted_at: SimTime::ZERO,
            unsent: false,
        }
    }

    /// Non-blocking readiness check (Table II `test()`). Once this
    /// returns `true`, [`Future::get`] will not block.
    ///
    /// A `test` that finds nothing parked sweeps the whole channel:
    /// every in-flight offload whose flag is set is parked in this one
    /// pass, so with N offloads in flight one round reads N flags for
    /// all of them rather than N per future.
    pub fn test(&mut self) -> bool {
        // Polls run on the host thread but belong to the offload's span
        // tree.
        let _scope = offload_scope(self.offload);
        self.poll(false) || {
            self.drain_channel();
            self.poll(true)
        }
    }

    /// Blocking accessor (Table II `get()`): polls until the result
    /// message arrives, then decodes and returns it.
    pub fn get(mut self) -> Result<T, OffloadError> {
        let _scope = offload_scope(self.offload);
        wait(
            core::slice::from_mut(&mut self),
            |f| f,
            |f, swept| f[0].poll(swept).then_some(()),
        );
        match core::mem::replace(&mut self.state, State::Taken) {
            State::Ready(r) => r,
            _ => unreachable!("wait() returns once the future settled"),
        }
    }

    /// [`Self::try_settle_completed`] as every wait counts it: coming
    /// up empty right after a sweep of the channel is a poll miss.
    pub(crate) fn poll(&mut self, swept: bool) -> bool {
        let hit = self.try_settle_completed();
        if swept && !hit {
            if let Some(backend) = &self.backend {
                backend.metrics().on_poll(false);
            }
        }
        hit
    }

    /// Still waiting on the transport?
    pub(crate) fn is_pending(&self) -> bool {
        matches!(self.state, State::Pending)
    }

    /// Result arrived (and not yet consumed)?
    pub(crate) fn is_ready(&self) -> bool {
        matches!(self.state, State::Ready(_))
    }

    /// Settle from the channel's parked completions *without* a
    /// transport sweep — the one place a result is claimed, decoded
    /// (straight out of the pooled frame; dropping it recycles the
    /// buffer) and accounted. Returns `true` if this future
    /// became (or already was) settled.
    fn try_settle_completed(&mut self) -> bool {
        if !self.is_pending() {
            return true;
        }
        let Some(backend) = &self.backend else {
            return true;
        };
        let Ok(chan) = backend.channel(self.target) else {
            return false;
        };
        let Some((done, unsent)) = chan.claim(self.slot.0) else {
            return false;
        };
        // The hit poll: count it, close the latency register
        // (attributed to the target so the scheduler's per-node EWMA
        // stays fed). Errors also complete the offload — otherwise the
        // inflight gauge would leak.
        backend.metrics().on_poll(true);
        let now = backend.host_clock().now();
        backend
            .metrics()
            .on_complete_on(self.target.0, now.saturating_sub(self.posted_at).as_ps());
        let decoded = done.and_then(|frame| {
            let bytes =
                crate::target_loop::unframe_result_ref(&frame).map_err(OffloadError::Backend)?;
            Ok((self.decode)(bytes)?)
        });
        self.unsent = unsent;
        self.state = State::Ready(decoded);
        true
    }

    /// One-shot: the error this future settled with, if the channel
    /// marked the offload *unsent* — its frame never reached the
    /// transport, so the target cannot have executed it and a scheduler
    /// may resubmit it elsewhere.
    pub(crate) fn take_unsent(&mut self) -> Option<OffloadError> {
        match &self.state {
            State::Ready(Err(e)) if core::mem::take(&mut self.unsent) => Some(e.clone()),
            _ => None,
        }
    }

    /// Identity of the channel this future waits on (backend + target),
    /// for deduplicating sweeps across a future set. `None` once
    /// settled or for ready-constructed futures.
    fn channel_key(&self) -> Option<(usize, NodeId)> {
        if !self.is_pending() {
            return None;
        }
        self.backend
            .as_ref()
            .map(|b| (Arc::as_ptr(b) as *const () as usize, self.target))
    }

    /// One flush + flag sweep of this future's channel (no-op for ready
    /// futures). Completions are parked for any sibling future.
    fn drain_channel(&self) {
        if let Some(backend) = &self.backend {
            let _node = node_scope(NodeId::HOST.0);
            let _ = engine::drain(backend.as_ref(), self.target);
        }
    }

    /// The decoder of this offload's result type (a scheduler
    /// resubmitting the offload reuses it).
    pub(crate) fn decoder(&self) -> fn(&[u8]) -> Result<T, HamError> {
        self.decode
    }

    /// The target this offload ran on.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Telemetry correlation id of this offload (0 for ready futures).
    pub fn offload_id(&self) -> OffloadId {
        self.offload
    }
}

/// The blocking wait: `settle` makes one pass over `futures`, claiming
/// what is parked, and returns `Some` when the caller has what it came
/// for; until then each round drains every distinct channel a pending
/// future waits on and settles again, backing off between fruitless
/// rounds. `settle` is told whether a drain preceded the pass. `inner`
/// finds the [`Future`] inside a wrapper.
///
/// The backoff spins briefly (only where another CPU can run the
/// target), then yields, then sleeps, so a long wait stops starving the
/// target thread (and the host core). A wait that paused is counted in
/// the phase it ended in, on the first future's backend. This loop is
/// also the one place a wake-up could replace the poll.
pub(crate) fn wait<F, T, R>(
    futures: &mut [F],
    inner: impl Fn(&F) -> &Future<T>,
    mut settle: impl FnMut(&mut [F], bool) -> Option<R>,
) -> R {
    if let Some(r) = settle(futures, false) {
        return r;
    }
    let mut backoff = Backoff::new();
    loop {
        // Dedup is by prefix scan — quadratic in *distinct channels* (a
        // handful), but allocation-free: this runs every round.
        for (i, f) in futures.iter().enumerate() {
            let Some(key) = inner(f).channel_key() else {
                continue;
            };
            if !futures[..i]
                .iter()
                .any(|g| inner(g).channel_key() == Some(key))
            {
                inner(f).drain_channel();
            }
        }
        if let Some(r) = settle(futures, true) {
            if let Some(b) = futures.iter().find_map(|f| inner(f).backend.as_deref()) {
                backoff.record(b.metrics());
            }
            return r;
        }
        backoff.snooze();
    }
}

impl<T> core::fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let state = match self.state {
            State::Pending => "pending",
            State::Ready(_) => "ready",
            State::Taken => "taken",
        };
        write!(f, "Future({} slot {:?}, {state})", self.target, self.slot.0)
    }
}
