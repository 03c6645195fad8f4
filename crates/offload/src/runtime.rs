//! The host-side runtime: the API of Table II.

use crate::backend::{CommBackend, RawBuffer, SlotId};
use crate::buffer::BufferPtr;
use crate::chan::engine;
use crate::future::{self, Future};
use crate::scalar::Scalar;
use crate::types::{NodeDescriptor, NodeId};
use crate::OffloadError;
use aurora_sim_core::{calib, trace};
use aurora_telemetry::{
    next_offload_id, node_scope, offload_scope, HealthEventKind, MetricsSnapshot,
};
use ham::registry::HandlerKey;
use ham::{ActiveMessage, HamError};
use std::sync::Arc;

pub(crate) fn decode_output<M: ActiveMessage>(bytes: &[u8]) -> Result<M::Output, HamError> {
    ham::codec::decode(bytes)
}

/// The HAM-Offload runtime handle held by the host program.
#[derive(Clone)]
pub struct Offload {
    backend: Arc<dyn CommBackend>,
}

impl Offload {
    /// Wrap a constructed backend.
    pub fn new(backend: Arc<dyn CommBackend>) -> Self {
        Self { backend }
    }

    /// The backend (escape hatch for benchmarks and tests).
    pub fn backend(&self) -> &Arc<dyn CommBackend> {
        &self.backend
    }

    // --- topology (Table II) --------------------------------------------

    /// Number of processes in the application: host + targets.
    pub fn num_nodes(&self) -> u16 {
        1 + self.backend.num_targets()
    }

    /// The calling process's address. The host API object always lives in
    /// the host process.
    pub fn this_node(&self) -> NodeId {
        NodeId::HOST
    }

    /// Descriptor of node `n`.
    pub fn get_node_descriptor(&self, n: NodeId) -> Result<NodeDescriptor, OffloadError> {
        self.backend.descriptor(n)
    }

    pub(crate) fn check_target(&self, n: NodeId) -> Result<(), OffloadError> {
        if n.is_host() || n.0 > self.backend.num_targets() {
            return Err(OffloadError::BadNode(n));
        }
        Ok(())
    }

    // --- offloading (Table II: sync / async) ----------------------------

    /// Asynchronous offload of functor `msg` to `target`; returns a
    /// [`Future`] for lazy synchronisation.
    pub fn async_<M: ActiveMessage>(
        &self,
        target: NodeId,
        msg: M,
    ) -> Result<Future<M::Output>, OffloadError> {
        // Serialise into a recycled buffer from the target channel's
        // frame pool — steady-state posting allocates nothing.
        let mut payload = self.backend.channel(target)?.pool().checkout();
        let key = self
            .backend
            .host_registry()
            .encode_message_into(&msg, &mut payload)?;
        self.submit_raw(target, key, &payload, decode_output::<M>)
    }

    /// Post an *already-encoded* message: the second half of
    /// [`Self::async_`], and the scheduler's (re)submission path — a
    /// pool keeps the encoded payload so a staged offload lost to an
    /// eviction can be replayed on a survivor without re-encoding (or
    /// still owning) the original functor value.
    pub(crate) fn submit_raw<T>(
        &self,
        target: NodeId,
        key: HandlerKey,
        payload: &[u8],
        decode: fn(&[u8]) -> Result<T, HamError>,
    ) -> Result<Future<T>, OffloadError> {
        self.check_target(target)?;
        // Every offload gets a fresh correlation id; everything recorded
        // in this scope — and by the backend while posting — joins its
        // span tree. The id also travels in the wire header (`corr`) so
        // the target side attributes its work to the same tree.
        let id = next_offload_id();
        let _of = offload_scope(id);
        let _node = node_scope(NodeId::HOST.0);
        // Host-side framework cost: serialisation, bookkeeping, future.
        let t0 = self.backend.host_clock().now();
        let t1 = self.backend.host_clock().advance(calib::HAM_HOST_OVERHEAD);
        trace::record("ham.host_overhead", 0, t0, t1);
        let seq = engine::post(self.backend.as_ref(), target, key, payload)?;
        self.backend.metrics().on_post(payload.len() as u64);
        Ok(Future::new(
            Arc::clone(&self.backend),
            target,
            SlotId(seq),
            decode,
            id,
            self.backend.host_clock().now(),
        ))
    }

    /// Synchronous offload: `async_` + `get`.
    pub fn sync<M: ActiveMessage>(
        &self,
        target: NodeId,
        msg: M,
    ) -> Result<M::Output, OffloadError> {
        self.async_(target, msg)?.get()
    }

    // --- batched synchronisation ------------------------------------------

    /// Block until at least one future in `futures` is ready and return
    /// its index (its result is still in the future — claim it with
    /// [`Future::get`]). Returns `None` if no future is pending or
    /// ready (empty slice, or every result already taken).
    ///
    /// One flag sweep per distinct channel serves the whole set: with N
    /// offloads in flight a round reads each of their flags once, not
    /// once per future — the primitive load balancers used to fake with
    /// round-robin [`Future::test`] loops.
    pub fn wait_any<T>(&self, futures: &mut [Future<T>]) -> Option<usize> {
        future::wait(
            futures,
            |f| f,
            |futures, swept| {
                let mut pending = false;
                for (i, f) in futures.iter_mut().enumerate() {
                    if f.is_ready() || (f.is_pending() && f.poll(swept)) {
                        return Some(Some(i));
                    }
                    pending |= f.is_pending();
                }
                (!pending).then_some(None)
            },
        )
    }

    /// Block until *every* future in `futures` is ready, then return
    /// all results in order. Like `wait_any`, each round costs one flag
    /// sweep per distinct channel regardless of how many offloads are
    /// in flight.
    pub fn wait_all<T>(&self, futures: Vec<Future<T>>) -> Vec<Result<T, OffloadError>> {
        let mut futures = futures;
        let mut out = Vec::with_capacity(futures.len());
        self.wait_all_into(&mut futures, &mut out);
        out
    }

    /// [`Offload::wait_all`] into caller-provided vectors: `futures` is
    /// drained, results are pushed onto `out` in order. Reusing both
    /// across iterations keeps a warm post→wait loop allocation-free
    /// end to end (see `tests/alloc_steady_state.rs`).
    pub fn wait_all_into<T>(
        &self,
        futures: &mut Vec<Future<T>>,
        out: &mut Vec<Result<T, OffloadError>>,
    ) {
        future::wait(
            futures,
            |f| f,
            |futures, swept| {
                let mut settled = true;
                for f in futures.iter_mut() {
                    settled &= f.poll(swept);
                }
                settled.then_some(())
            },
        );
        // Everything is settled; get() only hands the result over.
        out.extend(futures.drain(..).map(Future::get));
    }

    // --- scheduling -------------------------------------------------------

    /// A load-aware multi-target pool over `targets` with the default
    /// [`crate::sched::SchedPolicy::LeastLoaded`] policy: `submit`
    /// places each offload on the healthy target with the most spare
    /// credits, blocks when every target is at its credit limit, and
    /// fails staged work over to survivors when a target is evicted.
    pub fn pool(&self, targets: &[NodeId]) -> Result<crate::sched::TargetPool, OffloadError> {
        self.pool_with(targets, crate::sched::SchedPolicy::default())
    }

    /// [`Offload::pool`] with an explicit placement policy.
    pub fn pool_with(
        &self,
        targets: &[NodeId],
        policy: crate::sched::SchedPolicy,
    ) -> Result<crate::sched::TargetPool, OffloadError> {
        crate::sched::TargetPool::new(self.clone(), targets, policy)
    }

    // --- explicit buffer management (Table II) ---------------------------

    /// Allocate a buffer of `len` elements of `T` on `node`.
    pub fn allocate<T: Scalar>(
        &self,
        node: NodeId,
        len: u64,
    ) -> Result<BufferPtr<T>, OffloadError> {
        self.check_target(node)?;
        let bytes = len * T::SIZE as u64;
        let addr = self.backend.allocate(node, bytes)?;
        self.backend.metrics().on_alloc(bytes);
        Ok(BufferPtr::from_raw(node, addr, len))
    }

    /// Free a buffer previously returned by [`Offload::allocate`].
    pub fn free<T: Scalar>(&self, ptr: BufferPtr<T>) -> Result<(), OffloadError> {
        self.backend.free(ptr.node(), ptr.addr())?;
        self.backend.metrics().on_free(ptr.len() * T::SIZE as u64);
        Ok(())
    }

    /// Write host data into target memory (Table II `put`).
    pub fn put<T: Scalar>(&self, src: &[T], dst: BufferPtr<T>) -> Result<(), OffloadError> {
        if src.len() as u64 > dst.len() {
            return Err(OffloadError::Mem(format!(
                "put of {} elements into buffer of {}",
                src.len(),
                dst.len()
            )));
        }
        let bytes = T::as_le_bytes(src);
        let _node = node_scope(NodeId::HOST.0);
        self.backend.put_bytes(
            RawBuffer {
                node: dst.node(),
                addr: dst.addr(),
                len: bytes.len() as u64,
            },
            bytes,
        )?;
        self.backend.metrics().on_put(bytes.len() as u64);
        Ok(())
    }

    /// Read target memory into a host slice (Table II `get`).
    pub fn get<T: Scalar>(&self, src: BufferPtr<T>, dst: &mut [T]) -> Result<(), OffloadError> {
        if dst.len() as u64 > src.len() {
            return Err(OffloadError::Mem(format!(
                "get of {} elements from buffer of {}",
                dst.len(),
                src.len()
            )));
        }
        let bytes = T::as_le_bytes_mut(dst);
        let _node = node_scope(NodeId::HOST.0);
        self.backend.get_bytes(
            RawBuffer {
                node: src.node(),
                addr: src.addr(),
                len: bytes.len() as u64,
            },
            bytes,
        )?;
        self.backend.metrics().on_get(bytes.len() as u64);
        Ok(())
    }

    /// Table II's asynchronous `put`: returns a `future<void>`. The
    /// simulated transports (like real `veo_write_mem`) complete
    /// synchronously, so the returned future is immediately ready.
    pub fn put_async<T: Scalar>(&self, src: &[T], dst: BufferPtr<T>) -> Future<()> {
        let result = self.put(src, dst);
        Future::ready(dst.node(), result)
    }

    /// Table II's asynchronous `get`: returns a future holding the read
    /// elements (a Rust-safe rendering of the paper's `get(src, dst*)`).
    pub fn get_async<T: Scalar>(&self, src: BufferPtr<T>, len: u64) -> Future<Vec<T>> {
        let mut out = vec![T::ZERO; len as usize];
        let result = self.get(src, &mut out).map(|()| out);
        Future::ready(src.node(), result)
    }

    /// Copy between two target buffers, orchestrated by the host
    /// (Table II `copy`): a `get` into a staging buffer followed by a
    /// `put` — exactly the paper's semantics for targets without direct
    /// peer transfers.
    pub fn copy<T: Scalar>(
        &self,
        src: BufferPtr<T>,
        dst: BufferPtr<T>,
        len: u64,
    ) -> Result<(), OffloadError> {
        if len > src.len() || len > dst.len() {
            return Err(OffloadError::Mem(format!(
                "copy of {len} elements exceeds src ({}) or dst ({})",
                src.len(),
                dst.len()
            )));
        }
        let mut staging = vec![0u8; (len as usize) * T::SIZE];
        let _node = node_scope(NodeId::HOST.0);
        self.backend.get_bytes(
            RawBuffer {
                node: src.node(),
                addr: src.addr(),
                len: staging.len() as u64,
            },
            &mut staging,
        )?;
        self.backend.metrics().on_get(staging.len() as u64);
        self.backend.put_bytes(
            RawBuffer {
                node: dst.node(),
                addr: dst.addr(),
                len: staging.len() as u64,
            },
            &staging,
        )?;
        self.backend.metrics().on_put(staging.len() as u64);
        Ok(())
    }

    // --- observability ---------------------------------------------------

    /// Point-in-time copy of the backend's metric registers: posts,
    /// polls/retries, put/get byte totals, live allocation bytes and the
    /// offload latency distribution. Always on — independent of whether a
    /// [`aurora_telemetry::TraceSession`] is recording.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.backend.metrics().snapshot()
    }

    /// How many offloads are currently in flight on `target`'s channel.
    /// Zero after eviction — leak detection for fault scenarios: every
    /// pending entry must be retired (completed, timed out, or failed
    /// with the eviction error), never stranded.
    pub fn in_flight(&self, target: NodeId) -> Result<usize, OffloadError> {
        Ok(self.backend.channel(target)?.in_flight())
    }

    // --- fault injection --------------------------------------------------

    /// Kill `target` abruptly — no shutdown handshake, as if its process
    /// died or its link was cut. In-flight offloads on that target fail
    /// with [`OffloadError::TargetLost`] at the next flag sweep; other
    /// targets are unaffected. Errors on backends without a kill
    /// mechanism (e.g. the in-process local backend).
    pub fn kill_target(&self, target: NodeId) -> Result<(), OffloadError> {
        self.backend.kill_target(target)?;
        self.backend.metrics().health().record(
            target.0,
            HealthEventKind::FaultInjected,
            0,
            self.backend.host_clock().now().as_ps(),
        );
        Ok(())
    }

    // --- lifecycle -------------------------------------------------------

    /// Shut all targets down (also happens on drop of the last handle).
    pub fn shutdown(&self) {
        self.backend.shutdown();
    }
}

impl core::fmt::Debug for Offload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Offload({} targets)", self.backend.num_targets())
    }
}
