//! The in-process reference backend.
//!
//! Targets are plain threads with byte-vector memories. No SX-Aurora
//! modelling — this backend pins down the *semantics* of
//! [`crate::CommBackend`] so the protocol backends can be checked
//! against it, and gives examples/tests a fast, dependency-free
//! transport (it plays the role of the paper's most generic backend).
//!
//! It speaks the paper's slot-and-flag protocol (§III-D) over
//! in-process slot arrays, so it is a **polled** transport in
//! channel-core terms. Each target owns 128 receive and 128 send
//! slots; a slot is a flag word (0 = empty, `seq + 1` = full) and
//! a reusable buffer that grows to the largest message it carried, so
//! message size stays unlimited. The host copies a frame into the
//! receive slot its reservation names and raises the flag; the target
//! consumes receive slots strictly in rotation, clears each flag, and
//! answers into the send slot the header names. The host's flag sweep
//! finds the raised send flag and copies the result out. The target
//! never takes the host channel's lock, and each slot's buffer mutex
//! is never contended: the flag hands the slot from one side to the
//! other.
//!
//! An idle target polls its next receive slot under
//! [`crate::chan::backoff::Idle`]: for up to
//! [`crate::chan::backoff::SPIN`] of wall time where another CPU can
//! run the host, not at all where none can. Then it parks; a host that
//! raises a flag unparks it.

use crate::backend::{build_registry, CommBackend, RawBuffer, Registrar};
use crate::chan::pool::{FramePool, PooledFrame};
use crate::chan::{engine, BatchConfig, ChannelCore, Idle, PendingEntry, Reservation};
use crate::device::{DeviceConfig, DeviceRuntime};
use crate::target_loop::{Polled, TargetChannel, TargetEnv};
use crate::types::{DeviceType, NodeDescriptor, NodeId};
use crate::OffloadError;
use aurora_mem::RangeAllocator;
use aurora_sim_core::Clock;
use aurora_telemetry::BackendMetrics;
use ham::message::VecMemory;
use ham::wire::{MsgHeader, HEADER_BYTES};
use ham::{Registry, RegistryBuilder};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

/// Process seed of the "host binary".
const HOST_SEED: u64 = 0x4841_4D00;

/// Receive and send slots per target: room for two 64-offload waves in
/// flight at once.
const SLOTS: usize = 128;

/// Slot buffers keep at most this much capacity once drained, so one
/// burst of large messages does not pin `2 × SLOTS` large buffers.
const RETAIN_BYTES: usize = 64 << 10;

/// One slot of an array: the flag word and the message buffer it
/// guards. Aligned to a cache line so neighbouring flags do not share
/// one.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    /// 0 = empty, `seq + 1` = `buf` holds the frame of `seq`.
    flag: AtomicU64,
    buf: Mutex<Vec<u8>>,
}

impl Slot {
    /// Producer side: copy `bytes` in, then raise the flag for `seq`.
    fn publish(&self, seq: u64, bytes: &[u8]) {
        {
            let mut buf = self.buf.lock().unwrap();
            buf.clear();
            buf.extend_from_slice(bytes);
        }
        self.flag.store(seq + 1, SeqCst);
    }

    /// Consumer side: copy the bytes from `skip` on into `out`, then
    /// clear the flag. Returns what `head` made of the leading bytes.
    fn consume<R>(&self, skip: usize, out: &mut Vec<u8>, head: impl FnOnce(&[u8]) -> R) -> R {
        let r = {
            let mut buf = self.buf.lock().unwrap();
            let r = head(&buf[..]);
            out.extend_from_slice(buf.get(skip..).unwrap_or_default());
            if buf.capacity() > RETAIN_BYTES {
                buf.clear();
                buf.shrink_to(RETAIN_BYTES);
            }
            r
        };
        self.flag.store(0, SeqCst);
        r
    }
}

/// The two slot arrays of one target, shared by host and target thread.
struct Ring {
    /// Host → target offload frames (header ‖ payload).
    recv: Box<[Slot]>,
    /// Target → host result frames.
    send: Box<[Slot]>,
    /// The target is about to park (or parked): a producer must unpark
    /// it after raising a flag.
    sleeping: AtomicBool,
    /// The host is shutting the target down: the target leaves its loop
    /// at the first empty slot of the rotation.
    closed: AtomicBool,
}

impl Ring {
    fn new() -> Self {
        let slots = || (0..SLOTS).map(|_| Slot::default()).collect();
        Self {
            recv: slots(),
            send: slots(),
            sleeping: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }
}

/// The target thread's end of a [`Ring`].
struct ChannelEnd {
    ring: Arc<Ring>,
    /// Next receive slot in rotation.
    cursor: Cell<usize>,
}

impl ChannelEnd {
    /// Park until a producer unparks the thread. Announces the nap
    /// first, then looks once more: a producer raises its flag before
    /// it reads `sleeping`, so with both sides SeqCst either this
    /// re-check sees the flag or the producer sees `sleeping` and
    /// unparks.
    fn nap(&self) {
        self.ring.sleeping.store(true, SeqCst);
        if self.ring.recv[self.cursor.get()].flag.load(SeqCst) == 0
            && !self.ring.closed.load(SeqCst)
        {
            std::thread::park();
        }
        self.ring.sleeping.store(false, SeqCst);
    }
}

impl TargetChannel for ChannelEnd {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let mut idle = Idle::new();
        loop {
            match self.try_recv(pool) {
                Polled::Msg(h, p) => return Some((h, p)),
                Polled::Closed => return None,
                Polled::Empty => {}
            }
            if !idle.spin() {
                self.nap();
                idle.reset();
            }
        }
    }

    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        let i = self.cursor.get();
        let slot = &self.ring.recv[i];
        if slot.flag.load(SeqCst) == 0 {
            return if self.ring.closed.load(SeqCst) {
                Polled::Closed
            } else {
                Polled::Empty
            };
        }
        let mut body = pool.checkout();
        let header = slot.consume(HEADER_BYTES, &mut body, MsgHeader::decode);
        self.cursor.set((i + 1) % SLOTS);
        match header {
            Ok(h) => Polled::Msg(h, body),
            // Only this backend's host writes the slots; a frame it
            // cannot read ends the session like a dropped link.
            Err(_) => Polled::Closed,
        }
    }

    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        if let Some(slot) = self.ring.send.get(reply_slot as usize) {
            slot.publish(seq, &payload);
        }
    }
}

struct Target {
    ring: Arc<Ring>,
    /// The target thread, to unpark after raising a flag.
    waker: Thread,
    chan: ChannelCore,
    mem: Arc<VecMemory>,
    alloc: Mutex<RangeAllocator>,
    thread: Mutex<Option<JoinHandle<u64>>>,
}

/// The reference in-process backend.
pub struct LocalBackend {
    host_registry: Arc<Registry>,
    targets: Vec<Target>,
    clock: Clock,
    metrics: BackendMetrics,
}

impl LocalBackend {
    /// Default per-target memory.
    pub(crate) const DEFAULT_MEM: u64 = 16 << 20;

    /// Spawn `n` in-process targets whose kernels are registered by
    /// `registrar` (the shared "source code" of all binaries).
    pub fn spawn(
        n: u16,
        registrar: impl Fn(&mut RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::spawn_batched(n, BatchConfig::default(), registrar)
    }

    /// Spawn with small-message batching: consecutive posts to one
    /// target coalesce into batch envelopes per `batch`'s watermarks
    /// (the default config disables batching).
    pub fn spawn_batched(
        n: u16,
        batch: BatchConfig,
        registrar: impl Fn(&mut RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        let mem_bytes = Self::DEFAULT_MEM;
        let registrar: Arc<Registrar> = Arc::new(registrar);
        let host_registry = Arc::new(build_registry(&registrar, HOST_SEED));
        let targets = (1..=n)
            .map(|node| {
                let ring = Arc::new(Ring::new());
                // Slot buffers grow, so messages stay unlimited. The
                // slots are sized for two waves in flight; scheduler
                // admission keeps the default credit limit TCP uses too.
                let chan = ChannelCore::bounded(SLOTS, SLOTS, usize::MAX)
                    .with_batching(batch)
                    .with_credit_limit(crate::chan::DEFAULT_PUSH_CREDITS);
                let mem = Arc::new(VecMemory::new(mem_bytes as usize));
                // Each target is its own "binary": same registrar,
                // different seed → different local handler addresses.
                let registry = build_registry(&registrar, 0x5645_0000 + node as u64);
                let end = ChannelEnd {
                    ring: Arc::clone(&ring),
                    cursor: Cell::new(0),
                };
                let mem2 = Arc::clone(&mem);
                let thread = std::thread::Builder::new()
                    .name(format!("local-target-{node}"))
                    .spawn(move || {
                        let env = TargetEnv {
                            node,
                            registry: &registry,
                            mem: &*mem2,
                            reverse: None,
                            meter: None,
                            dedup: false,
                        };
                        DeviceRuntime::new(DeviceConfig::new()).run(&env, &end)
                    })
                    .expect("spawn target thread");
                Target {
                    ring,
                    waker: thread.thread().clone(),
                    chan,
                    mem,
                    alloc: Mutex::new(RangeAllocator::new(mem_bytes)),
                    thread: Mutex::new(Some(thread)),
                }
            })
            .collect();
        let metrics = BackendMetrics::new();
        for node in 1..=n {
            metrics.health().register(node);
        }
        Arc::new(Self {
            host_registry,
            targets,
            clock: Clock::new(),
            metrics,
        })
    }

    fn target(&self, node: NodeId) -> Result<&Target, OffloadError> {
        if node.is_host() {
            return Err(OffloadError::BadNode(node));
        }
        self.targets
            .get(node.0 as usize - 1)
            .ok_or(OffloadError::BadNode(node))
    }
}

impl CommBackend for LocalBackend {
    fn num_targets(&self) -> u16 {
        self.targets.len() as u16
    }

    fn host_registry(&self) -> &Arc<Registry> {
        &self.host_registry
    }

    fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
        if node.is_host() {
            return Ok(NodeDescriptor {
                node,
                name: "local host".into(),
                device_type: DeviceType::Host,
                memory_bytes: 0,
                cores: std::thread::available_parallelism()
                    .map(|n| n.get() as u32)
                    .unwrap_or(1),
            });
        }
        self.target(node)?;
        Ok(NodeDescriptor {
            node,
            name: format!("local target {}", node.0),
            device_type: DeviceType::Generic,
            memory_bytes: Self::DEFAULT_MEM,
            cores: 1,
        })
    }

    fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError> {
        Ok(&self.target(target)?.chan)
    }

    fn send_frame(
        &self,
        target: NodeId,
        res: &Reservation,
        _header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let t = self.target(target)?;
        if t.ring.closed.load(SeqCst) {
            return Err(OffloadError::Shutdown);
        }
        t.ring.recv[res.recv_slot].publish(res.seq, frame);
        if t.ring.sleeping.load(SeqCst) {
            t.waker.unpark();
        }
        Ok(())
    }

    fn poll_flags(
        &self,
        target: NodeId,
        seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let t = self.target(target)?;
        let flag = t.ring.send[entry.send_slot].flag.load(SeqCst);
        Ok((flag == seq + 1).then_some(0))
    }

    fn fetch_frame(
        &self,
        target: NodeId,
        _seq: u64,
        entry: &PendingEntry,
        _token: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), OffloadError> {
        let t = self.target(target)?;
        t.ring.send[entry.send_slot].consume(0, out, |_| ());
        Ok(())
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        let t = self.target(node)?;
        t.alloc
            .lock()
            .unwrap()
            .alloc(bytes, 8)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        let t = self.target(node)?;
        t.alloc
            .lock()
            .unwrap()
            .free(addr)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
        use ham::TargetMemory;
        let t = self.target(dst.node)?;
        t.mem
            .mem_write(dst.addr, data)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError> {
        use ham::TargetMemory;
        let t = self.target(src.node)?;
        t.mem
            .mem_read(src.addr, out)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    fn host_clock(&self) -> &Clock {
        &self.clock
    }

    fn metrics(&self) -> &BackendMetrics {
        &self.metrics
    }

    fn shutdown(&self) {
        for (i, t) in self.targets.iter().enumerate() {
            if !t.chan.begin_shutdown() {
                // The control frame follows everything posted so far in
                // the rotation. The engine refuses it on an evicted
                // channel, and a reservation that never carried a frame
                // leaves a slot the target cannot pass; closing the ring
                // ends the loop at the first empty slot either way, so
                // the join below cannot hang.
                let _ = engine::post_control(self, NodeId(i as u16 + 1));
                t.ring.closed.store(true, SeqCst);
                t.waker.unpark();
            }
            if let Some(h) = t.thread.lock().unwrap().take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for LocalBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Offload;
    use ham::{f2f, ham_kernel};

    ham_kernel! {
        pub fn axpy_sum(ctx, a: f64, x_addr: u64, y_addr: u64, n: u64) -> f64 {
            let x = ctx.mem.read_f64s(x_addr, n as usize).unwrap();
            let y = ctx.mem.read_f64s(y_addr, n as usize).unwrap();
            x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).sum()
        }
    }

    ham_kernel! {
        pub fn which_node(ctx) -> u16 { ctx.node }
    }

    fn setup(n: u16) -> Offload {
        Offload::new(LocalBackend::spawn(n, |b| {
            b.register::<axpy_sum>();
            b.register::<which_node>();
        }))
    }

    #[test]
    fn sync_offload_round_trip() {
        let o = setup(1);
        assert_eq!(o.sync(NodeId(1), f2f!(which_node)).unwrap(), 1);
        o.shutdown();
    }

    #[test]
    fn async_offloads_overlap() {
        let o = setup(2);
        let f1 = o.async_(NodeId(1), f2f!(which_node)).unwrap();
        let f2 = o.async_(NodeId(2), f2f!(which_node)).unwrap();
        assert_eq!(f2.get().unwrap(), 2);
        assert_eq!(f1.get().unwrap(), 1);
        o.shutdown();
    }

    #[test]
    fn buffers_put_get_and_kernel_access() {
        let o = setup(1);
        let t = NodeId(1);
        let x = o.allocate::<f64>(t, 4).unwrap();
        let y = o.allocate::<f64>(t, 4).unwrap();
        o.put(&[1.0, 2.0, 3.0, 4.0], x).unwrap();
        o.put(&[10.0, 20.0, 30.0, 40.0], y).unwrap();
        let r = o
            .sync(t, f2f!(axpy_sum, 2.0, x.addr(), y.addr(), 4))
            .unwrap();
        assert_eq!(r, 2.0 * 10.0 + 100.0);
        let mut back = [0.0f64; 4];
        o.get(x, &mut back).unwrap();
        assert_eq!(back, [1.0, 2.0, 3.0, 4.0]);
        o.free(x).unwrap();
        o.free(y).unwrap();
        o.shutdown();
    }

    #[test]
    fn copy_between_targets_is_host_orchestrated() {
        let o = setup(2);
        let a = o.allocate::<u64>(NodeId(1), 3).unwrap();
        let b = o.allocate::<u64>(NodeId(2), 3).unwrap();
        o.put(&[7, 8, 9], a).unwrap();
        o.copy(a, b, 3).unwrap();
        let mut out = [0u64; 3];
        o.get(b, &mut out).unwrap();
        assert_eq!(out, [7, 8, 9]);
        o.shutdown();
    }

    #[test]
    fn future_test_is_nonblocking() {
        let o = setup(1);
        let mut f = o.async_(NodeId(1), f2f!(which_node)).unwrap();
        // Eventually becomes ready; test() itself never blocks.
        while !f.test() {
            std::thread::yield_now();
        }
        assert_eq!(f.get().unwrap(), 1);
        o.shutdown();
    }

    #[test]
    fn bad_nodes_are_rejected() {
        let o = setup(1);
        assert!(matches!(
            o.sync(NodeId(0), f2f!(which_node)),
            Err(OffloadError::BadNode(_))
        ));
        assert!(matches!(
            o.sync(NodeId(9), f2f!(which_node)),
            Err(OffloadError::BadNode(_))
        ));
        assert!(o.allocate::<f64>(NodeId(0), 4).is_err());
        o.shutdown();
    }

    #[test]
    fn put_get_length_checks() {
        let o = setup(1);
        let b = o.allocate::<f64>(NodeId(1), 2).unwrap();
        assert!(o.put(&[1.0, 2.0, 3.0], b).is_err());
        let mut out = [0.0; 3];
        assert!(o.get(b, &mut out).is_err());
        o.shutdown();
    }

    #[test]
    fn descriptors() {
        let o = setup(2);
        assert_eq!(o.num_nodes(), 3);
        assert_eq!(o.this_node(), NodeId::HOST);
        let d = o.get_node_descriptor(NodeId(2)).unwrap();
        assert_eq!(d.device_type, DeviceType::Generic);
        let h = o.get_node_descriptor(NodeId::HOST).unwrap();
        assert_eq!(h.device_type, DeviceType::Host);
        o.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_post_after_fails() {
        let o = setup(1);
        o.shutdown();
        o.shutdown();
        assert!(matches!(
            o.sync(NodeId(1), f2f!(which_node)),
            Err(OffloadError::Shutdown)
        ));
    }

    #[test]
    fn many_small_offloads_keep_order_independence() {
        let o = setup(1);
        let futures: Vec<_> = (0..64)
            .map(|_| o.async_(NodeId(1), f2f!(which_node)).unwrap())
            .collect();
        for f in futures {
            assert_eq!(f.get().unwrap(), 1);
        }
        o.shutdown();
    }

    #[test]
    fn wait_any_returns_some_ready_future() {
        let o = setup(2);
        let mut futures: Vec<_> = (0u16..8)
            .map(|i| o.async_(NodeId(1 + (i % 2)), f2f!(which_node)).unwrap())
            .collect();
        let mut got = Vec::new();
        while !futures.is_empty() {
            let i = o.wait_any(&mut futures).expect("something pending");
            let f = futures.swap_remove(i);
            got.push(f.get().unwrap());
        }
        assert!(o.wait_any::<u16>(&mut []).is_none());
        got.sort_unstable();
        assert_eq!(got, [1, 1, 1, 1, 2, 2, 2, 2]);
        o.shutdown();
    }

    #[test]
    fn batched_offloads_deliver_every_result() {
        let o = Offload::new(LocalBackend::spawn_batched(1, BatchConfig::up_to(8), |b| {
            b.register::<axpy_sum>();
            b.register::<which_node>();
        }));
        // 30 posts → batches of 8 plus a partial tail that only an
        // implicit flush (inside wait_all) puts on the wire.
        let futures: Vec<_> = (0..30)
            .map(|_| o.async_(NodeId(1), f2f!(which_node)).unwrap())
            .collect();
        let results: Vec<u16> = o
            .wait_all(futures)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(results, vec![1; 30]);
        // sync still works when its single message is staged: get()
        // flushes before spinning.
        assert_eq!(o.sync(NodeId(1), f2f!(which_node)).unwrap(), 1);
        // Explicit flush of an empty accumulator is a no-op.
        crate::chan::engine::flush(o.backend().as_ref(), NodeId(1)).unwrap();
        let snap = o.metrics_snapshot();
        assert!(
            snap.msgs_sent > snap.frames_sent,
            "batching must coalesce: {} msgs over {} frames",
            snap.msgs_sent,
            snap.frames_sent
        );
        o.shutdown();
    }

    #[test]
    fn drained_slot_buffers_keep_bounded_capacity() {
        let slot = Slot::default();
        let mut out = Vec::new();
        slot.publish(7, &[3; 4096]);
        assert_eq!(slot.flag.load(SeqCst), 8);
        slot.consume(0, &mut out, |_| ());
        assert_eq!((out.len(), slot.flag.load(SeqCst)), (4096, 0));
        assert!(
            slot.buf.lock().unwrap().capacity() >= 4096,
            "small buffers are kept"
        );
        out.clear();
        slot.publish(8, &vec![5; 4 * RETAIN_BYTES]);
        slot.consume(0, &mut out, |_| ());
        assert!(out == [5; 4 * RETAIN_BYTES]);
        assert!(
            slot.buf.lock().unwrap().capacity() <= RETAIN_BYTES,
            "large buffers shrink"
        );
    }

    #[test]
    fn a_nap_after_the_flag_or_close_returns_at_once() {
        // The producer raised its flag (or shutdown closed the ring)
        // and then read `sleeping` as false, so nobody will unpark the
        // target: the nap's re-check must see the store.
        for close in [false, true] {
            let end = ChannelEnd {
                ring: Arc::new(Ring::new()),
                cursor: Cell::new(0),
            };
            if close {
                end.ring.closed.store(true, SeqCst);
            } else {
                end.ring.recv[0].publish(0, &[0; HEADER_BYTES]);
            }
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                end.nap();
                let _ = done_tx.send(());
            });
            let what = if close { "close" } else { "flag" };
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("the nap slept through a {what} stored before it"));
        }
    }

    #[test]
    fn wait_all_returns_results_in_order() {
        let o = setup(2);
        let futures: Vec<_> = (0u16..8)
            .map(|i| o.async_(NodeId(1 + (i % 2)), f2f!(which_node)).unwrap())
            .collect();
        let results: Vec<u16> = o
            .wait_all(futures)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(results, [1, 2, 1, 2, 1, 2, 1, 2]);
        o.shutdown();
    }
}
