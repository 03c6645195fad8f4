//! The in-process reference backend.
//!
//! Targets are plain threads with byte-vector memories; messages travel
//! over channels. No SX-Aurora modelling — this backend pins down the
//! *semantics* of [`crate::CommBackend`] so the protocol backends can be
//! checked against it, and gives examples/tests a fast, dependency-free
//! transport (it plays the role of the paper's most generic backend).
//!
//! It is a **push** transport in channel-core terms: the target thread
//! deposits result frames straight into the per-target
//! [`ChannelCore`]'s parked completions, and the host never polls flags.

use crate::backend::{build_registry, CommBackend, RawBuffer, Registrar};
use crate::chan::pool::{FramePool, PooledFrame};
use crate::chan::{engine, BatchConfig, ChannelCore, Reservation};
use crate::device::{DeviceConfig, DeviceRuntime};
use crate::target_loop::{Polled, TargetChannel, TargetEnv};
use crate::types::{DeviceType, NodeDescriptor, NodeId};
use crate::OffloadError;
use aurora_mem::RangeAllocator;
use aurora_sim_core::{BackendMetrics, Clock};
use ham::message::VecMemory;
use ham::wire::MsgHeader;
use ham::{Registry, RegistryBuilder};
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Process seed of the "host binary".
const HOST_SEED: u64 = 0x4841_4D00;

struct ChannelEnd {
    rx: Receiver<(MsgHeader, Vec<u8>)>,
    chan: Arc<ChannelCore>,
}

impl TargetChannel for ChannelEnd {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        self.rx.recv().ok().map(|(h, p)| (h, pool.adopt(p)))
    }
    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        match self.rx.try_recv() {
            Ok((h, p)) => Polled::Msg(h, pool.adopt(p)),
            Err(TryRecvError::Empty) => Polled::Empty,
            Err(TryRecvError::Disconnected) => Polled::Closed,
        }
    }
    fn send_result(&self, _reply_slot: u16, seq: u64, payload: Vec<u8>) {
        // Owned hand-off: the target's result buffer is deposited as-is
        // (and adopted into the host-side frame pool), no copy.
        self.chan.deposit(seq, payload);
    }
}

struct Target {
    tx: Sender<(MsgHeader, Vec<u8>)>,
    chan: Arc<ChannelCore>,
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
    pub const DEFAULT_MEM: u64 = 16 << 20;

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
                let (tx, rx) = channel();
                // In-process channels have no slot arrays; the explicit
                // credit limit keeps scheduler admission bounded anyway.
                let chan = Arc::new(
                    ChannelCore::unbounded()
                        .with_batching(batch)
                        .with_credit_limit(crate::chan::DEFAULT_PUSH_CREDITS),
                );
                let mem = Arc::new(VecMemory::new(mem_bytes as usize));
                // Each target is its own "binary": same registrar,
                // different seed → different local handler addresses.
                let registry = build_registry(&registrar, 0x5645_0000 + node as u64);
                let end = ChannelEnd {
                    rx,
                    chan: Arc::clone(&chan),
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
                    tx,
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
        Ok(self.target(target)?.chan.as_ref())
    }

    fn send_frame(
        &self,
        target: NodeId,
        _res: &Reservation,
        header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let t = self.target(target)?;
        // One copy, straight out of the engine's pooled wire frame (the
        // payload path used to copy twice: once assembling the frame,
        // once here). A closed channel means the target thread is gone.
        let payload = frame[ham::wire::HEADER_BYTES..].to_vec();
        t.tx.send((*header, payload))
            .map_err(|_| OffloadError::Shutdown)
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        let t = self.target(node)?;
        t.alloc
            .lock()
            .alloc(bytes, 8)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        let t = self.target(node)?;
        t.alloc
            .lock()
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
            if !t.chan.begin_shutdown() && engine::post_control(self, NodeId(i as u16 + 1)).is_err()
            {
                // The engine refuses an evicted channel, but the worker
                // thread is still parked on its queue — deliver the
                // terminator directly so the join below can't hang.
                let header = MsgHeader {
                    handler_key: ham::registry::HandlerKey(0),
                    payload_len: 0,
                    kind: ham::wire::MsgKind::Control,
                    reply_slot: 0,
                    corr: 0,
                    seq: u64::MAX,
                };
                let _ = t.tx.send((header, Vec::new()));
            }
            if let Some(h) = t.thread.lock().take() {
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
        o.flush(NodeId(1)).unwrap();
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
