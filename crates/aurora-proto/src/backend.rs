//! The one Aurora backend skeleton.
//!
//! The paper's two SX-Aurora backends differ *only* in the messaging
//! protocol: "starting the application, initialisation and data
//! exchange are still performed through the VEO API" (§IV-B). So
//! everything but the transport verbs is written here once —
//! [`AuroraBackend`] owns the per-target spawn scaffold (arm faults →
//! load the VE library → init C-API call → start `ham_main`), the
//! [`CommBackend`] delegations to [`AuroraCore`], liveness and
//! fault-drop gating, `kill_target` and teardown; `VeChannel` owns the
//! VE-side polling loop, the kill check and result framing. A protocol
//! crate supplies a [`Protocol`] (where the slots live + the host-side
//! verbs) and its [`VeTransport`] (the VE-side verbs).

use crate::{AuroraCore, ProtocolConfig, VeComputeMeter, VeTargetMemory, VE_SEED_BASE};
use aurora_mem::MemError;
use aurora_sim_core::{calib, Clock, FaultPlan, SimTime};
use aurora_telemetry::BackendMetrics;
use ham::message::ReverseTransport;
use ham::wire::{MsgHeader, MsgKind};
use ham::Registry;
use ham_offload::backend::{build_registry, CommBackend, RawBuffer};
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{engine, ChannelCore, Idle, PendingEntry, RecoveryPolicy, Reservation};
use ham_offload::device::{DeviceConfig, DeviceRuntime};
use ham_offload::target_loop::{frame_result, result_header, Polled, TargetChannel, TargetEnv};
use ham_offload::types::{NodeDescriptor, NodeId};
use ham_offload::OffloadError;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use veo_api::{ArgsStack, KernelLibrary, VeContext, VeoContext};
use veos_sim::AuroraMachine;

/// VE body of a protocol's init C-API call: builds the VE half of the
/// transport and the call's return value.
pub(crate) type VeInit<V> = Box<dyn Fn(&VeContext, &ArgsStack) -> (u64, V) + Send + Sync>;

/// What [`Protocol::setup`] hands the spawn scaffold for one target.
pub struct Setup<P: Protocol> {
    /// The host half: slot locations + host-side verbs.
    pub host: P,
    /// Arguments of the init C-API call ([`Protocol::INIT_SYMBOL`]).
    pub init_args: ArgsStack,
    /// VE body of that call.
    pub ve_init: VeInit<P::Ve>,
}

/// The host half of one Aurora messaging protocol, per target: where
/// the communication slots live and how the VH moves frames through
/// them. Liveness, fault drops and channel state are the skeleton's job;
/// these verbs only touch the transport.
pub trait Protocol: Send + Sync + Sized + 'static {
    /// The VE half.
    type Ve: VeTransport + Send + 'static;

    /// The HAM-Offload C-API symbol the VH calls before `ham_main` to
    /// hand the VE its communication memory (Fig. 4 / Fig. 7).
    const INIT_SYMBOL: &'static str;

    /// Create `node`'s communication memory (and any protocol-private
    /// service) and describe the init call.
    fn setup(core: &AuroraCore, node: NodeId, cfg: ProtocolConfig) -> Setup<Self>;

    /// Put one wire frame into the receive slot named by `res`.
    fn send_frame(
        &self,
        core: &AuroraCore,
        node: NodeId,
        res: &Reservation,
        frame: &[u8],
    ) -> Result<(), OffloadError>;

    /// Free peek of the result flag of one in-flight offload;
    /// `Some(token)` when ready (see [`CommBackend::poll_flags`]).
    fn poll_flag(
        &self,
        core: &AuroraCore,
        node: NodeId,
        seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError>;

    /// Read the result frame whose flag was seen ready into `out`,
    /// paying the protocol's virtual cost.
    fn fetch_frame(
        &self,
        core: &AuroraCore,
        node: NodeId,
        seq: u64,
        entry: &PendingEntry,
        token: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), OffloadError>;

    /// Stop protocol-private host services; called once `ham_main` has
    /// exited, so nothing VE-initiated can still be in flight.
    fn stop(&self) {}
}

/// The VE half of one Aurora messaging protocol: slot-level verbs the
/// shared `VeChannel` loop drives. Slot rotation, the kill check and
/// result framing are the loop's job.
pub trait VeTransport {
    /// Free (zero virtual cost) peek of recv slot `i`: `None` while the
    /// host has not published, else the message's virtual landing time.
    fn peek(&self, i: usize) -> Result<Option<SimTime>, MemError>;

    /// Consume the message published in recv slot `i` (landing at `ts`):
    /// pay the protocol's receive cost, copy it into a pooled body,
    /// release the slot. `None` means the process died mid-transfer or
    /// the header was corrupt.
    fn consume(
        &self,
        i: usize,
        ts: SimTime,
        pool: &Arc<FramePool>,
    ) -> Option<(MsgHeader, PooledFrame)>;

    /// Deposit a framed result (header ‖ payload) into send slot `s` and
    /// raise its flag.
    fn publish(&self, s: usize, seq: u64, frame: &[u8]);

    /// Reverse (VE → VH) transport offered to kernels, when the protocol
    /// has one.
    fn reverse(&self) -> Option<&dyn ReverseTransport> {
        None
    }
}

struct Link<P> {
    transport: P,
    ctx: Arc<VeoContext>,
    chan: ChannelCore,
}

/// An SX-Aurora communication backend speaking protocol `P`.
pub struct AuroraBackend<P: Protocol> {
    core: AuroraCore,
    links: Vec<Link<P>>,
    plan: Arc<FaultPlan>,
}

impl<P: Protocol> AuroraBackend<P> {
    /// Set up the backend: create VE processes, set up each target's
    /// communication memory, hand it to the VE through the HAM-Offload
    /// C-API, and start `ham_main()` on each VE.
    pub fn spawn(
        machine: Arc<AuroraMachine>,
        host_socket: u8,
        ves: &[u8],
        cfg: ProtocolConfig,
        registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::spawn_with_faults(
            machine,
            host_socket,
            ves,
            cfg,
            FaultPlan::none(),
            None,
            registrar,
        )
    }

    /// [`AuroraBackend::spawn`] under a deterministic [`FaultPlan`]: each
    /// VE's PCIe link (and through it the user DMA engines) and process
    /// are armed with the plan (actor = node id), and an optional
    /// [`RecoveryPolicy`] arms timeout/retry on every channel. An
    /// all-zero plan and `None` policy behave bit-identically to
    /// [`AuroraBackend::spawn`].
    pub fn spawn_with_faults(
        machine: Arc<AuroraMachine>,
        host_socket: u8,
        ves: &[u8],
        cfg: ProtocolConfig,
        plan: Arc<FaultPlan>,
        policy: Option<RecoveryPolicy>,
        registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        cfg.validate();
        let core = AuroraCore::new(machine, host_socket, ves, registrar);
        let links = (1..=core.num_targets())
            .map(|node| {
                let proc = &core.target(NodeId(node)).expect("just created").proc;
                core.machine()
                    .topology()
                    .link(proc.ve_id())
                    .arm_faults(Arc::clone(&plan), node);
                let Setup {
                    host,
                    init_args,
                    ve_init,
                } = P::setup(&core, NodeId(node), cfg);

                // The VE-side "binary": the same application library,
                // with the HAM-Offload C-API and ham_main() entry (Fig. 4).
                let ve_side: Arc<Mutex<Option<P::Ve>>> = Arc::new(Mutex::new(None));
                let ve_side2 = Arc::clone(&ve_side);
                let registrar = Arc::clone(core.registrar());
                let ve_plan = Arc::clone(&plan);
                let lane_stats = Arc::clone(core.metrics().lane_stats());
                let lib = KernelLibrary::new()
                    .with(P::INIT_SYMBOL, move |ve, args| {
                        let (ret, side) = ve_init(ve, args);
                        *ve_side2.lock().unwrap() = Some(side);
                        ret
                    })
                    .with("ham_main", move |ve, _args| {
                        let chan = VeChannel {
                            ve: ve_side
                                .lock()
                                .unwrap()
                                .take()
                                .expect("the init symbol must run before ham_main"),
                            clock: ve.clock().clone(),
                            cfg,
                            next: Cell::new(0),
                            fresh: Cell::new(0),
                            node,
                            plan: Arc::clone(&ve_plan),
                            scratch: RefCell::new(Vec::new()),
                        };
                        let registry = build_registry(&registrar, VE_SEED_BASE + node as u64);
                        let mem = VeTargetMemory::new(Arc::clone(&ve.proc));
                        let meter = VeComputeMeter::new(ve.clock().clone());
                        let runtime = DeviceRuntime::new(
                            DeviceConfig::new()
                                .with_lanes(cfg.lanes)
                                .with_clock(ve.clock().clone())
                                .with_stats(Arc::clone(&lane_stats)),
                        );
                        runtime.run(
                            &TargetEnv {
                                node,
                                registry: &registry,
                                mem: &mem,
                                reverse: chan.ve.reverse(),
                                meter: Some(&meter),
                                // Slot rotation delivers seqs in order,
                                // so recovery re-sends dedup by watermark.
                                dedup: true,
                            },
                            &chan,
                        )
                    });
                proc.load_library(lib);
                let ctx = proc.open_context();
                let init = proc.get_sym(P::INIT_SYMBOL).expect("C-API symbol");
                let req = ctx.call_async(&init, init_args).expect("init call");
                ctx.wait_result(req).expect("init result");
                let main = proc.get_sym("ham_main").expect("ham_main symbol");
                ctx.call_async(&main, ArgsStack::new())
                    .expect("start ham_main");

                let mut chan = ChannelCore::bounded(cfg.recv_slots, cfg.send_slots, cfg.msg_bytes)
                    .with_batching(cfg.batch);
                if let Some(p) = policy {
                    chan = chan.with_recovery(p);
                }
                Link {
                    transport: host,
                    ctx,
                    chan,
                }
            })
            .collect();
        Arc::new(Self { core, links, plan })
    }

    /// The host half of `node`'s transport.
    pub fn transport(&self, node: NodeId) -> Result<&P, OffloadError> {
        Ok(&self.link(node)?.transport)
    }

    fn link(&self, node: NodeId) -> Result<&Link<P>, OffloadError> {
        self.core.target(node)?;
        Ok(&self.links[node.0 as usize - 1])
    }
}

impl<P: Protocol> CommBackend for AuroraBackend<P> {
    fn num_targets(&self) -> u16 {
        self.core.num_targets()
    }

    fn host_registry(&self) -> &Arc<Registry> {
        self.core.host_registry()
    }

    fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
        self.core.descriptor(node)
    }

    fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError> {
        Ok(&self.link(target)?.chan)
    }

    fn send_frame(
        &self,
        target: NodeId,
        res: &Reservation,
        header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let link = self.link(target)?;
        if !link.ctx.is_alive() {
            return Err(OffloadError::TargetLost(target));
        }
        // Injected TLP drop: the frame vanishes in transit — the slot
        // stays reserved, the flag never lands, and only a recovery
        // re-send (same seq, next attempt) can complete the offload.
        // Control frames are exempt: they are the teardown path, the
        // one frame kind the recovery policy cannot re-send.
        if matches!(header.kind, MsgKind::Offload | MsgKind::Batch)
            && self
                .plan
                .drop_frame(target.0, res.seq, res.attempt, self.core.host_clock().now())
        {
            return Ok(());
        }
        link.transport.send_frame(&self.core, target, res, frame)
    }

    /// A dead `ham_main` with no result pending errors the offload out.
    fn poll_flags(
        &self,
        target: NodeId,
        seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let link = self.link(target)?;
        match link.transport.poll_flag(&self.core, target, seq, entry)? {
            Some(token) => Ok(Some(token)),
            None if link.ctx.is_alive() => Ok(None),
            None => Err(OffloadError::TargetLost(target)),
        }
    }

    fn fetch_frame(
        &self,
        target: NodeId,
        seq: u64,
        entry: &PendingEntry,
        token: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), OffloadError> {
        self.link(target)?
            .transport
            .fetch_frame(&self.core, target, seq, entry, token, out)
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        self.core.allocate(node, bytes)
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        self.core.free(node, addr)
    }

    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
        // §IV-B: bulk data exchange goes through the VEO API on both
        // protocols.
        self.core.put_bytes(dst, data)
    }

    fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError> {
        self.core.get_bytes(src, out)
    }

    fn host_clock(&self) -> &Clock {
        self.core.host_clock()
    }

    fn metrics(&self) -> &BackendMetrics {
        self.core.metrics()
    }

    /// Kill the VE process abruptly: `ham_main`'s polling loop observes
    /// the plan's kill bit and panics, which clears the context's
    /// liveness flag; the next host flag sweep sees the death and
    /// evicts the channel with [`OffloadError::TargetLost`].
    fn kill_target(&self, target: NodeId) -> Result<(), OffloadError> {
        self.link(target)?;
        self.plan.kill(target.0, self.core.host_clock().now());
        Ok(())
    }

    fn shutdown(&self) {
        for node in 1..=self.num_targets() {
            let target = NodeId(node);
            let Ok(link) = self.link(target) else {
                continue;
            };
            if link.chan.begin_shutdown() {
                continue;
            }
            // Deliver the termination message (control frames bypass the
            // shutdown gate; a dead target is ignored), then stop
            // ham_main and join the context worker.
            if engine::post_control(self, target).is_err() && link.ctx.is_alive() {
                // The control frame cannot reach the target (evicted
                // channel: its slot cursor is wedged on a lost frame's
                // hole). Reap the stranded VE process — the moral
                // equivalent of SIGKILLing an unreachable peer — or
                // the context join below would wait forever.
                self.plan.kill(node, self.core.host_clock().now());
            }
            link.ctx.close();
            link.transport.stop();
        }
    }
}

impl<P: Protocol> Drop for AuroraBackend<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The VE side of both protocols: in-order polling of the recv flags,
/// one result frame per carrier.
struct VeChannel<V> {
    ve: V,
    clock: Clock,
    cfg: ProtocolConfig,
    next: Cell<u64>,
    /// Smallest seq not consumed yet; an older frame is a stale re-send.
    fresh: Cell<u64>,
    node: u16,
    plan: Arc<FaultPlan>,
    /// Reused `header ‖ payload` assembly buffer for published results.
    scratch: RefCell<Vec<u8>>,
}

impl<V: VeTransport> VeChannel<V> {
    fn check_killed(&self) {
        if self.plan.killed(self.node) {
            // Injected VE process death: die like a crash, not a
            // shutdown — the panic clears the VEO context's
            // liveness flag and the host evicts the channel.
            panic!("fault injection: VE process {} killed", self.node);
        }
    }

    /// The recv slot the host publishes next (strict rotation).
    fn slot(&self) -> usize {
        (self.next.get() % self.cfg.recv_slots as u64) as usize
    }

    fn consume(
        &self,
        i: usize,
        ts: SimTime,
        pool: &Arc<FramePool>,
    ) -> Option<(MsgHeader, PooledFrame)> {
        let msg = self.ve.consume(i, ts, pool)?;
        // A re-send of a frame that was slow, not lost, lands in a slot
        // already served. That copy (the runtime dedups it) holds no
        // rotation position: the host's next frame goes to the same slot.
        if msg.0.seq >= self.fresh.get() {
            self.fresh.set(msg.0.seq.saturating_add(1));
            self.next.set(self.next.get() + 1);
        }
        Some(msg)
    }
}

impl<V: VeTransport> TargetChannel for VeChannel<V> {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let i = self.slot();
        // Zero-cost peeks until the host publishes (arrival-driven
        // polling; see DESIGN.md). The VE is a thread on the host's
        // CPUs: it spins on the flag for up to `SPIN` where another CPU
        // can run the host, then yields on every empty peek; where no
        // other CPU can, it yields on every one, since the host cannot
        // publish until it runs.
        let mut idle = Idle::new();
        let ts = loop {
            self.check_killed();
            match self.ve.peek(i) {
                Ok(None) => idle.pause(),
                Ok(Some(ts)) => break ts,
                Err(_) => return None,
            }
        };
        self.consume(i, ts, pool)
    }

    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        self.check_killed();
        let i = self.slot();
        // One free peek: the host publishes slots in rotation order, so
        // an unset flag here means nothing further has arrived yet. A
        // message whose landing time is still ahead of the device clock
        // has not arrived *in virtual time* — consuming it would stall
        // the clock on the join instead of overlapping the arrival with
        // already-drained work, so it waits for a later window (or for
        // the blocking recv, where the device is genuinely idle).
        match self.ve.peek(i) {
            Ok(None) => Polled::Empty,
            Ok(Some(ts)) if ts > self.clock.now() => Polled::Empty,
            Ok(Some(ts)) => match self.consume(i, ts, pool) {
                Some((h, p)) => Polled::Msg(h, p),
                None => Polled::Closed,
            },
            Err(_) => Polled::Closed,
        }
    }

    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        let s = reply_slot as usize;
        debug_assert!(s < self.cfg.send_slots);
        // A result that cannot fit the send slot becomes an error frame
        // (results carry framing bytes on top of the kernel's output, so
        // this can happen even when the request fit).
        let payload = if payload.len() > self.cfg.msg_bytes {
            frame_result(Err(ham::HamError::Wire(format!(
                "result of {} bytes exceeds the protocol's {}-byte slots; \
                     return bulk data via target buffers + get",
                payload.len(),
                self.cfg.msg_bytes
            ))))
        } else {
            payload
        };
        // Target-side framework cost: dispatch, execution wrapper,
        // result serialisation.
        let t0 = self.clock.now();
        let t1 = self.clock.advance(calib::HAM_TARGET_OVERHEAD);
        aurora_sim_core::trace::record("ham.target_overhead", 0, t0, t1);
        let mut frame = self.scratch.borrow_mut();
        frame.clear();
        frame.extend_from_slice(&result_header(reply_slot, seq, payload.len()).encode());
        frame.extend_from_slice(&payload);
        self.ve.publish(s, seq, &frame);
    }
}
