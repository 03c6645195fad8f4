//! The VE-initiated, DMA-based messaging protocol (paper §IV-B, Fig. 8).
//!
//! Slot layout inside the VH SysV shm segment (all offsets host-local):
//!
//! ```text
//! recv slot i (VH → VE offloads), at i * stride:
//!   +0   flag (u64)  0 = free; else = virtual landing time (ps)
//!   +8   (reserved; the flag doubles as the timestamp)
//!   +16  message: 32-byte header ‖ payload
//! send slots follow the recv array; same layout.
//! ```
//!
//! VH side: posting a message is two local writes (message, then flag
//! with Release ordering); receiving a result is a local flag poll plus
//! local reads. VE side: flags are polled with zero-cost peeks and paid
//! for with one LHM word on success; messages are fetched/deposited with
//! user DMA; flag resets and result notification use SHM stores whose
//! value carries the landing timestamp.
//!
//! The first DMA fetch covers the header plus [`SMALL_FETCH`] payload
//! bytes (one 256-byte TLP); larger payloads cost a second DMA — small
//! offload messages therefore see exactly one LHM + one DMA + SHM
//! accounting, which is where Fig. 9's 6.1 µs comes from.
//!
//! Host-side protocol state (slot rings, pending table, completion
//! queue) lives in [`ham_offload::chan`] and the backend skeleton
//! (spawn, teardown, fault gating, the VE-side loop) in
//! [`aurora_proto::backend`]; this module implements only the DMA
//! transport verbs plus the shm/DMAATB setup of Fig. 7. Segment
//! lifetime is RAII-managed: each target holds an
//! [`aurora_mem::ShmGuard`] (IPC_RMID on drop) plus a key lease that
//! returns the SysV key to a free pool for reuse.

use crate::reverse::{reverse_slot_bytes, ReverseService, VeReverseTransport};
use aurora_mem::{DmaWindow, MemError, ShmGuard, ShmManager, ShmSegment, Vehva};
use aurora_proto::{
    AuroraBackend, AuroraCore, Protocol, ProtocolConfig, Setup, VeTransport, SLOT_META,
};
use aurora_sim_core::{calib, SimTime};
use ham::message::ReverseTransport;
use ham::wire::{MsgHeader, HEADER_BYTES};
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{PendingEntry, Reservation};
use ham_offload::types::NodeId;
use ham_offload::OffloadError;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use veo_api::ArgsStack;
use veos_sim::VeProcess;

/// Payload bytes fetched together with the header in the first DMA (so
/// header + small payload fit one 256-byte PCIe TLP).
pub(crate) const SMALL_FETCH: usize = 256 - HEADER_BYTES;

/// SysV shm key pool: keys are unique while leased and reclaimed when a
/// backend is torn down, so long benchmark sweeps cannot exhaust the key
/// space.
struct ShmKeyPool {
    next: AtomicI32,
    free: Mutex<Vec<i32>>,
}

impl ShmKeyPool {
    const fn new() -> Self {
        Self {
            next: AtomicI32::new(0x4841_4D00), // "HAM."
            free: Mutex::new(Vec::new()),
        }
    }

    fn lease(&'static self) -> ShmKeyLease {
        let key = self
            .free
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed));
        ShmKeyLease { pool: self, key }
    }
}

static SHM_KEY_POOL: ShmKeyPool = ShmKeyPool::new();

/// A leased SysV key; returns to the pool on drop.
struct ShmKeyLease {
    pool: &'static ShmKeyPool,
    key: i32,
}

impl Drop for ShmKeyLease {
    fn drop(&mut self) {
        self.pool.free.lock().unwrap().push(self.key);
    }
}

/// The DMA communication backend (Fig. 8).
pub type DmaBackend = AuroraBackend<DmaSegment>;

/// Host-side reverse-offload service of one target (when `cfg.reverse`).
struct ReverseHost {
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Host half of the DMA protocol: both slot arrays live in one VH shm
/// segment per target (Fig. 7), so every host access is a local one.
pub struct DmaSegment {
    /// RAII segment handle: IPC_RMID when the channel goes away, even on
    /// unwind; the VE keeps its attachment until `ham_main` exits.
    seg: ShmGuard,
    /// Key lease for the segment (field order: dropped after `seg`).
    _key: ShmKeyLease,
    /// Host-local byte offset of the send-slot array.
    send_base: u64,
    stride: u64,
    reverse: Option<ReverseHost>,
}

impl DmaSegment {
    fn recv_flag(&self, i: usize) -> u64 {
        i as u64 * self.stride
    }
    fn recv_msg(&self, i: usize) -> u64 {
        self.recv_flag(i) + SLOT_META
    }
    fn send_flag(&self, i: usize) -> u64 {
        self.send_base + i as u64 * self.stride
    }
    fn send_msg(&self, i: usize) -> u64 {
        self.send_flag(i) + SLOT_META
    }

    /// The SysV key of this target's shm segment.
    pub fn shm_key(&self) -> i32 {
        self.seg.key()
    }
}

impl Protocol for DmaSegment {
    type Ve = DmaVe;

    const INIT_SYMBOL: &'static str = "ham_dma_init";

    /// Fig. 7 setup, VH side: create the segment, allocate the VE-side
    /// DMA staging buffers, start the reverse service when enabled. The
    /// key reaches the VE through the `ham_dma_init` C-API call.
    fn setup(core: &AuroraCore, node: NodeId, cfg: ProtocolConfig) -> Setup<Self> {
        let proc = &core.target(node).expect("just created").proc;
        let stride = cfg.slot_stride();
        let recv_bytes = cfg.array_bytes(cfg.recv_slots);
        let send_bytes = cfg.array_bytes(cfg.send_slots);
        let reverse_bytes = if cfg.reverse {
            reverse_slot_bytes(&cfg)
        } else {
            0
        };
        let key_lease = SHM_KEY_POOL.lease();
        let key = key_lease.key;
        let seg = core
            .machine()
            .shm()
            .create_guarded(key, recv_bytes + send_bytes + reverse_bytes)
            .expect("shm segment");

        // VE-side staging buffers for DMA fetches/deposits (forward
        // and, when enabled, reverse).
        let staging = proc.alloc_mem(stride).expect("VE staging allocation");
        let reverse_staging = cfg
            .reverse
            .then(|| proc.alloc_mem(stride).expect("reverse staging"));

        let reverse = cfg.reverse.then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let service = ReverseService::new(
                Arc::clone(seg.region()),
                recv_bytes + send_bytes,
                cfg,
                Arc::clone(core.host_registry()),
                Arc::clone(&stop),
            );
            let thread = std::thread::Builder::new()
                .name(format!("ham-reverse-svc-{}", node.0))
                .spawn(move || service.run())
                .expect("spawn reverse service");
            ReverseHost {
                stop,
                thread: Mutex::new(Some(thread)),
            }
        });

        Setup {
            host: DmaSegment {
                seg,
                _key: key_lease,
                send_base: recv_bytes,
                stride,
                reverse,
            },
            init_args: ArgsStack::new().push_u64(key as u64),
            // Fig. 7 setup, VE side: attach the segment by key, register
            // it in the DMAATB and resolve the window once; every later
            // LHM/SHM/user-DMA access goes through the window alone.
            ve_init: Box::new(move |ve, args| {
                let seg = ve.shm.attach(args.get_u64(0) as i32).expect("attach shm");
                let atb = ve.proc.ve().dmaatb();
                let vehva = atb
                    .register(
                        aurora_mem::DmaTarget {
                            region: Arc::clone(seg.region()),
                            offset: 0,
                        },
                        seg.len(),
                    )
                    .expect("DMAATB registration");
                let window = atb.window(vehva).expect("just registered");
                let stage = |at| ve.proc.translate(at, stride).expect("staging is mapped");
                let side = DmaVe {
                    proc: Arc::clone(&ve.proc),
                    udma: ve.udma.clone(),
                    lhm_shm: ve.lhm_shm.clone(),
                    send_base: recv_bytes,
                    cfg,
                    stage: stage(staging),
                    shm: Arc::clone(&ve.shm),
                    seg,
                    reverse: reverse_staging.map(|staging| VeReverseTransport {
                        proc: Arc::clone(&ve.proc),
                        udma: ve.udma.clone(),
                        lhm_shm: ve.lhm_shm.clone(),
                        window: window.clone(),
                        vehva: vehva.offset(recv_bytes + send_bytes),
                        cfg,
                        stage: stage(staging),
                        seq: Mutex::new(0),
                    }),
                    window,
                };
                (vehva.get(), side)
            }),
        }
    }

    /// Two VH-local writes (Fig. 8): the message, then the flag carrying
    /// its own landing timestamp.
    fn send_frame(
        &self,
        core: &AuroraCore,
        _node: NodeId,
        res: &Reservation,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let clock = core.host_clock();
        let region = self.seg.region();
        region
            .write(self.recv_msg(res.recv_slot), frame)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let t0 = clock.now();
        let landing = clock.advance(calib::HAM_LOCAL_MEM_TOUCH);
        aurora_sim_core::trace::record("vh.local_post", frame.len() as u64, t0, landing);
        region
            .store_u64(self.recv_flag(res.recv_slot), landing.as_ps())
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Free local peek of the result flag; a non-zero value is the
    /// result's virtual landing time (the completion token).
    fn poll_flag(
        &self,
        _core: &AuroraCore,
        _node: NodeId,
        _seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let v = self
            .seg
            .region()
            .load_u64(self.send_flag(entry.send_slot))
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        Ok((v != 0).then_some(v))
    }

    /// Consume a ready result from local memory: join the flag's landing
    /// time, pay the successful poll + message read, reset the flag.
    fn fetch_frame(
        &self,
        core: &AuroraCore,
        _node: NodeId,
        _seq: u64,
        entry: &PendingEntry,
        token: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), OffloadError> {
        let clock = core.host_clock();
        clock.join(SimTime::from_ps(token));
        let t0 = clock.now();
        let t1 = clock.advance(calib::HAM_LOCAL_MEM_TOUCH * 2);
        aurora_sim_core::trace::record("vh.local_consume", 0, t0, t1);

        let region = self.seg.region();
        let s = entry.send_slot;
        let mut hdr = [0u8; HEADER_BYTES];
        region
            .read(self.send_msg(s), &mut hdr)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let header = MsgHeader::decode(&hdr).map_err(|e| OffloadError::Backend(e.to_string()))?;
        out.resize(header.payload_len as usize, 0);
        region
            .read(self.send_msg(s) + HEADER_BYTES as u64, out)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        // Reset the (local) flag; the engine frees the slots.
        region
            .store_u64(self.send_flag(s), 0)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Stop the reverse service: `ham_main` has exited, so no more
    /// reverse calls can be in flight.
    fn stop(&self) {
        if let Some(r) = &self.reverse {
            r.stop.store(true, Ordering::Release);
            if let Some(h) = r.thread.lock().unwrap().take() {
                let _ = h.join();
            }
        }
    }
}

/// VE half of the protocol (Fig. 8): all transfers VE-initiated.
///
/// Everything a slot access needs is resolved at `ham_dma_init`: the
/// DMAATB window of the shm segment and the HBM offset of the staging
/// buffer. Reaching a slot or the staging buffer takes no lock and
/// changes no reference count.
pub struct DmaVe {
    proc: Arc<VeProcess>,
    udma: aurora_ve::UserDma,
    lhm_shm: aurora_ve::LhmShmUnit,
    /// The registered shm segment.
    window: DmaWindow,
    /// Offset of the send-slot array within the segment.
    send_base: u64,
    cfg: ProtocolConfig,
    /// HBM offset of the VE-local staging buffer for DMA.
    stage: u64,
    shm: Arc<ShmManager>,
    seg: Arc<ShmSegment>,
    reverse: Option<VeReverseTransport>,
}

impl Drop for DmaVe {
    /// When `ham_main` exits: free the DMAATB entry, then shmdt so a
    /// doomed segment (host guard dropped / explicit IPC_RMID) is
    /// actually destroyed.
    fn drop(&mut self) {
        let _ = self.proc.ve().dmaatb().unregister(self.window.base());
        self.shm.detach(&self.seg);
    }
}

impl DmaVe {
    fn recv_flag(&self, i: usize) -> Vehva {
        self.window.base().offset(i as u64 * self.cfg.slot_stride())
    }
    fn recv_msg(&self, i: usize) -> Vehva {
        self.recv_flag(i).offset(SLOT_META)
    }
    fn send_flag(&self, i: usize) -> Vehva {
        self.window
            .base()
            .offset(self.send_base + i as u64 * self.cfg.slot_stride())
    }
    fn send_msg(&self, i: usize) -> Vehva {
        self.send_flag(i).offset(SLOT_META)
    }
}

impl VeTransport for DmaVe {
    fn peek(&self, i: usize) -> Result<Option<SimTime>, MemError> {
        let ts = self.lhm_shm.peek_word(&self.window, self.recv_flag(i))?;
        Ok((ts != 0).then(|| SimTime::from_ps(ts)))
    }

    /// Pay the LHM word, DMA-fetch the message into a pooled body,
    /// release the slot.
    fn consume(
        &self,
        i: usize,
        ts: SimTime,
        pool: &Arc<FramePool>,
    ) -> Option<(MsgHeader, PooledFrame)> {
        let flag = self.recv_flag(i);
        let (clock, hbm, stage) = (self.proc.clock(), self.proc.hbm(), self.stage);
        // The successful poll: one charged LHM word after the flag's
        // landing time.
        clock.join(ts);
        let _ = self.lhm_shm.lhm(clock, &self.window, flag).ok()?;

        // First DMA: header + up to SMALL_FETCH payload bytes in one TLP.
        let first = (HEADER_BYTES + SMALL_FETCH).min(HEADER_BYTES + self.cfg.msg_bytes) as u64;
        self.udma
            .read_host(clock, &self.window, self.recv_msg(i), hbm, stage, first)
            .ok()?;
        let mut hdr = [0u8; HEADER_BYTES];
        hbm.read(stage, &mut hdr).ok()?;
        let header = MsgHeader::decode(&hdr).ok()?;
        if header.payload_len as usize > self.cfg.msg_bytes {
            return None;
        }
        let mut payload = pool.checkout();
        payload.resize(header.payload_len as usize, 0);
        let small = payload.len().min(SMALL_FETCH);
        hbm.read(stage + HEADER_BYTES as u64, &mut payload[..small])
            .ok()?;
        if payload.len() > SMALL_FETCH {
            // Second DMA for the tail of a large message.
            let rest = (payload.len() - SMALL_FETCH) as u64;
            self.udma
                .read_host(
                    clock,
                    &self.window,
                    self.recv_msg(i).offset(first),
                    hbm,
                    stage + first,
                    rest,
                )
                .ok()?;
            hbm.read(stage + first, &mut payload[SMALL_FETCH..]).ok()?;
        }
        // Release the slot: SHM store of 0 (host reuses after result).
        self.lhm_shm.shm(clock, &self.window, flag, 0).ok()?;
        Some((header, payload))
    }

    /// Stage locally, deposit with user DMA, notify with an SHM
    /// timestamp flag.
    fn publish(&self, s: usize, _seq: u64, frame: &[u8]) {
        let (clock, hbm, stage) = (self.proc.clock(), self.proc.hbm(), self.stage);
        hbm.write(stage, frame).expect("stage result");
        self.udma
            .write_host(
                clock,
                &self.window,
                hbm,
                stage,
                self.send_msg(s),
                frame.len() as u64,
            )
            .expect("result DMA");
        self.lhm_shm
            .shm_timestamp(clock, &self.window, self.send_flag(s))
            .expect("result flag");
    }

    fn reverse(&self) -> Option<&dyn ReverseTransport> {
        self.reverse.as_ref().map(|t| t as &dyn ReverseTransport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::{f2f, ham_kernel};
    use ham_offload::{CommBackend, Offload};
    use veos_sim::{AuroraMachine, MachineConfig};

    ham_kernel! {
        pub fn empty(_ctx) -> () {}
    }

    ham_kernel! {
        pub fn inner_product(ctx, a: u64, b: u64, n: u64) -> f64 {
            let x = ctx.mem.read_f64s(a, n as usize).unwrap();
            let y = ctx.mem.read_f64s(b, n as usize).unwrap();
            x.iter().zip(&y).map(|(p, q)| p * q).sum()
        }
    }

    ham_kernel! {
        pub fn echo_blob(_ctx, data: Vec<u8>) -> Vec<u8> { data }
    }

    fn machine() -> Arc<AuroraMachine> {
        AuroraMachine::small(
            1,
            MachineConfig {
                hbm_bytes: 16 << 20,
                vh_bytes: 32 << 20,
                ..Default::default()
            },
        )
    }

    fn backend(m: Arc<AuroraMachine>) -> Arc<DmaBackend> {
        DmaBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
            b.register::<inner_product>();
            b.register::<echo_blob>();
        })
    }

    /// The paper's methodology (§V): warm-up iterations, then the mean
    /// over many repetitions — absorbing the one-time startup skew of
    /// `ham_main`'s own VEO launch.
    fn mean_offload_us(o: &Offload, reps: u32) -> f64 {
        for _ in 0..10 {
            o.sync(NodeId(1), f2f!(empty)).unwrap();
        }
        let t0 = o.backend().host_clock().now();
        for _ in 0..reps {
            o.sync(NodeId(1), f2f!(empty)).unwrap();
        }
        (o.backend().host_clock().now() - t0).as_us_f64() / reps as f64
    }

    #[test]
    fn empty_offload_costs_fig9_dma_value() {
        let o = Offload::new(backend(machine()));
        let us = mean_offload_us(&o, 100);
        // Fig. 9: 6.1 us, ±3 %.
        assert!((us - 6.1).abs() / 6.1 < 0.03, "HAM/DMA offload = {us} us");
        o.shutdown();
    }

    #[test]
    fn inner_product_over_dma_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 64).unwrap();
        let b = o.allocate::<f64>(t, 64).unwrap();
        let xs: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let ys: Vec<f64> = (0..64).map(|i| 1.0 / (1.0 + i as f64)).collect();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let r = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 64))
            .unwrap();
        let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert!((r - expect).abs() < 1e-12);
        o.shutdown();
    }

    #[test]
    fn large_messages_use_a_second_dma_and_still_arrive() {
        let o = Offload::new(backend(machine()));
        let blob: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let r = o.sync(NodeId(1), f2f!(echo_blob, blob.clone())).unwrap();
        assert_eq!(r, blob);
        o.shutdown();
    }

    #[test]
    fn pipelined_asyncs_reuse_slots() {
        let o = Offload::new(backend(machine()));
        let futures: Vec<_> = (0..40)
            .map(|_| o.async_(NodeId(1), f2f!(empty)).unwrap())
            .collect();
        for f in futures {
            f.get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn wait_any_drains_out_of_order() {
        let o = Offload::new(backend(machine()));
        let mut futures: Vec<_> = (0..12)
            .map(|_| o.async_(NodeId(1), f2f!(empty)).unwrap())
            .collect();
        while !futures.is_empty() {
            let i = o.wait_any(&mut futures).expect("something pending");
            futures.swap_remove(i).get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn shm_segment_released_on_shutdown() {
        let m = machine();
        let shm = Arc::clone(m.shm());
        let before = shm.segment_count();
        let backend = backend(Arc::clone(&m));
        assert!(backend.transport(NodeId(1)).is_ok());
        assert_eq!(shm.segment_count(), before + 1);
        let o = Offload::new(backend);
        o.sync(NodeId(1), f2f!(empty)).unwrap();
        o.shutdown();
        drop(o);
        assert_eq!(shm.segment_count(), before, "segment leaked");
        // A later generation on the same machine spawns cleanly (no key
        // collision with the departed segment).
        let again = DmaBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        assert_eq!(shm.segment_count(), before + 1);
        again.shutdown();
    }

    #[test]
    fn backends_return_their_dmaatb_entry() {
        // More backends, one after another, than the VE has DMAATB
        // entries: each must give its window back when `ham_main` exits.
        let m = machine();
        let live = || m.ve(0).dmaatb().live_entries();
        for _ in 0..300 {
            let o = Offload::new(backend(Arc::clone(&m)));
            o.sync(NodeId(1), f2f!(empty)).unwrap();
            assert_eq!(live(), 1);
            o.shutdown();
            drop(o);
            assert_eq!(live(), 0, "DMAATB entry leaked");
        }
    }

    #[test]
    fn key_pool_reuses_released_keys() {
        // A private pool (leaked for the 'static lease bound) shows the
        // reclamation contract deterministically — the process-global
        // pool is shared across concurrently running tests.
        let pool: &'static ShmKeyPool = Box::leak(Box::new(ShmKeyPool::new()));
        let k1 = pool.lease().key; // lease dropped immediately: reclaimed
        let l2 = pool.lease();
        assert_eq!(l2.key, k1, "freed key must be reused");
        let l3 = pool.lease();
        assert_ne!(l3.key, l2.key, "live keys must stay unique");
        let (k2, k3) = (l2.key, l3.key);
        drop(l2);
        drop(l3);
        // LIFO: the most recently freed key comes back first. (Keep the
        // leases bound — a temporary would return its key immediately.)
        let l4 = pool.lease();
        assert_eq!(l4.key, k3);
        let l5 = pool.lease();
        assert_eq!(l5.key, k2);
    }

    #[test]
    fn second_socket_adds_about_one_microsecond() {
        let m = AuroraMachine::a300_8(MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        });
        let near = DmaBackend::spawn(Arc::clone(&m), 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let far = DmaBackend::spawn(m, 1, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let on = Offload::new(near);
        let of = Offload::new(far);
        let near_us = mean_offload_us(&on, 50);
        let far_us = mean_offload_us(&of, 50);
        let delta = far_us - near_us;
        assert!(delta > 0.5 && delta < 1.5, "UPI delta = {delta} us");
        on.shutdown();
        of.shutdown();
    }

    ham_kernel! {
        /// Host-side helper a VE kernel calls back into.
        pub fn host_adder(_ctx, a: u64, b: u64) -> u64 { a + b }
    }

    ham_kernel! {
        /// A VE kernel that reverse-offloads part of its work (VHcall).
        pub fn uses_vhcall(ctx, x: u64) -> u64 {
            assert!(ctx.has_reverse(), "reverse transport must be present");
            let partial = ctx.vhcall(f2f!(host_adder, x, 100)).expect("vhcall");
            partial * 2
        }
    }

    #[test]
    fn reverse_offload_round_trip() {
        let o = Offload::new(DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                reverse: true,
                ..Default::default()
            },
            |b| {
                b.register::<host_adder>();
                b.register::<uses_vhcall>();
            },
        ));
        // (x + 100) on the host, * 2 back on the VE.
        assert_eq!(o.sync(NodeId(1), f2f!(uses_vhcall, 7)).unwrap(), 214);
        o.shutdown();
    }

    #[test]
    fn reverse_calls_are_served_and_cheap() {
        let backend = DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                reverse: true,
                ..Default::default()
            },
            |b| {
                b.register::<host_adder>();
                b.register::<uses_vhcall>();
                b.register::<empty>();
            },
        );
        let o = Offload::new(Arc::<DmaBackend>::clone(&backend));
        // Warm up, then measure an offload whose kernel makes one
        // reverse call.
        for _ in 0..10 {
            o.sync(NodeId(1), f2f!(uses_vhcall, 1)).unwrap();
        }
        let t0 = o.backend().host_clock().now();
        let reps = 20;
        for _ in 0..reps {
            // (1 + 100) on the host, * 2 back on the VE: every call
            // was served by the reverse service.
            assert_eq!(o.sync(NodeId(1), f2f!(uses_vhcall, 1)).unwrap(), 202);
        }
        let us = (o.backend().host_clock().now() - t0).as_us_f64() / reps as f64;
        // One forward (~6 µs) + one reverse (~6 µs) round trip — far
        // below the ~85 µs syscall-style VHcall path.
        assert!(us > 8.0 && us < 25.0, "offload with vhcall = {us} us");
        o.shutdown();
    }

    #[test]
    fn vhcall_without_reverse_enabled_errors() {
        let o = Offload::new(DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig::default(),
            |b| {
                b.register::<host_adder>();
                b.register::<vhcall_expect_err>();
            },
        ));
        assert!(o.sync(NodeId(1), f2f!(vhcall_expect_err)).unwrap());
        o.shutdown();
    }

    ham_kernel! {
        /// Host-side helper answering `n` bytes.
        pub fn host_bytes(_ctx, n: u64) -> Vec<u8> { vec![7; n as usize] }
    }

    ham_kernel! {
        /// Asks the host for `n` bytes; reports the length or the error.
        pub fn vhcall_bytes(ctx, n: u64) -> String {
            match ctx.vhcall(f2f!(host_bytes, n)) {
                Ok(bytes) => format!("ok {}", bytes.len()),
                Err(e) => e.to_string(),
            }
        }
    }

    #[test]
    fn oversized_reverse_results_become_error_frames() {
        let o = Offload::new(DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                reverse: true,
                ..Default::default()
            },
            |b| {
                b.register::<host_bytes>();
                b.register::<vhcall_bytes>();
            },
        ));
        // status byte + u64 length prefix + 5000 bytes > 4096-byte slots.
        let too_big = "reverse result of 5009 bytes exceeds the protocol's 4096-byte slots";
        // The service reuses its response buffer: a small answer after a
        // rejected large one, and the rejection again, come out whole.
        for (n, want) in [(5000, too_big), (16, "ok 16"), (5000, too_big)] {
            let got = o.sync(NodeId(1), f2f!(vhcall_bytes, n)).unwrap();
            assert!(got.contains(want), "{n} bytes: {got}");
        }
        o.shutdown();
    }

    ham_kernel! {
        pub fn vhcall_expect_err(ctx) -> bool {
            !ctx.has_reverse()
                && ctx.vhcall(f2f!(host_adder, 1, 2)).is_err()
        }
    }

    #[test]
    fn shutdown_then_post_fails() {
        let o = Offload::new(backend(machine()));
        o.shutdown();
        assert!(matches!(
            o.sync(NodeId(1), f2f!(empty)),
            Err(OffloadError::Shutdown)
        ));
    }
}
