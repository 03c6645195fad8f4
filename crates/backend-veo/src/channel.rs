//! The VEO-based messaging protocol (paper §III-D, Fig. 5).
//!
//! Buffer geometry (all in VE memory, allocated by the VH through VEO):
//!
//! ```text
//! recv slot i (VH → VE offload messages):
//!   +0   flag  (u64)  0 = free, seq+1 = message present
//!   +8   ts    (u64)  virtual landing time of the flag (ps)
//!   +16  message: 32-byte header ‖ payload (≤ msg_bytes)
//! send slot j (VE → VH results): same layout; flag = seq+1.
//! ```
//!
//! The VH writes a message with one `veo_write_mem`, then publishes it
//! with a second 16-byte `veo_write_mem`-priced flag write (the flag's
//! timestamp is obtained by *quoting* the DMA manager first, so the value
//! can embed its own landing time). The VE polls its local flags, resets
//! them after consuming, executes, and deposits results locally. The VH
//! polls the result flag and fetches flag + message with two
//! `veo_read_mem`s — giving the 2 W + 2 R ≈ 432 µs empty-offload cost of
//! Fig. 9. Results are matched by sequence number, so send-slot flags
//! never need a (costly) host-side reset write.
//!
//! Host-side protocol state (slot rings, pending table, completion
//! queue) lives in [`ham_offload::chan`] and the backend skeleton
//! (spawn, teardown, fault gating, the VE-side loop) in
//! [`aurora_proto::backend`]; this module implements only the VEO
//! transport verbs. Polling is arrival-driven in virtual time (zero-cost
//! real peeks; the successful poll is charged) — see the DESIGN.md
//! discussion.

use aurora_mem::{MemError, VeAddr};
use aurora_proto::{
    AuroraBackend, AuroraCore, Protocol, ProtocolConfig, Setup, VeTransport, SLOT_META,
};
use aurora_sim_core::{calib, SimTime};
use ham::wire::{MsgHeader, HEADER_BYTES};
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{PendingEntry, Reservation};
use ham_offload::types::NodeId;
use ham_offload::OffloadError;
use std::sync::Arc;
use veo_api::ArgsStack;
use veos_sim::VeProcess;

/// Geometry of one slot array.
#[derive(Clone, Copy, Debug)]
struct Slots {
    base: VeAddr,
    stride: u64,
}

impl Slots {
    fn flag(&self, i: usize) -> VeAddr {
        self.base.offset(i as u64 * self.stride)
    }
    fn ts(&self, i: usize) -> VeAddr {
        self.flag(i).offset(8)
    }
    fn msg(&self, i: usize) -> VeAddr {
        self.flag(i).offset(SLOT_META)
    }
}

/// The VEO communication backend (Fig. 5).
pub type VeoBackend = AuroraBackend<VeoSlots>;

/// Host half of the VEO protocol: both slot arrays live in VE memory
/// and every access is a `veo_write_mem` / `veo_read_mem`.
pub struct VeoSlots {
    recv: Slots,
    send: Slots,
}

impl Protocol for VeoSlots {
    type Ve = VeSlots;

    const INIT_SYMBOL: &'static str = "ham_comm_init";

    /// Allocate the communication buffers through VEO; their addresses
    /// reach the VE via the HAM-Offload C-API (Fig. 4).
    fn setup(core: &AuroraCore, node: NodeId, cfg: ProtocolConfig) -> Setup<Self> {
        let proc = &core.target(node).expect("just created").proc;
        let stride = cfg.slot_stride();
        let alloc_zeroed = |slots: usize| {
            let bytes = cfg.array_bytes(slots);
            let base = proc.alloc_mem(bytes).expect("slot array allocation");
            // Flags must start invalid.
            proc.process()
                .write(base, &vec![0u8; bytes as usize])
                .expect("zero slot array");
            Slots { base, stride }
        };
        let recv = alloc_zeroed(cfg.recv_slots);
        let send = alloc_zeroed(cfg.send_slots);
        Setup {
            host: VeoSlots { recv, send },
            init_args: ArgsStack::new()
                .push_u64(recv.base.get())
                .push_u64(send.base.get())
                .push_u64(cfg.recv_slots as u64)
                .push_u64(cfg.send_slots as u64)
                .push_u64(stride),
            ve_init: Box::new(move |ve, args| {
                let slots = |base| Slots {
                    base: VeAddr(args.get_u64(base)),
                    stride: args.get_u64(4),
                };
                let side = VeSlots {
                    proc: Arc::clone(&ve.proc),
                    recv: slots(0),
                    send: slots(1),
                    msg_bytes: cfg.msg_bytes,
                };
                (0, side)
            }),
        }
    }

    /// Two `veo_write_mem`s: the message body, then the 16-byte ts+flag
    /// publish (the flag embeds its own quoted landing time).
    fn send_frame(
        &self,
        core: &AuroraCore,
        node: NodeId,
        res: &Reservation,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let proc = &core.target(node)?.proc;
        let r = res.recv_slot;

        // Write 1: the message body — the engine-assembled wire frame,
        // verbatim.
        proc.write_mem_from(frame, self.recv.msg(r))
            .map_err(|e| OffloadError::Backend(e.to_string()))?;

        // Write 2: ts + flag, priced as one 16-byte VEO write. The DMA
        // manager is quoted first so the flag's landing time can be
        // embedded; the raw stores happen payload-before-flag.
        let vh_page = core.machine().vh(core.host_socket()).page_size();
        let landing = core.machine().veos(proc.ve_id()).dma().quote_write(
            core.host_clock(),
            vh_page,
            proc.process(),
            SLOT_META,
        );
        proc.process()
            .write(self.recv.ts(r), &landing.as_ps().to_le_bytes())
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        proc.process()
            .store_flag(self.recv.flag(r), res.seq + 1)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Free peek of the result flag (`seq+1` = ready).
    fn poll_flag(
        &self,
        core: &AuroraCore,
        node: NodeId,
        seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let flag = core
            .target(node)?
            .proc
            .process()
            .load_flag(self.send.flag(entry.send_slot));
        Ok(matches!(flag, Ok(f) if f == seq + 1).then_some(0))
    }

    /// Fetch a completed result: join its timestamp, pay the two VEO
    /// reads of the protocol.
    fn fetch_frame(
        &self,
        core: &AuroraCore,
        node: NodeId,
        seq: u64,
        entry: &PendingEntry,
        _token: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), OffloadError> {
        let proc = &core.target(node)?.proc;
        let s = entry.send_slot;

        // The flag is set (caller peeked); join its landing time.
        let mut ts_bytes = [0u8; 8];
        proc.process()
            .read(self.send.ts(s), &mut ts_bytes)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        core.host_clock()
            .join(SimTime::from_ps(u64::from_le_bytes(ts_bytes)));

        // Charged read 1: flag + ts.
        let mut meta = [0u8; SLOT_META as usize];
        proc.read_mem_into(self.send.flag(s), &mut meta)
            .map_err(|e| OffloadError::Backend(e.to_string()))?;
        // Peek the header (free) to size the charged message read.
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        proc.process()
            .read(self.send.msg(s), &mut hdr_bytes)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let header =
            MsgHeader::decode(&hdr_bytes).map_err(|e| OffloadError::Backend(e.to_string()))?;
        debug_assert_eq!(header.seq, seq, "result sequence mismatch");
        // Charged read 2: header + payload, straight into `out`; the
        // header is dropped after.
        out.resize(HEADER_BYTES + header.payload_len as usize, 0);
        proc.read_mem_into(self.send.msg(s), out)
            .map_err(|e| OffloadError::Backend(e.to_string()))?;
        out.drain(..HEADER_BYTES);
        Ok(())
    }
}

/// VE half of the VEO protocol: the slots are local memory.
pub struct VeSlots {
    proc: Arc<VeProcess>,
    recv: Slots,
    send: Slots,
    msg_bytes: usize,
}

impl VeTransport for VeSlots {
    fn peek(&self, i: usize) -> Result<Option<SimTime>, MemError> {
        if self.proc.load_flag(self.recv.flag(i))? == 0 {
            return Ok(None);
        }
        let mut ts = [0u8; 8];
        self.proc.read(self.recv.ts(i), &mut ts)?;
        Ok(Some(SimTime::from_ps(u64::from_le_bytes(ts))))
    }

    /// Join the flag's landing time, charge one local read, copy the
    /// message out, release the slot.
    fn consume(
        &self,
        i: usize,
        ts: SimTime,
        pool: &Arc<FramePool>,
    ) -> Option<(MsgHeader, PooledFrame)> {
        self.proc
            .clock()
            .join_then_advance(ts, calib::HAM_LOCAL_MEM_TOUCH);
        let mut hdr = [0u8; HEADER_BYTES];
        self.proc.read(self.recv.msg(i), &mut hdr).ok()?;
        let header = MsgHeader::decode(&hdr).ok()?;
        if header.payload_len as usize > self.msg_bytes {
            return None; // corrupt header: stop the loop loudly.
        }
        let mut payload = pool.checkout();
        payload.resize(header.payload_len as usize, 0);
        self.proc
            .read(
                self.recv.msg(i).offset(HEADER_BYTES as u64),
                &mut payload[..],
            )
            .ok()?;
        // Release the slot for host reuse.
        self.proc.store_flag(self.recv.flag(i), 0).ok()?;
        Some((header, payload))
    }

    fn publish(&self, s: usize, seq: u64, frame: &[u8]) {
        self.proc
            .write(self.send.msg(s), frame)
            .expect("result write");
        let landing = self.proc.clock().advance(calib::HAM_LOCAL_MEM_TOUCH);
        self.proc
            .write(self.send.ts(s), &landing.as_ps().to_le_bytes())
            .expect("result ts");
        self.proc
            .store_flag(self.send.flag(s), seq + 1)
            .expect("result flag");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::{f2f, ham_kernel};
    use ham_offload::Offload;
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

    fn backend(m: Arc<AuroraMachine>) -> Arc<VeoBackend> {
        VeoBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
            b.register::<inner_product>();
        })
    }

    #[test]
    fn empty_offload_costs_fig9_ham_veo() {
        let o = Offload::new(backend(machine()));
        let t0 = o.backend().host_clock().now();
        o.sync(NodeId(1), f2f!(empty)).unwrap();
        let cost = o.backend().host_clock().now() - t0;
        // Fig. 9: 432 us (5.4x the native VEO call), ±2 %.
        let us = cost.as_us_f64();
        assert!(
            (us - 432.0).abs() / 432.0 < 0.02,
            "HAM/VEO offload = {us} us"
        );
        o.shutdown();
    }

    #[test]
    fn inner_product_over_veo_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 128).unwrap();
        let b = o.allocate::<f64>(t, 128).unwrap();
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i as f64) * 0.5).collect();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let r = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 128))
            .unwrap();
        let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert_eq!(r, expect);
        o.shutdown();
    }

    #[test]
    fn pipelined_async_offloads() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let futures: Vec<_> = (0..20).map(|_| o.async_(t, f2f!(empty)).unwrap()).collect();
        for f in futures {
            f.get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn wait_all_over_veo_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let futures: Vec<_> = (0..20).map(|_| o.async_(t, f2f!(empty)).unwrap()).collect();
        for r in o.wait_all(futures) {
            r.unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn oversized_message_is_rejected() {
        let o = Offload::new(VeoBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                msg_bytes: 256,
                ..Default::default()
            },
            |b| {
                b.register::<big_args>();
            },
        ));
        let r = o.sync(NodeId(1), f2f!(big_args, vec![0u8; 1000]));
        assert!(matches!(r, Err(OffloadError::Backend(m)) if m.contains("exceeds")));
        o.shutdown();
    }

    ham_kernel! {
        pub fn big_args(_ctx, data: Vec<u8>) -> u64 { data.len() as u64 }
    }

    #[test]
    fn post_after_shutdown_fails() {
        let o = Offload::new(backend(machine()));
        o.shutdown();
        assert!(matches!(
            o.sync(NodeId(1), f2f!(empty)),
            Err(OffloadError::Shutdown)
        ));
    }

    #[test]
    fn second_socket_pays_upi() {
        // On a 2-socket machine, offloading from socket 1 to VE 0 must
        // not be cheaper than from socket 0 (UPI hops).
        let m = AuroraMachine::a300_8(MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        });
        let near = VeoBackend::spawn(Arc::clone(&m), 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let far = VeoBackend::spawn(m, 1, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let on = Offload::new(near);
        let of = Offload::new(far);
        let t0 = on.backend().host_clock().now();
        on.sync(NodeId(1), f2f!(empty)).unwrap();
        let near_cost = on.backend().host_clock().now() - t0;
        let t1 = of.backend().host_clock().now();
        of.sync(NodeId(1), f2f!(empty)).unwrap();
        let far_cost = of.backend().host_clock().now() - t1;
        assert!(far_cost >= near_cost, "near {near_cost}, far {far_cost}");
        on.shutdown();
        of.shutdown();
    }
}
