//! Reverse active messages: VHcall over the DMA protocol (extension).
//!
//! The platform's native VHcall mechanism (§I-B) lets VE code call VH
//! code "in a synchronous fashion, with syscall semantics" — i.e. at the
//! ~85 µs cost of the three-component software path. This module applies
//! the paper's own medicine to the reverse direction: a VE-initiated
//! request/response slot in the VH shm segment, driven with user DMA and
//! LHM/SHM exactly like the forward protocol of Fig. 8 — making a
//! reverse call cost microseconds instead.
//!
//! Reverse slot layout (appended to the segment after the send array):
//!
//! ```text
//! +0   req_flag  (u64)  0 = free; else landing timestamp (ps)
//! +8   resp_flag (u64)  0 = empty; else landing timestamp (ps)
//! +16  request message:  32-byte header ‖ payload
//! +16+msg_stride  response message: 32-byte header ‖ payload
//! ```
//!
//! One slot suffices: the VE target loop executes kernels serially, so at
//! most one reverse call is in flight per target.

use aurora_mem::{DmaWindow, Region, Vehva};
use aurora_proto::ProtocolConfig;
use aurora_sim_core::{calib, Clock, SimTime};
use ham::message::ReverseTransport;
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
use ham::{ExecContext, HamError, Registry};
use ham_offload::chan::Idle;
use ham_offload::target_loop::{unframe_result_ref, write_framed};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Message-area stride inside the reverse slot.
fn msg_stride(cfg: &ProtocolConfig) -> u64 {
    HEADER_BYTES as u64 + cfg.msg_bytes as u64
}

/// Total bytes of the reverse slot.
pub(crate) fn reverse_slot_bytes(cfg: &ProtocolConfig) -> u64 {
    16 + 2 * msg_stride(cfg)
}

/// Host-side service: polls the request flag, executes handlers with the
/// *host* registry, posts responses. Runs on its own host thread with
/// its own logical clock (another thread of the VH process).
pub(crate) struct ReverseService {
    region: Arc<Region>,
    /// Byte offset of the reverse slot in the segment.
    base: u64,
    cfg: ProtocolConfig,
    registry: Arc<Registry>,
    clock: Clock,
    stop: Arc<AtomicBool>,
}

impl ReverseService {
    /// Create a service over the reverse slot at `base`.
    pub(crate) fn new(
        region: Arc<Region>,
        base: u64,
        cfg: ProtocolConfig,
        registry: Arc<Registry>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        Self {
            region,
            base,
            cfg,
            registry,
            clock: Clock::new(),
            stop,
        }
    }

    /// The service loop; returns when the stop flag is raised.
    pub(crate) fn run(&self) {
        let req_flag = self.base;
        let resp_flag = self.base + 8;
        let req_msg = self.base + 16;
        let resp_msg = req_msg + msg_stride(&self.cfg);
        // Host-side scratch memory for reverse handlers.
        let scratch = ham::message::VecMemory::new(1 << 16);
        // Reused per call: the request payload, and the response message
        // (header ‖ status ‖ output) that the handler encodes into.
        let mut payload = Vec::new();
        let mut resp = Vec::new();
        let mut idle = Idle::new();
        loop {
            let ts = match self.region.load_u64(req_flag) {
                Ok(0) => {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    idle.pause();
                    continue;
                }
                Ok(ts) => SimTime::from_ps(ts),
                Err(_) => return,
            };
            idle.reset();
            // Arrival-driven: join the request's landing time, pay the
            // local poll read.
            self.clock.join(ts);
            self.clock.advance(calib::HAM_LOCAL_MEM_TOUCH);

            let mut hdr = [0u8; HEADER_BYTES];
            if self.region.read(req_msg, &mut hdr).is_err() {
                return;
            }
            let header = match MsgHeader::decode(&hdr) {
                Ok(h) => h,
                Err(_) => return,
            };
            payload.clear();
            payload.resize(header.payload_len as usize, 0);
            if self
                .region
                .read(req_msg + HEADER_BYTES as u64, &mut payload)
                .is_err()
            {
                return;
            }
            // Execute on the host, with host-side framework cost; the
            // result is framed in place behind room for its header.
            self.clock.advance(calib::HAM_TARGET_OVERHEAD);
            let mut ctx = ExecContext::new(0, &scratch);
            resp.clear();
            resp.resize(HEADER_BYTES, 0);
            write_framed(&mut resp, |out| {
                self.registry
                    .execute_into(header.handler_key, &payload, &mut ctx, out)
            });
            let framed = resp.len() - HEADER_BYTES;
            if framed > self.cfg.msg_bytes {
                resp.truncate(HEADER_BYTES);
                write_framed(&mut resp, |_| {
                    Err(ham::HamError::Wire(format!(
                        "reverse result of {} bytes exceeds the protocol's {}-byte slots",
                        framed, self.cfg.msg_bytes
                    )))
                });
            }

            // Response message + flag (all host-local writes).
            let resp_header = MsgHeader {
                handler_key: HandlerKey(0),
                payload_len: (resp.len() - HEADER_BYTES) as u32,
                kind: MsgKind::Result,
                reply_slot: 0,
                corr: header.corr,
                seq: header.seq,
            };
            resp[..HEADER_BYTES].copy_from_slice(&resp_header.encode());
            if self.region.write(resp_msg, &resp).is_err() {
                return;
            }
            // Free the request slot, then publish the response.
            let landing = self.clock.advance(calib::HAM_LOCAL_MEM_TOUCH);
            let _ = self.region.store_u64(req_flag, 0);
            let _ = self.region.store_u64(resp_flag, landing.as_ps());
        }
    }
}

/// VE-side transport: what `ctx.vhcall(...)` uses inside kernels.
pub(crate) struct VeReverseTransport {
    /// The VE process (for its clock and HBM).
    pub(crate) proc: Arc<veos_sim::VeProcess>,
    /// This core's user DMA engine.
    pub(crate) udma: aurora_ve::UserDma,
    /// This core's LHM/SHM unit.
    pub(crate) lhm_shm: aurora_ve::LhmShmUnit,
    /// The DMAATB window of the shm segment the reverse slot is in.
    pub(crate) window: DmaWindow,
    /// VEHVA of the reverse slot.
    pub(crate) vehva: Vehva,
    /// Protocol geometry.
    pub(crate) cfg: ProtocolConfig,
    /// HBM offset of the VE-local staging buffer, distinct from the
    /// forward one.
    pub(crate) stage: u64,
    /// Serialises calls (defensive; the target loop is serial anyway).
    pub(crate) seq: Mutex<u64>,
}

impl ReverseTransport for VeReverseTransport {
    fn call_raw(&self, key: HandlerKey, payload: &[u8]) -> Result<Vec<u8>, HamError> {
        if payload.len() > self.cfg.msg_bytes {
            return Err(HamError::Wire(format!(
                "reverse message of {} bytes exceeds {}-byte slots",
                payload.len(),
                self.cfg.msg_bytes
            )));
        }
        let mut seq_guard = self.seq.lock().unwrap();
        let seq = *seq_guard;
        *seq_guard += 1;

        let (clock, hbm, stage) = (self.proc.clock(), self.proc.hbm(), self.stage);
        let win = &self.window;
        let err = |e: aurora_mem::MemError| HamError::Mem(e.to_string());

        let header = MsgHeader {
            handler_key: key,
            payload_len: payload.len() as u32,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: aurora_telemetry::current_offload(),
            seq,
        };
        let mut bytes = header.encode().to_vec();
        bytes.extend_from_slice(payload);

        // Stage locally, DMA the request into the host slot, flag it.
        hbm.write(stage, &bytes).map_err(err)?;
        let req_msg = self.vehva.offset(16);
        self.udma
            .write_host(clock, win, hbm, stage, req_msg, bytes.len() as u64)
            .map_err(err)?;
        self.lhm_shm
            .shm_timestamp(clock, win, self.vehva)
            .map_err(err)?;

        // Poll the response flag (arrival-driven), then fetch.
        let resp_flag = self.vehva.offset(8);
        let mut idle = Idle::new();
        let ts = loop {
            match self.lhm_shm.peek_word(win, resp_flag) {
                Ok(0) => idle.pause(),
                Ok(ts) => break SimTime::from_ps(ts),
                Err(e) => return Err(err(e)),
            }
        };
        clock.join(ts);
        self.lhm_shm.lhm(clock, win, resp_flag).map_err(err)?;

        let resp_msg = self.vehva.offset(16 + msg_stride(&self.cfg));
        let first =
            (HEADER_BYTES as u64 + 224).min(HEADER_BYTES as u64 + self.cfg.msg_bytes as u64);
        self.udma
            .read_host(clock, win, resp_msg, hbm, stage, first)
            .map_err(err)?;
        let mut hdr = [0u8; HEADER_BYTES];
        hbm.read(stage, &mut hdr).map_err(err)?;
        let resp_header = MsgHeader::decode(&hdr)?;
        if resp_header.seq != seq {
            return Err(HamError::Wire(format!(
                "reverse response seq {} != {}",
                resp_header.seq, seq
            )));
        }
        let total = HEADER_BYTES as u64 + resp_header.payload_len as u64;
        if total > first {
            self.udma
                .read_host(
                    clock,
                    win,
                    resp_msg.offset(first),
                    hbm,
                    stage + first,
                    total - first,
                )
                .map_err(err)?;
        }
        let mut frame = vec![0u8; resp_header.payload_len as usize];
        hbm.read(stage + HEADER_BYTES as u64, &mut frame)
            .map_err(err)?;
        // Clear the response flag for the next call.
        self.lhm_shm.shm(clock, win, resp_flag, 0).map_err(err)?;

        // Borrow to classify, then reuse the fetched buffer as the
        // result (shift out the frame tag) instead of copying the body.
        match unframe_result_ref(&frame) {
            Ok(_) => {
                frame.drain(..1);
                Ok(frame)
            }
            Err(e) => Err(HamError::Wire(e)),
        }
    }
}
