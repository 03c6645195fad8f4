//! The shared target-side engine: one [`DeviceRuntime`] behind every
//! backend's `ham_main()`.
//!
//! The serial loop in [`crate::target_loop`] executed every message —
//! and every batch member — one after another, while the paper's VE is
//! an 8-core vector processor. This runtime models those cores as
//! **worker lanes**: each lane is a virtual-time cursor, work items
//! (batch members and independently pipelined offloads) are dealt
//! round-robin onto per-lane queues, and an idle lane steals the oldest
//! item of the most-loaded peer. Execution still happens on the
//! device-loop thread in a fixed order — the deterministic greedy
//! schedule below — so same-seed replays stay bit-identical; the
//! *parallelism* shows up on the virtual timeline the benches measure.
//!
//! ## The window
//!
//! Each cycle blocks for one message, then drains whatever the host has
//! already made available (at most 64 messages) into a
//! scheduling window. Everything in the window is independent in-flight
//! work by construction — the host only pipelines offloads that have no
//! ordering constraint between them — so its members may share the lane
//! schedule. All results of a window are published before the runtime
//! blocks again, so the host never waits on a result the device is
//! sitting on: after the window's last result the runtime calls
//! [`TargetChannel::flush`] once, and a transport that queued the
//! results hands them to the wire there. Over TCP that is one write
//! per window of results, where a post costs one `writev` of its own.
//!
//! ## In-order publication
//!
//! Result frames are published in **arrival order**, each one after
//! joining the device clock to that carrier's completion barrier (the
//! max finish time of its members across lanes). Arrival-order
//! publication is what keeps the dedup watermark and the recovery
//! protocol's "result still in the send slot" replay reasoning sound:
//! the watermark advances exactly as it would under the serial loop,
//! and a carrier's combined result exists before any later seq is
//! acknowledged. A batch carrier publishes one combined frame only
//! after *all* its members finished (per-carrier completion barrier),
//! so a re-sent carrier still dedups atomically.

use crate::chan::batch;
use crate::chan::pool::{FramePool, PooledFrame};
use crate::target_loop::{frame_result, write_framed, Polled, TargetChannel, TargetEnv};
use aurora_sim_core::trace;
use aurora_sim_core::{Clock, SimTime};
use aurora_telemetry::{node_scope, offload_scope, retag_since, LaneStats, OffloadId};
use ham::message::ComputeMeter;
use ham::wire::{MsgHeader, MsgKind};
use ham::{ExecContext, HamError};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The paper's VE core count — the default worker-lane count.
pub const DEFAULT_LANES: usize = 8;

/// Cap on messages drained into one scheduling window.
const WINDOW: usize = 64;

/// Configuration of one target's device runtime.
#[derive(Clone)]
pub struct DeviceConfig {
    /// Worker lanes (simulated VE cores). `0` is clamped to `1`; `1`
    /// reproduces the serial loop's timeline exactly.
    pub(crate) lanes: usize,
    /// The device's virtual clock, joined to each carrier's completion
    /// barrier at publication. `None` (clock-less transports: local,
    /// TCP) publishes immediately — their kernels carry no meter, so
    /// every barrier is at the window base anyway.
    pub(crate) clock: Option<Clock>,
    /// Lane occupancy / steal registers to report into, usually
    /// [`aurora_telemetry::BackendMetrics::lane_stats`].
    pub(crate) stats: Option<Arc<LaneStats>>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceConfig {
    /// The default runtime: [`DEFAULT_LANES`] lanes, no clock, no stats.
    pub fn new() -> Self {
        Self {
            lanes: DEFAULT_LANES,
            clock: None,
            stats: None,
        }
    }

    /// Builder: set the lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Builder: attach the device clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builder: attach lane registers.
    pub fn with_stats(mut self, stats: Arc<LaneStats>) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// [`ComputeMeter`] shim placed in front of the backend's real meter
/// while a member executes on a lane: instead of advancing the device
/// clock, charged flops are priced via [`ComputeMeter::cost_ps`] and
/// accumulated against the lane's virtual cursor. Compute spans are
/// recorded at lane-local times, so a trace shows members overlapping.
struct LaneMeter<'a> {
    inner: Option<&'a dyn ComputeMeter>,
    /// Lane-local virtual start of the member now executing (ps).
    base_ps: AtomicU64,
    /// Cost accumulated by the member now executing (ps).
    charged_ps: AtomicU64,
}

impl<'a> LaneMeter<'a> {
    fn new(inner: Option<&'a dyn ComputeMeter>) -> Self {
        Self {
            inner,
            base_ps: AtomicU64::new(0),
            charged_ps: AtomicU64::new(0),
        }
    }

    /// Arm the shim for one member starting at lane time `base_ps`.
    fn begin(&self, base_ps: u64) {
        self.base_ps.store(base_ps, Ordering::Relaxed);
        self.charged_ps.store(0, Ordering::Relaxed);
    }

    /// Total cost the armed member charged.
    fn charged(&self) -> u64 {
        self.charged_ps.load(Ordering::Relaxed)
    }
}

impl ComputeMeter for LaneMeter<'_> {
    fn charge_flops(&self, flops: u64) {
        let Some(inner) = self.inner else { return };
        let d = inner.cost_ps(flops);
        let t0 = self.base_ps.load(Ordering::Relaxed) + self.charged_ps.load(Ordering::Relaxed);
        trace::record(
            "ve.compute",
            flops,
            SimTime::from_ps(t0),
            SimTime::from_ps(t0 + d),
        );
        self.charged_ps.fetch_add(d, Ordering::Relaxed);
    }

    fn cost_ps(&self, flops: u64) -> u64 {
        self.inner.map_or(0, |m| m.cost_ps(flops))
    }
}

/// One schedulable unit: a plain offload, or one member of a batch.
struct Item {
    /// Window index of the message owning the payload bytes.
    msg: usize,
    /// Index of the owning carrier in the window's carrier list.
    carrier: usize,
    header: MsgHeader,
    /// Byte range of the member payload inside its message body.
    payload: Range<usize>,
}

/// One received message and its publication plan.
struct Carrier {
    header: MsgHeader,
    /// This carrier's slice of the window's flat item list.
    items: Range<usize>,
    /// Dedup duplicate: publish nothing (the original result still sits
    /// in — or is on its way to — the send slot).
    skip: bool,
    /// Wire error: publish an error frame. The well-formed member
    /// prefix still executes first, mirroring the serial loop.
    reject: Option<String>,
    batch: bool,
    /// Watermark contribution once published (max executed member seq).
    wm: Option<u64>,
    /// Completion barrier: max virtual finish time of the members (ps).
    finish_ps: u64,
}

/// Why one [`DeviceRuntime::run_session`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// A `Control` frame arrived: orderly shutdown, do not resume.
    Control,
    /// The transport closed under the loop (disconnect). The session is
    /// resumable: keep the memory and the watermark, re-accept, and run
    /// another session with the carried watermark.
    Closed,
}

/// Where one session of the message loop ended.
#[derive(Clone, Copy, Debug)]
pub struct SessionEnd {
    /// Offloads served this session (batch members individually).
    pub served: u64,
    /// The dedup watermark as it stands after this session: the max
    /// executed seq, monotonic across resumed sessions. Announced to
    /// the host on reconnect so it replays only provably-unexecuted
    /// frames.
    pub watermark: Option<u64>,
    /// Why the loop stopped.
    pub reason: HaltReason,
}

/// Execute one member with the lane meter shim in place of the
/// backend's clock-advancing meter, appending its framed result
/// (`status ‖ output`) to `out`.
fn execute_member(
    env: &TargetEnv<'_>,
    meter: &LaneMeter<'_>,
    header: &MsgHeader,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut ctx = ExecContext::new(env.node, env.mem);
    if let Some(r) = env.reverse {
        ctx = ctx.with_reverse_transport(env.registry, r);
    }
    if env.meter.is_some() {
        ctx = ctx.with_meter(meter);
    }
    write_framed(out, |out| {
        env.registry
            .execute_into(header.handler_key, payload, &mut ctx, out)
    });
}

/// The shared target-side engine. Owns the lane scheduler and the
/// frame-pool handle recv bodies are checked out through.
pub struct DeviceRuntime {
    cfg: DeviceConfig,
    pool: Arc<FramePool>,
}

impl DeviceRuntime {
    /// A runtime with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            cfg,
            pool: FramePool::new(),
        }
    }

    /// Run the message loop for one target until a `Control` message or
    /// channel shutdown. Returns the number of offloads served (batch
    /// members count individually).
    pub fn run(&self, env: &TargetEnv<'_>, chan: &dyn TargetChannel) -> u64 {
        self.run_session(env, chan, None).served
    }

    /// Run one *session* of the message loop, seeding the dedup
    /// watermark from a previous session on the same target. Reports
    /// how the session ended so a reconnecting transport can tell an
    /// orderly `Control` shutdown ([`HaltReason::Control`]) from a
    /// dropped connection ([`HaltReason::Closed`]) and carry the
    /// watermark into the resume handshake.
    pub fn run_session(
        &self,
        env: &TargetEnv<'_>,
        chan: &dyn TargetChannel,
        initial_watermark: Option<u64>,
    ) -> SessionEnd {
        let _node = node_scope(env.node);
        let lanes = self.cfg.lanes.max(1);
        let mut served: u64 = 0;
        let mut watermark: Option<u64> = initial_watermark;
        let mut reason = HaltReason::Closed;
        // Lane cursors persist across windows and only move forward.
        let mut avail = vec![0u64; lanes];
        // Per-lane work queues; every window drains them completely.
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
        // Window scratch, reused so the warm cycle allocates nothing but
        // one exact-size buffer per published result frame.
        let mut window: Vec<(MsgHeader, PooledFrame)> = Vec::new();
        let mut items: Vec<Item> = Vec::new();
        let mut carriers: Vec<Carrier> = Vec::new();
        let mut members: Vec<(MsgHeader, Range<usize>)> = Vec::new();
        // The result arena: every member appends its framed result
        // (`status ‖ output`) here, in execution order; `spans[idx]` is
        // item `idx`'s bytes.
        let mut arena: Vec<u8> = Vec::new();
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut executed = vec![0u64; lanes];
        let meter = LaneMeter::new(env.meter);

        loop {
            // ---- Drain: one blocking recv, then whatever is ready ----
            window.clear();
            let mark = aurora_telemetry::mark();
            let Some((h, p)) = chan.recv(&self.pool) else {
                break;
            };
            if h.corr != 0 {
                retag_since(&mark, OffloadId(h.corr));
            }
            let mut closed = false;
            let mut saw_control = h.kind == MsgKind::Control;
            window.push((h, p));
            while !saw_control && window.len() < WINDOW {
                let mark = aurora_telemetry::mark();
                match chan.try_recv(&self.pool) {
                    Polled::Msg(h, p) => {
                        if h.corr != 0 {
                            retag_since(&mark, OffloadId(h.corr));
                        }
                        saw_control = h.kind == MsgKind::Control;
                        window.push((h, p));
                    }
                    Polled::Empty => break,
                    Polled::Closed => {
                        closed = true;
                        break;
                    }
                }
            }

            // ---- Parse: carriers, members, dedup, hostile frames ----
            items.clear();
            carriers.clear();
            let mut halt = closed;
            // Skip decisions run against the watermark as it *will*
            // stand when each carrier publishes — identical to the
            // serial loop's per-message interleaving.
            let mut wm_window = watermark;
            for (mi, (h, payload)) in window.iter().enumerate() {
                let start = items.len();
                match h.kind {
                    MsgKind::Control => {
                        halt = true;
                        reason = HaltReason::Control;
                        break;
                    }
                    MsgKind::Result => {
                        // A result message arriving at a target is a
                        // protocol violation any peer can commit: end
                        // the session as a dropped link, never panic.
                        halt = true;
                        break;
                    }
                    MsgKind::Offload => {
                        let skip = env.dedup && wm_window.is_some_and(|w| h.seq <= w);
                        if !skip {
                            items.push(Item {
                                msg: mi,
                                carrier: carriers.len(),
                                header: *h,
                                payload: 0..payload.len(),
                            });
                            wm_window = Some(wm_window.map_or(h.seq, |w| w.max(h.seq)));
                        }
                        carriers.push(Carrier {
                            header: *h,
                            items: start..items.len(),
                            skip,
                            reject: None,
                            batch: false,
                            wm: (!skip).then_some(h.seq),
                            finish_ps: 0,
                        });
                    }
                    MsgKind::Batch => {
                        // The carrier's seq is its last member's, so the
                        // watermark dedups a re-sent batch atomically.
                        let skip = env.dedup && wm_window.is_some_and(|w| h.seq <= w);
                        let (reject, wm) = if skip {
                            (None, None)
                        } else {
                            match batch::member_ranges(payload, &mut members) {
                                Err(e) => (Some(e), None),
                                Ok(err) => {
                                    let mut wm = None;
                                    for (sh, range) in members.drain(..) {
                                        items.push(Item {
                                            msg: mi,
                                            carrier: carriers.len(),
                                            header: sh,
                                            payload: range,
                                        });
                                        wm = Some(wm.map_or(sh.seq, |w: u64| w.max(sh.seq)));
                                    }
                                    if let Some(w) = wm {
                                        wm_window = Some(wm_window.map_or(w, |c| c.max(w)));
                                    }
                                    (err, wm)
                                }
                            }
                        };
                        carriers.push(Carrier {
                            header: *h,
                            items: start..items.len(),
                            skip,
                            reject,
                            batch: true,
                            wm,
                            finish_ps: 0,
                        });
                    }
                }
            }

            // ---- Schedule: greedy deterministic lane simulation ----
            if !items.is_empty() {
                for k in 0..items.len() {
                    queues[k % lanes].push_back(k);
                }
                let base = self.cfg.clock.as_ref().map_or(0, |c| c.now().as_ps());
                for a in &mut avail {
                    *a = (*a).max(base);
                }
                executed.iter_mut().for_each(|e| *e = 0);
                arena.clear();
                spans.clear();
                spans.resize(items.len(), 0..0);
                let mut remaining = items.len();
                while remaining > 0 {
                    // Next lane to run: earliest virtual cursor; ties
                    // rotate by work done this window, then lane id.
                    let lane = (0..lanes)
                        .min_by_key(|&l| (avail[l], executed[l], l))
                        .expect("at least one lane");
                    // Own queue first, else steal the oldest item of the
                    // most loaded peer (ties to the lowest lane id).
                    let (idx, stolen) = match queues[lane].pop_front() {
                        Some(i) => (i, false),
                        None => {
                            let i = (0..lanes)
                                .filter(|&v| v != lane)
                                .max_by_key(|&v| (queues[v].len(), std::cmp::Reverse(v)))
                                .and_then(|v| queues[v].pop_front())
                                .expect("remaining > 0 implies queued work");
                            (i, true)
                        }
                    };
                    let item = &items[idx];
                    // Execute now, in real time; the member's compute
                    // cost lands on this lane's virtual cursor.
                    meter.begin(avail[lane]);
                    let start = arena.len();
                    {
                        let _of = offload_scope(OffloadId(item.header.corr));
                        let body = &window[item.msg].1[item.payload.clone()];
                        execute_member(env, &meter, &item.header, body, &mut arena);
                    }
                    spans[idx] = start..arena.len();
                    let d = meter.charged();
                    avail[lane] += d;
                    executed[lane] += 1;
                    if let Some(stats) = &self.cfg.stats {
                        stats.on_task(lane, d);
                        if stolen {
                            stats.on_steal();
                        }
                    }
                    let c = &mut carriers[item.carrier];
                    c.finish_ps = c.finish_ps.max(avail[lane]);
                    remaining -= 1;
                }
            }

            // ---- Publish: arrival order, barrier-joined ----
            for c in &carriers {
                if c.skip {
                    continue;
                }
                // The publication's transport spans (result DMA, flag
                // store, target overhead) belong to the offload being
                // answered, same as under the serial loop.
                let _of = (c.header.corr != 0).then(|| offload_scope(OffloadId(c.header.corr)));
                let join_barrier = |c: &Carrier| {
                    if let Some(clock) = &self.cfg.clock {
                        clock.join(SimTime::from_ps(c.finish_ps));
                    }
                };
                if let Some(e) = &c.reject {
                    // Hostile envelope: any well-formed prefix executed
                    // (and counts), but the host errors every member
                    // uniformly via one error frame.
                    served += c.items.len() as u64;
                    if !c.items.is_empty() {
                        join_barrier(c);
                    }
                    chan.send_result(
                        c.header.reply_slot,
                        c.header.seq,
                        frame_result(Err(HamError::Wire(e.clone()))),
                    );
                } else if !c.batch {
                    join_barrier(c);
                    let frame = arena[spans[c.items.start].clone()].to_vec();
                    chan.send_result(c.header.reply_slot, c.header.seq, frame);
                    served += 1;
                } else {
                    // One combined result answers the whole batch:
                    // 0 ‖ count ‖ per-member (seq ‖ len ‖ framed
                    // result), in member order, sized before it is
                    // written.
                    let parts = &spans[c.items.clone()];
                    let len = parts
                        .iter()
                        .map(|s| batch::PART_PREFIX_BYTES + s.len())
                        .sum::<usize>();
                    let mut frame = Vec::with_capacity(1 + batch::COUNT_BYTES + len);
                    write_framed(&mut frame, |body| {
                        batch::begin_result(body, parts.len() as u32);
                        for (item, span) in items[c.items.clone()].iter().zip(parts) {
                            batch::append_result_part(body, item.header.seq, &arena[span.clone()]);
                        }
                        Ok(())
                    });
                    join_barrier(c);
                    chan.send_result(c.header.reply_slot, c.header.seq, frame);
                    served += c.items.len() as u64;
                }
                if let Some(w) = c.wm {
                    watermark = Some(watermark.map_or(w, |cur| cur.max(w)));
                }
            }
            chan.flush();

            if halt {
                break;
            }
        }
        SessionEnd {
            served,
            watermark,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target_loop::unframe_result_ref;
    use ham::message::VecMemory;
    use ham::registry::HandlerKey;
    use ham::{f2f, ham_kernel, Registry, RegistryBuilder};
    use std::sync::Mutex;

    ham_kernel! {
        pub fn burn(ctx, flops: u64) -> u64 { ctx.charge_flops(flops); flops }
    }

    ham_kernel! {
        pub fn add(_ctx, a: u64, b: u64) -> u64 { a + b }
    }

    ham_kernel! {
        /// Variable-length output: `n % 40` copies of `n as u8`.
        pub fn fill(_ctx, n: u64) -> Vec<u8> { vec![n as u8; (n % 40) as usize] }
    }

    /// 1 ps per flop; `charge_flops` is never called directly because
    /// the runtime always interposes its lane shim.
    struct PsPerFlop;
    impl ComputeMeter for PsPerFlop {
        fn charge_flops(&self, _flops: u64) {
            panic!("the device runtime must interpose the lane meter");
        }
        fn cost_ps(&self, flops: u64) -> u64 {
            flops
        }
    }

    /// What a channel's `send_result` recorded: (reply slot, seq, payload).
    type Outbox = Vec<(u16, u64, Vec<u8>)>;

    /// Queue-backed channel: `try_recv` drains eagerly, `Closed` once
    /// empty, so every queued message lands in a single window.
    struct QueueChannel {
        inbox: Mutex<VecDeque<(MsgHeader, Vec<u8>)>>,
        outbox: Mutex<Outbox>,
    }

    impl QueueChannel {
        fn new(msgs: Vec<(MsgHeader, Vec<u8>)>) -> Self {
            Self {
                inbox: Mutex::new(VecDeque::from(msgs)),
                outbox: Mutex::new(vec![]),
            }
        }
    }

    impl TargetChannel for QueueChannel {
        fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
            self.inbox
                .lock()
                .unwrap()
                .pop_front()
                .map(|(h, p)| (h, pool.adopt(p)))
        }
        fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
            match self.inbox.lock().unwrap().pop_front() {
                Some((h, p)) => Polled::Msg(h, pool.adopt(p)),
                None => Polled::Closed,
            }
        }
        fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
            self.outbox.lock().unwrap().push((reply_slot, seq, payload));
        }
    }

    fn registry() -> Registry {
        let mut b = RegistryBuilder::new();
        b.register::<burn>();
        b.register::<add>();
        b.register::<fill>();
        b.seal(7)
    }

    fn header(kind: MsgKind, key: HandlerKey, len: usize, slot: u16, seq: u64) -> MsgHeader {
        MsgHeader {
            handler_key: key,
            payload_len: len as u32,
            kind,
            reply_slot: slot,
            corr: 0,
            seq,
        }
    }

    fn offload(key: HandlerKey, payload: &[u8], slot: u16, seq: u64) -> (MsgHeader, Vec<u8>) {
        let mut h = header(MsgKind::Offload, key, payload.len(), slot, seq);
        h.corr = seq + 1;
        (h, payload.to_vec())
    }

    /// A batch carrier over `members` answering on `slot`; like the
    /// host's, its seq is the last member's.
    fn envelope(members: &[(MsgHeader, Vec<u8>)], slot: u16, corr: u64) -> (MsgHeader, Vec<u8>) {
        use ham::wire::HEADER_BYTES;
        let mut frame = vec![0u8; HEADER_BYTES + batch::COUNT_BYTES];
        for (h, p) in members {
            batch::append_sub(&mut frame, h, p);
        }
        let seq = members.last().map_or(0, |m| m.0.seq);
        let carrier = batch::carrier_header(seq, frame.len() - HEADER_BYTES, slot, corr);
        batch::patch_envelope(&mut frame, &carrier, members.len() as u32);
        (carrier, frame[HEADER_BYTES..].to_vec())
    }

    fn add_msg(key: HandlerKey, a: u64, b: u64, slot: u16, seq: u64) -> (MsgHeader, Vec<u8>) {
        let payload = ham::codec::encode(&f2f!(add, a, b)).unwrap();
        (
            header(MsgKind::Offload, key, payload.len(), slot, seq),
            payload,
        )
    }

    /// One session on the default runtime (no clock, no meter), as the
    /// clock-less transports run it.
    fn serve(registry: &Registry, dedup: bool, chan: &dyn TargetChannel) -> u64 {
        let mem = VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup,
        };
        DeviceRuntime::new(DeviceConfig::new()).run(&env, chan)
    }

    fn run_with(
        lanes: usize,
        clock: &Clock,
        stats: Option<Arc<LaneStats>>,
        msgs: Vec<(MsgHeader, Vec<u8>)>,
    ) -> (u64, SimTime, Outbox) {
        let reg = registry();
        let mem = VecMemory::new(0);
        let meter = PsPerFlop;
        let env = TargetEnv {
            node: 1,
            registry: &reg,
            mem: &mem,
            reverse: None,
            meter: Some(&meter),
            dedup: false,
        };
        let mut cfg = DeviceConfig::new()
            .with_lanes(lanes)
            .with_clock(clock.clone());
        cfg.stats = stats;
        let chan = QueueChannel::new(msgs);
        let served = DeviceRuntime::new(cfg).run(&env, &chan);
        let out = std::mem::take(&mut *chan.outbox.lock().unwrap());
        (served, clock.now(), out)
    }

    fn burn_msgs(costs: &[u64]) -> Vec<(MsgHeader, Vec<u8>)> {
        let reg = registry();
        let key = reg.key_of::<burn>().unwrap();
        costs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let payload = ham::codec::encode(&f2f!(burn, c)).unwrap();
                offload(key, &payload, i as u16, i as u64)
            })
            .collect()
    }

    #[test]
    fn lanes_shrink_the_window_makespan() {
        // Eight equal members: serial = 8d, 4 lanes = 2d, 8 lanes = d.
        for (lanes, expect_ps) in [(1usize, 8_000u64), (4, 2_000), (8, 1_000)] {
            let clock = Clock::new();
            let (served, now, out) = run_with(lanes, &clock, None, burn_msgs(&[1_000; 8]));
            assert_eq!(served, 8);
            assert_eq!(out.len(), 8);
            assert_eq!(now.as_ps(), expect_ps, "lanes = {lanes}");
        }
    }

    #[test]
    fn single_offload_timing_is_lane_invariant() {
        // A lone message must cost exactly its compute time whatever
        // the lane count — the Fig. 9 calibration contract.
        for lanes in [1usize, 8] {
            let clock = Clock::new();
            let (_, now, _) = run_with(lanes, &clock, None, burn_msgs(&[4_321]));
            assert_eq!(now.as_ps(), 4_321);
        }
    }

    #[test]
    fn results_publish_in_arrival_order() {
        // Wildly unequal costs: item 0 finishes last on the lanes, yet
        // publication order is arrival order.
        let clock = Clock::new();
        let (_, now, out) = run_with(4, &clock, None, burn_msgs(&[9_000, 10, 10, 10]));
        let seqs: Vec<u64> = out.iter().map(|o| o.1).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(now.as_ps(), 9_000, "makespan is the long pole");
    }

    #[test]
    fn idle_lanes_steal_and_are_counted() {
        let stats = Arc::new(LaneStats::new());
        let clock = Clock::new();
        // Round-robin deal on two lanes: lane 0 holds {0: 8000, 2: 10,
        // 4: 10}, lane 1 holds {1: 10, 3: 10, 5: 10}. Lane 1 drains its
        // own queue while lane 0 chews the long item, then steals the
        // rest.
        let (served, now, _) = run_with(
            2,
            &clock,
            Some(Arc::clone(&stats)),
            burn_msgs(&[8_000, 10, 10, 10, 10, 10]),
        );
        assert_eq!(served, 6);
        assert_eq!(stats.steals(), 2, "items 2 and 4 migrate to lane 1");
        assert_eq!(stats.tasks(0), 1);
        assert_eq!(stats.tasks(1), 5);
        assert_eq!(now.as_ps(), 8_000, "steals hide behind the long pole");
    }

    #[test]
    fn thieves_steal_the_oldest_item() {
        let stats = Arc::new(LaneStats::new());
        let clock = Clock::new();
        // Lane 0 holds {0: 100, 2: 50, 4: 5000}, lane 1 holds three
        // 10s. Lane 1 goes idle at 30 while lane 0 is still on item 0;
        // taking the front steals item 2 first, then item 4 at 80
        // (makespan 5 080). Stealing from the back would grab item 4 at
        // 30 and leave item 2 to lane 0 (makespan 5 030, one steal).
        let (_, now, _) = run_with(
            2,
            &clock,
            Some(Arc::clone(&stats)),
            burn_msgs(&[100, 10, 50, 10, 5_000, 10]),
        );
        assert_eq!(stats.steals(), 2);
        assert_eq!((stats.tasks(0), stats.tasks(1)), (1, 5));
        assert_eq!(now.as_ps(), 5_080);
    }

    #[test]
    fn batch_barrier_waits_for_the_slowest_member() {
        let carrier = envelope(&burn_msgs(&[5_000, 100]), 2, 9);
        let clock = Clock::new();
        let (served, now, out) = run_with(8, &clock, None, vec![carrier]);
        assert_eq!(served, 2);
        assert_eq!(out.len(), 1, "one combined result for the batch");
        assert_eq!((out[0].0, out[0].1), (2, 1));
        // Barrier: published at the slow member's finish, not the sum.
        assert_eq!(now.as_ps(), 5_000);
        let body = unframe_result_ref(&out[0].2).unwrap();
        let parts: Vec<_> = batch::ResultPartIter::new(body)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(parts.len(), 2, "both members answered in member order");
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[1].0, 1);
    }

    #[test]
    fn sessions_carry_the_watermark_and_report_why_they_ended() {
        let reg = registry();
        let mem = VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry: &reg,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup: true,
        };
        let rt = DeviceRuntime::new(DeviceConfig::new());
        // Session 1: serves seqs 0-2, then the link drops (Closed).
        let mut msgs = burn_msgs(&[1, 1, 1, 1]);
        let fresh = msgs.pop().unwrap();
        let replayed = msgs[2].clone();
        let chan = QueueChannel::new(msgs);
        let end = rt.run_session(&env, &chan, None);
        assert_eq!(
            (end.served, end.watermark, end.reason),
            (3, Some(2), HaltReason::Closed)
        );
        // Session 2 resumes with the carried watermark: a replayed
        // seq ≤ 2 is deduplicated, a fresh seq executes, and the
        // Control frame ends the session for good.
        let ctrl = (
            header(MsgKind::Control, HandlerKey(0), 0, 0, u64::MAX),
            vec![],
        );
        let chan = QueueChannel::new(vec![replayed, fresh, ctrl]);
        let end = rt.run_session(&env, &chan, end.watermark);
        assert_eq!(
            (end.served, end.watermark, end.reason),
            (1, Some(3), HaltReason::Control)
        );
        assert_eq!(
            chan.outbox.lock().unwrap().len(),
            1,
            "the duplicate publishes nothing"
        );
    }

    #[test]
    fn same_input_schedules_identically() {
        let costs = [700u64, 20, 333, 4_000, 1, 52, 1_000, 9];
        let run = || {
            let stats = Arc::new(LaneStats::new());
            let clock = Clock::new();
            let (served, now, out) =
                run_with(4, &clock, Some(Arc::clone(&stats)), burn_msgs(&costs));
            let lanes: Vec<u64> = (0..4).map(|l| stats.tasks(l)).collect();
            (served, now, out, lanes, stats.steals())
        };
        assert_eq!(run(), run(), "bit-identical replay");
    }

    #[test]
    fn loop_serves_offloads_then_stops_on_control() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        let chan = QueueChannel::new(vec![
            add_msg(key, 20, 22, 3, 100),
            add_msg(key, 20, 22, 4, 101),
            (header(MsgKind::Control, HandlerKey(0), 0, 0, 102), vec![]),
        ]);
        let served = serve(&registry, false, &chan);
        assert_eq!(served, 2);
        let out = chan.outbox.lock().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 3);
        assert_eq!(out[0].1, 100);
        let bytes = unframe_result_ref(&out[0].2).unwrap();
        assert_eq!(ham::codec::decode::<u64>(bytes).unwrap(), 42);
    }

    #[test]
    fn handler_errors_travel_as_error_frames() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        // Corrupt payload → codec error inside the handler.
        let chan = QueueChannel::new(vec![(
            header(MsgKind::Offload, key, 3, 0, 0),
            vec![1, 2, 3],
        )]);
        serve(&registry, false, &chan);
        let out = chan.outbox.lock().unwrap();
        assert!(unframe_result_ref(&out[0].2).is_err());
    }

    #[test]
    fn dedup_skips_resent_seqs_without_reexecuting() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        let mk = |seq| add_msg(key, 1, 2, 0, seq);
        // seq 0 served, then a duplicate of 0, then 1, then a late
        // duplicate of 0 again.
        let chan = QueueChannel::new(vec![mk(0), mk(0), mk(1), mk(0)]);
        assert_eq!(serve(&registry, true, &chan), 2);
        let out = chan.outbox.lock().unwrap();
        assert_eq!(out.iter().map(|o| o.1).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn batch_envelope_executes_members_in_order_with_one_result() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        // Envelope of two adds with seqs 10 and 11 (carrier seq = 11).
        let members = [add_msg(key, 1, 100, 0, 10), add_msg(key, 2, 100, 0, 11)];
        let chan = QueueChannel::new(vec![envelope(&members, 5, 10)]);
        assert_eq!(serve(&registry, false, &chan), 2);
        let out = chan.outbox.lock().unwrap();
        assert_eq!(out.len(), 1, "one result message for the whole batch");
        assert_eq!((out[0].0, out[0].1), (5, 11));
        let body = unframe_result_ref(&out[0].2).unwrap();
        let parts: Vec<_> = batch::ResultPartIter::new(body)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(parts.len(), 2);
        for (i, expect) in [(0usize, 101u64), (1, 102)] {
            let (seq, framed) = parts[i];
            assert_eq!(seq, 10 + i as u64);
            let bytes = unframe_result_ref(framed).unwrap();
            assert_eq!(ham::codec::decode::<u64>(bytes).unwrap(), expect);
        }
    }

    #[test]
    fn malformed_batch_is_rejected_wholesale() {
        let registry = registry();
        let carrier = batch::carrier_header(3, 4, 0, 0);
        // Count claims one sub but no bytes follow.
        let chan = QueueChannel::new(vec![(carrier, 1u32.to_le_bytes().to_vec())]);
        assert_eq!(serve(&registry, false, &chan), 0);
        let out = chan.outbox.lock().unwrap();
        assert_eq!(out.len(), 1);
        assert!(unframe_result_ref(&out[0].2).is_err(), "error frame");
    }

    #[test]
    fn loop_survives_malformed_batch_and_keeps_serving() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        // A lying envelope (count = 2, one truncated sub) followed by a
        // well-formed plain offload: the loop must answer the first with
        // an error frame and still serve the second.
        let mut hostile = 2u32.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0xAB; 7]);
        let chan = QueueChannel::new(vec![
            (batch::carrier_header(5, hostile.len(), 1, 0), hostile),
            add_msg(key, 40, 2, 2, 6),
        ]);
        assert_eq!(serve(&registry, false, &chan), 1);
        let out = chan.outbox.lock().unwrap();
        assert_eq!(out.len(), 2);
        assert!(
            unframe_result_ref(&out[0].2).is_err(),
            "hostile batch errors"
        );
        let bytes = unframe_result_ref(&out[1].2).unwrap();
        assert_eq!(ham::codec::decode::<u64>(bytes).unwrap(), 42);
    }

    #[test]
    fn dedup_skips_resent_batches_atomically() {
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        let members = [add_msg(key, 0, 1, 0, 0), add_msg(key, 1, 1, 0, 1)];
        let carrier = envelope(&members, 0, 0);
        let chan = QueueChannel::new(vec![carrier.clone(), carrier]);
        assert_eq!(serve(&registry, true, &chan), 2, "duplicate skipped");
        assert_eq!(chan.outbox.lock().unwrap().len(), 1);
    }

    /// What a [`Windowed`] channel was asked to do, in order.
    #[derive(Debug, PartialEq)]
    enum Sent {
        /// `send_result` for this seq.
        Result(u64),
        Flush,
    }

    /// Scripted channel with window boundaries: a `None` entry makes
    /// `try_recv` report `Empty`, and a script that runs out reports
    /// `Closed`. Logs `send_result` and `flush` in call order.
    struct Windowed {
        script: Mutex<VecDeque<Step>>,
        log: Mutex<Vec<Sent>>,
    }

    /// One entry of a [`Windowed`] script: a message, or `None` for the
    /// end of a window.
    type Step = Option<(MsgHeader, Vec<u8>)>;

    impl Windowed {
        fn new(script: Vec<Step>) -> Self {
            Self {
                script: Mutex::new(script.into()),
                log: Mutex::new(vec![]),
            }
        }
    }

    impl TargetChannel for Windowed {
        fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
            let mut script = self.script.lock().unwrap();
            while let Some(next) = script.pop_front() {
                if let Some((h, p)) = next {
                    return Some((h, pool.adopt(p)));
                }
            }
            None
        }
        fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
            match self.script.lock().unwrap().pop_front() {
                Some(Some((h, p))) => Polled::Msg(h, pool.adopt(p)),
                Some(None) => Polled::Empty,
                None => Polled::Closed,
            }
        }
        fn send_result(&self, _reply_slot: u16, seq: u64, _payload: Vec<u8>) {
            self.log.lock().unwrap().push(Sent::Result(seq));
        }
        fn flush(&self) {
            self.log.lock().unwrap().push(Sent::Flush);
        }
    }

    /// Every window ends in exactly one flush, after its last result:
    /// windows that end empty, on a `Control` frame, on `Closed`, on a
    /// `Result` sent to the target, and windows that answer a hostile
    /// batch envelope with an error frame.
    #[test]
    fn one_flush_per_window_after_its_last_result() {
        use Sent::{Flush, Result as R};
        let registry = registry();
        let key = registry.key_of::<add>().unwrap();
        let add = |seq| Some(add_msg(key, 1, 2, 0, seq));
        let control = || Some((header(MsgKind::Control, HandlerKey(0), 0, 0, 99), vec![]));
        let hostile = |seq| {
            let mut body = 2u32.to_le_bytes().to_vec();
            body.extend_from_slice(&[0xAB; 7]);
            Some((batch::carrier_header(seq, body.len(), 0, 0), body))
        };
        let result = || Some((header(MsgKind::Result, HandlerKey(0), 0, 0, 98), vec![]));
        let cases = [
            (
                vec![
                    add(0),
                    add(1),
                    add(2),
                    None,
                    add(3),
                    None,
                    add(4),
                    control(),
                ],
                vec![R(0), R(1), R(2), Flush, R(3), Flush, R(4), Flush],
            ),
            (vec![add(0), add(1)], vec![R(0), R(1), Flush]),
            (
                vec![hostile(5), add(6), None, hostile(7)],
                vec![R(5), R(6), Flush, R(7), Flush],
            ),
            (vec![add(0), result(), add(1)], vec![R(0), Flush]),
        ];
        for (script, want) in cases {
            let chan = Windowed::new(script);
            serve(&registry, false, &chan);
            assert_eq!(*chan.log.lock().unwrap(), want);
        }
    }

    #[test]
    fn empty_channel_ends_loop() {
        let chan = QueueChannel::new(vec![]);
        assert_eq!(serve(&registry(), false, &chan), 0);
    }

    /// One member of the byte-equality property: `kind` 0 runs `fill(n)`
    /// (Ok, 0-39 output bytes), 1 a truncated `add` payload (handler
    /// error), 2 an unregistered key.
    fn member(registry: &Registry, kind: u8, n: u64, seq: u64) -> (MsgHeader, Vec<u8>) {
        let (key, payload) = match kind {
            0 => registry.encode_message(&f2f!(fill, n)).unwrap(),
            1 => {
                let (key, full) = registry.encode_message(&f2f!(add, n, n)).unwrap();
                (key, full[..(n % 16) as usize].to_vec())
            }
            _ => (HandlerKey(99), n.to_le_bytes().to_vec()),
        };
        offload(key, &payload, (seq % 8) as u16, seq)
    }

    proptest::proptest! {
        /// The result arena publishes exactly the bytes the per-result
        /// path did: a plain frame is `frame_result(registry.execute(..))`
        /// and a batch frame is `frame_result(Ok(body))` over a
        /// `begin_result`/`append_result_part` body of those frames — for
        /// Ok, handler-error and unknown-key members alike.
        #[test]
        fn prop_arena_frames_match_per_result_framing(
            groups in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u64..1000), 1..6),
                1..12,
            ),
        ) {
            let reg = registry();
            let mem = VecMemory::new(0);
            let mut ctx = ExecContext::new(1, &mem);
            let mut msgs = Vec::new();
            let mut expect = Vec::new();
            let mut seq = 0u64;
            for (g, group) in groups.iter().enumerate() {
                let subs: Vec<_> = group
                    .iter()
                    .map(|&(kind, n)| {
                        seq += 1;
                        member(&reg, kind, n, seq)
                    })
                    .collect();
                let parts: Vec<_> = subs
                    .iter()
                    .map(|(h, p)| frame_result(reg.execute(h.handler_key, p, &mut ctx)))
                    .collect();
                if let [single] = &subs[..] {
                    msgs.push(single.clone());
                    expect.push(parts[0].clone());
                } else {
                    msgs.push(envelope(&subs, g as u16, 0));
                    let mut body = Vec::new();
                    batch::begin_result(&mut body, subs.len() as u32);
                    for ((h, _), part) in subs.iter().zip(&parts) {
                        batch::append_result_part(&mut body, h.seq, part);
                    }
                    expect.push(frame_result(Ok(body)));
                }
            }
            let chan = QueueChannel::new(msgs.clone());
            serve(&reg, false, &chan);
            let out = chan.outbox.lock().unwrap();
            proptest::prop_assert_eq!(out.len(), expect.len());
            for ((slot, seq, frame), ((h, _), want)) in out.iter().zip(msgs.iter().zip(&expect)) {
                proptest::prop_assert_eq!((*slot, *seq), (h.reply_slot, h.seq));
                proptest::prop_assert_eq!(frame, want);
            }
        }
    }
}
