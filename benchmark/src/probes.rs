//! Probe cells: single-layer measurements taken from outside, through
//! public items, on one thread with no transport unless stated. Each
//! group runs in its own child process and prints `name unit value n`.
//! A probe is the median over [`BATCHES`] batches, so `n` counts calls.

use crate::metrics::Row;
use crate::round::{model_violation, Outcome};
use crate::workloads::{self, echo, register, whoami};
use aurora_pcie::{Direction, LinkConfig, PcieLink};
use aurora_sim_core::trace::{self, TraceSession};
use aurora_sim_core::{BackendMetrics, Clock, SimTime};
use aurora_telemetry::AtomicHistogram;
use ham::message::VecMemory;
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
use ham::{f2f, ExecContext, Registry, RegistryBuilder};
use ham_backend_tcp::frame::{read_frame, write_frame};
use ham_offload::backend::RawBuffer;
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{batch, engine, BatchConfig, FlushPrep, Reservation, Reserve, Stage};
use ham_offload::device::{DeviceConfig, DeviceRuntime};
use ham_offload::local::LocalBackend;
use ham_offload::target_loop::{Polled, TargetChannel, TargetEnv};
use ham_offload::{
    ChannelCore, CommBackend, NodeDescriptor, NodeId, Offload, OffloadError, ProtocolConfig,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};
use veo_api::VeoProc;

pub const GROUPS: &[&str] = &[
    "chan",
    "device",
    "sched",
    "ham",
    "tcp",
    "platform",
    "telemetry",
    "local",
    "model",
];

const BATCHES: usize = 9;
const T1: NodeId = NodeId(1);

/// Median of `BATCHES` measured batches after one discarded batch.
fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let runs: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    crate::stats::median(&runs).expect("BATCHES > 0")
}

/// Wall nanoseconds per call of `f`, `iters` calls per batch.
fn per_call(name: &str, iters: u64, mut f: impl FnMut()) -> Row {
    let ns = median_of(|| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    });
    Row::of(name, ns, iters * BATCHES as u64)
}

fn registry() -> Registry {
    let mut b = RegistryBuilder::new();
    register(&mut b);
    b.seal(7)
}

fn offload_header(key: HandlerKey, payload_len: usize, reply_slot: u16, seq: u64) -> MsgHeader {
    MsgHeader {
        handler_key: key,
        payload_len: payload_len as u32,
        kind: MsgKind::Offload,
        reply_slot,
        corr: 0,
        seq,
    }
}

// --- chan ---------------------------------------------------------------

/// A `CommBackend` whose wire is a function call: `send_frame` deposits
/// the result at once, so `engine::post` + `drain` cost only the engine
/// and the channel core.
struct Loopback {
    chan: ChannelCore,
    registry: Arc<Registry>,
    clock: Clock,
    metrics: BackendMetrics,
}

fn no_memory<T>() -> Result<T, OffloadError> {
    Err(OffloadError::Backend("loopback probe has no memory".into()))
}

impl CommBackend for Loopback {
    fn num_targets(&self) -> u16 {
        1
    }
    fn host_registry(&self) -> &Arc<Registry> {
        &self.registry
    }
    fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
        Err(OffloadError::BadNode(node))
    }
    fn channel(&self, _target: NodeId) -> Result<&ChannelCore, OffloadError> {
        Ok(&self.chan)
    }
    fn send_frame(
        &self,
        _target: NodeId,
        res: &Reservation,
        _header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let mut reply = self.chan.pool().checkout();
        reply.push(0);
        reply.extend_from_slice(&frame[HEADER_BYTES..]);
        self.chan.deposit_frame(res.seq, reply);
        Ok(())
    }
    fn allocate(&self, _node: NodeId, _bytes: u64) -> Result<u64, OffloadError> {
        no_memory()
    }
    fn free(&self, _node: NodeId, _addr: u64) -> Result<(), OffloadError> {
        no_memory()
    }
    fn put_bytes(&self, _dst: RawBuffer, _data: &[u8]) -> Result<(), OffloadError> {
        no_memory()
    }
    fn get_bytes(&self, _src: RawBuffer, _out: &mut [u8]) -> Result<(), OffloadError> {
        no_memory()
    }
    fn host_clock(&self) -> &Clock {
        &self.clock
    }
    fn metrics(&self) -> &BackendMetrics {
        &self.metrics
    }
    fn shutdown(&self) {}
}

fn chan() -> Vec<Row> {
    let key = HandlerKey(1);
    let mut rows = Vec::new();

    // try_reserve -> note_sent -> deposit_frame -> take_completed.
    let core = ChannelCore::bounded(8, 8, 4096);
    rows.push(per_call("chan.core.cycle_ns", 100_000, || {
        let Reserve::Reserved(r) = core.try_reserve(false, 0, SimTime::ZERO, HEADER_BYTES as u64)
        else {
            panic!("an idle channel refused a reservation");
        };
        let header = offload_header(key, 0, r.send_slot as u16, r.seq);
        let mut frame = core.pool().checkout();
        frame.extend_from_slice(&header.encode());
        core.note_sent(r.seq, &header, frame);
        let mut reply = core.pool().checkout();
        reply.push(0);
        core.deposit_frame(r.seq, reply);
        black_box(core.take_completed(r.seq));
    }));

    // 16 x stage + take_flush, per member. Retiring the envelope (so
    // slots and tables stay bounded) happens outside the timed section.
    const MEMBERS: usize = 16;
    const GROUPS_PER_BATCH: usize = 4_000;
    let core = ChannelCore::bounded(64, 64, 4096).with_batching(BatchConfig::up_to(MEMBERS));
    let payload = [0u8; 32];
    let ns = median_of(|| {
        let mut spent = Duration::ZERO;
        let mut seqs = [0u64; MEMBERS];
        for _ in 0..GROUPS_PER_BATCH {
            let t = Instant::now();
            for s in &mut seqs {
                let Stage::Staged { seq, .. } = core.stage(key, &payload, 0, SimTime::ZERO) else {
                    panic!("an idle channel refused to stage");
                };
                *s = seq;
            }
            let FlushPrep::Ready(f) = core.take_flush() else {
                panic!("a full accumulator did not flush");
            };
            spent += t.elapsed();
            core.fail_batch(f.res.seq, OffloadError::Shutdown);
            for &s in &seqs {
                core.take_unsent(s);
                black_box(core.take_completed(s));
            }
        }
        spent.as_nanos() as f64 / (GROUPS_PER_BATCH * MEMBERS) as f64
    });
    let calls = (BATCHES * GROUPS_PER_BATCH * MEMBERS) as u64;
    rows.push(Row::of("chan.core.stage_flush_ns", ns, calls));

    let lo = Loopback {
        chan: ChannelCore::unbounded(),
        registry: Arc::new(registry()),
        clock: Clock::new(),
        metrics: BackendMetrics::new(),
    };
    rows.push(per_call("chan.engine.loopback_ns", 100_000, || {
        let seq = engine::post(&lo, T1, key, &[]).expect("loopback post");
        engine::drain(&lo, T1).expect("loopback drain");
        black_box(lo.chan.take_completed(seq));
    }));

    let pool = FramePool::new();
    rows.push(per_call("chan.pool.checkout_ns", 400_000, || {
        let mut f = pool.checkout();
        f.extend_from_slice(&[0u8; 64]);
        black_box(&f);
    }));
    rows
}

// --- device -------------------------------------------------------------

/// A target channel preloaded with frames: `try_recv` drains eagerly
/// and reports `Closed` once empty, so the runtime ends by itself.
struct Preloaded {
    inbox: RefCell<VecDeque<(MsgHeader, Vec<u8>)>>,
    sent: Cell<u64>,
}

impl TargetChannel for Preloaded {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let (h, body) = self.inbox.borrow_mut().pop_front()?;
        Some((h, pool.adopt(body)))
    }
    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        match self.inbox.borrow_mut().pop_front() {
            Some((h, body)) => Polled::Msg(h, pool.adopt(body)),
            None => Polled::Closed,
        }
    }
    fn send_result(&self, _reply_slot: u16, _seq: u64, payload: Vec<u8>) {
        black_box(payload);
        self.sent.set(self.sent.get() + 1);
    }
}

/// Wall ns per message of `DeviceRuntime::run` over `frames`, each
/// carrying `per_frame` messages.
fn dispatch(
    name: &str,
    per_frame: u64,
    frames: impl Fn() -> VecDeque<(MsgHeader, Vec<u8>)>,
) -> Row {
    let reg = registry();
    let mem = VecMemory::new(0);
    let env = TargetEnv {
        node: 1,
        registry: &reg,
        mem: &mem,
        reverse: None,
        meter: None,
        dedup: false,
    };
    let mut msgs = 0;
    let ns = median_of(|| {
        let chan = Preloaded {
            inbox: RefCell::new(frames()),
            sent: Cell::new(0),
        };
        let n = chan.inbox.borrow().len() as u64;
        let t = Instant::now();
        let served = DeviceRuntime::new(DeviceConfig::new()).run(&env, &chan);
        let spent = t.elapsed();
        assert_eq!(
            (served, chan.sent.get()),
            (n * per_frame, n),
            "device probe lost work"
        );
        msgs = served;
        spent.as_nanos() as f64 / served as f64
    });
    Row::of(name, ns, msgs * BATCHES as u64)
}

fn device() -> Vec<Row> {
    const MSGS: u64 = 16_384;
    const MEMBERS: u64 = 16;
    let key = registry().key_of::<whoami>().expect("registered");
    let plain = || {
        (0..MSGS)
            .map(|seq| (offload_header(key, 0, (seq % 8) as u16, seq), Vec::new()))
            .collect()
    };
    let carriers = || {
        (0..MSGS / MEMBERS)
            .map(|c| {
                let mut body = Vec::new();
                body.extend_from_slice(&(MEMBERS as u32).to_le_bytes());
                for m in 0..MEMBERS {
                    batch::append_sub(&mut body, &offload_header(key, 0, 0, c * MEMBERS + m), &[]);
                }
                let last = (c + 1) * MEMBERS - 1;
                (batch::carrier_header(last, body.len(), 0, 0), body)
            })
            .collect()
    };
    vec![
        dispatch("device.dispatch_ns", 1, plain),
        dispatch("device.batch_dispatch_ns", MEMBERS, carriers),
    ]
}

// --- sched, ham, tcp ----------------------------------------------------

fn sched() -> Vec<Row> {
    let offload = Offload::new(LocalBackend::spawn(2, register));
    let pool = offload.pool(&[NodeId(1), NodeId(2)]).expect("two targets");
    let row = per_call("sched.pick_ns", 200_000, || {
        black_box(pool.try_pick().expect("healthy pool"));
    });
    drop(pool);
    offload.shutdown();
    vec![row]
}

fn ham() -> Vec<Row> {
    let reg = registry();
    let mem = VecMemory::new(0);
    let msg = f2f!(echo, vec![0xA5u8; 1024]);
    let encoded = ham::codec::encode(&msg).expect("encode");
    let mut buf = Vec::with_capacity(2048);
    let key = reg.key_of::<whoami>().expect("registered");
    vec![
        per_call("ham.codec.encode_ns.1kib", 10_000, || {
            buf.clear();
            ham::codec::encode_into(&msg, &mut buf).expect("encode");
            black_box(&buf);
        }),
        per_call("ham.codec.decode_ns.1kib", 10_000, || {
            black_box(ham::codec::decode::<echo>(&encoded).expect("decode"));
        }),
        per_call("ham.registry.encode_msg_ns", 400_000, || {
            buf.clear();
            black_box(
                reg.encode_message_into(&f2f!(whoami), &mut buf)
                    .expect("key"),
            );
        }),
        per_call("ham.registry.execute_ns", 400_000, || {
            let mut ctx = ExecContext::new(1, &mem);
            black_box(reg.execute(key, &[], &mut ctx).expect("execute"));
        }),
    ]
}

fn tcp() -> Vec<Row> {
    let body = [0x5Au8; 64];
    let mut wire = Cursor::new(Vec::with_capacity(128));
    vec![per_call("tcp.frame_ns", 400_000, || {
        wire.get_mut().clear();
        wire.set_position(0);
        write_frame(&mut wire, &body).expect("in-memory write");
        wire.set_position(0);
        black_box(read_frame(&mut wire).expect("in-memory read"));
    })]
}

// --- platform model, telemetry ------------------------------------------

fn platform() -> Vec<Row> {
    const MIB: u64 = 1 << 20;
    let machine = workloads::machine();
    let proc = VeoProc::create(Arc::clone(&machine), 0, 0, Clock::new());
    let vh = machine.vh(0).alloc(MIB).expect("VH buffer");
    let ve = proc.alloc_mem(MIB).expect("VE buffer");
    let link = PcieLink::new(LinkConfig::default());
    let rows = vec![
        per_call("veo.write_mem_ns.4kib", 50_000, || {
            black_box(proc.write_mem(vh, ve, 4096).expect("write_mem"));
        }),
        per_call("veo.read_mem_ns.4kib", 50_000, || {
            black_box(proc.read_mem(ve, vh, 4096).expect("read_mem"));
        }),
        per_call("veo.write_mem_ns.1mib", 500, || {
            black_box(proc.write_mem(vh, ve, MIB).expect("write_mem"));
        }),
        per_call("pcie.occupy_ns.1mib", 400_000, || {
            black_box(link.occupy(Direction::Vh2Ve, SimTime::ZERO, MIB));
        }),
    ];
    proc.destroy();
    rows
}

fn telemetry() -> Vec<Row> {
    let hist = AtomicHistogram::new();
    let mut x = 1u64;
    let mut rows = vec![
        per_call("telemetry.hist_record_ns", 1_000_000, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record_ps(x >> 20);
        }),
        per_call("telemetry.trace_record_off_ns", 1_000_000, || {
            trace::record("bench.probe", 8, SimTime::ZERO, SimTime::from_ns(1));
        }),
    ];
    let session = TraceSession::start();
    rows.push(per_call("telemetry.trace_record_on_ns", 50_000, || {
        trace::record("bench.probe", 8, SimTime::ZERO, SimTime::from_ns(1));
    }));
    black_box(session.finish());
    rows
}

// --- timed cells ---------------------------------------------------------

/// `sync(whoami)` in a closed loop for `seconds`: wall latencies (ns,
/// ascending) and modelled host microseconds per offload.
fn sync_cell(offload: &Offload, seconds: f64) -> (Vec<u64>, f64) {
    let call = || assert_eq!(offload.sync(T1, f2f!(whoami)), Ok(1), "probe offload");
    (0..200).for_each(|_| call());
    let clock = offload.backend().host_clock();
    let v0 = clock.now();
    let mut lat = Vec::with_capacity(1 << 20);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut t = Instant::now();
    while t < deadline && lat.len() < lat.capacity() {
        call();
        let now = Instant::now();
        lat.push((now - t).as_nanos() as u64);
        t = now;
    }
    let virt_us = (clock.now() - v0).as_us_f64() / lat.len() as f64;
    lat.sort_unstable();
    (lat, virt_us)
}

/// The bimodal case: two threads handing a message back and forth land
/// at ~4 us or ~84 us p50 depending on where the scheduler puts them.
fn local(seconds: f64) -> Vec<Row> {
    let offload = Offload::new(LocalBackend::spawn(1, register));
    let (lat, _) = sync_cell(&offload, seconds);
    offload.shutdown();
    let n = lat.len() as u64;
    let fast = lat.partition_point(|&ns| ns < 20_000);
    let p50 = crate::stats::percentile(&lat, 0.5).expect("samples");
    vec![
        Row::of("local.sync_ns_p50", p50 as f64, n),
        Row::of("local.sync_fast_share", fast as f64 / n as f64, n),
    ]
}

/// Model accuracy against the paper's Fig. 9 (DMA 6.1 us, VEO 432 us).
fn model(seconds: f64, violations: &mut Vec<String>) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, offload, paper_us, pinned_us) in [
        ("dma_sync", workloads::dma_offload(), 6.1, 6.0154),
        (
            "veo_sync",
            workloads::veo_offload(ProtocolConfig::default()),
            432.0,
            435.5091,
        ),
    ] {
        let (lat, virt_us) = sync_cell(&offload, seconds);
        offload.shutdown();
        violations.extend(model_violation(
            &format!("{name} probe"),
            virt_us,
            pinned_us,
        ));
        let metric = format!("model.err_share.{name}");
        rows.push(Row::of(
            &metric,
            (virt_us - paper_us).abs() / paper_us,
            lat.len() as u64,
        ));
    }
    rows
}

/// Run one probe group. `seconds` sizes the timed cells only.
pub fn run(group: &str, seconds: f64) -> Option<Outcome> {
    let mut violations = Vec::new();
    let rows = match group {
        "chan" => chan(),
        "device" => device(),
        "sched" => sched(),
        "ham" => ham(),
        "tcp" => tcp(),
        "platform" => platform(),
        "telemetry" => telemetry(),
        "local" => local(seconds),
        "model" => model(seconds / 2.0, &mut violations),
        _ => return None,
    };
    Some(Outcome {
        attempted: rows.iter().map(|r| r.n).sum(),
        failed: violations.len() as u64,
        rows,
        input_digest: 0,
        violations,
    })
}
