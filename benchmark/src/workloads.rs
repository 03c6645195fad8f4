//! The six workloads. Each is a closed loop with one caller thread — a
//! host program that waits for its replies — driving the program through
//! its public API only. See `README.md` for why each exists and which
//! layers it isolates.

use crate::gen::{self, Mix, Msg, Script};
use crate::spans::{span, NoRec, Rec, ROOT};
use ham::{f2f, ham_kernel, RegistryBuilder};
use ham_backend_dma::DmaBackend;
use ham_backend_tcp::TcpBackend;
use ham_backend_veo::VeoBackend;
use ham_offload::chan::BatchConfig;
use ham_offload::local::LocalBackend;
use ham_offload::{
    BufferPtr, Future, NodeId, Offload, OffloadError, PoolFuture, ProtocolConfig, SchedPolicy,
    TargetPool,
};
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

ham_kernel! {
    /// The empty kernel of Fig. 9: answers the executing node's id.
    pub fn whoami(ctx) -> u16 { ctx.node }
}

ham_kernel! {
    /// Payload-carrying kernel: answers its argument, and charges one
    /// flop per byte so backends that model VE compute time have some
    /// to model (span category `ve.compute`, the lane scheduler).
    pub fn echo(ctx, data: Vec<u8>) -> Vec<u8> {
        ctx.charge_flops(data.len() as u64);
        data
    }
}

/// The shared "source code" of host and target binaries.
pub fn register(b: &mut RegistryBuilder) {
    b.register::<whoami>();
    b.register::<echo>();
}

/// Offloads per wave in the pipelined workloads.
pub const WAVE: usize = 64;
/// Waves the pipelined workloads keep in flight.
const DEPTH: usize = 2;
/// Waves in a generated script (replayed cyclically while time remains).
const SCRIPT_WAVES: usize = 256;
/// `bulk_dma`: elements of the 1 MiB transfer and of one 4 KiB chunk.
const BIG_ELEMS: usize = (1 << 20) / 8;
const CHUNK_ELEMS: usize = 4096 / 8;
const CHUNKS: usize = BIG_ELEMS / CHUNK_ELEMS;

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What `lat_ns_p50` times.
    pub unit: &'static str,
    /// Offloads (`bulk_dma`: put+get pairs) per unit of work.
    pub ops_per_unit: u64,
    /// Untimed units run before measuring.
    pub warmup_units: u64,
    /// Units in each pass of the traced run.
    pub traced_units: u64,
    /// Run every thread of the round on one CPU. Set where host and
    /// target take turns — one blocks, yields or sleeps while the other
    /// works: on the two-vCPU virtual machines this benchmark runs on,
    /// each hand-over that crosses CPUs costs 20-50 us of hypervisor
    /// time that drifts by the minute and buries the code under test
    /// (README, "One CPU where threads take turns"). Workloads whose
    /// threads truly run side by side are never pinned.
    pub one_cpu: bool,
    /// Modelled host microseconds per op where the repo's calibration
    /// output (`docs/repro_all_output.txt`) pins them.
    pub pinned_virt_us: Option<f64>,
    /// The modelled time per op is a pure function of the inputs
    /// (depth 1, or data path only): every round must report the same.
    pub virt_repeats: bool,
    /// What must hold in a round's traffic for the workload to isolate
    /// what the README says it isolates; the complaint otherwise.
    pub isolation: fn(&Traffic) -> Option<String>,
}

/// What a timed round put on the channels, from register deltas.
pub struct Traffic {
    /// Offloads (or put+get pairs) the round completed.
    pub ops: u64,
    pub posts: u64,
    pub frames: u64,
    pub msgs: u64,
}

fn any_traffic(_: &Traffic) -> Option<String> {
    None
}

fn unbatched(t: &Traffic) -> Option<String> {
    (t.frames != t.ops).then(|| {
        format!(
            "{} frames for {} offloads; batching must be bypassed",
            t.frames, t.ops
        )
    })
}

fn well_batched(t: &Traffic) -> Option<String> {
    (t.msgs < 8 * t.frames).then(|| {
        format!(
            "{} msgs in {} frames; want >= 8 per frame",
            t.msgs, t.frames
        )
    })
}

fn no_messages(t: &Traffic) -> Option<String> {
    (t.posts != 0).then(|| {
        format!(
            "{} messages posted; the message path must stay idle",
            t.posts
        )
    })
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "sync_dma",
        why: "Fig. 9 headline: both sides spin-poll, so a round trip is pure engine + slot/flag + udma/pcie-model cost; control for wake-instead-of-poll",
        unit: "offload",
        ops_per_unit: 1,
        warmup_units: 2_000,
        traced_units: 20_000,
        one_cpu: false,
        pinned_virt_us: Some(6.0154),
        virt_repeats: true,
        isolation: any_traffic,
    },
    Spec {
        name: "sync_tcp",
        why: "same call over a push transport: the host wait walks spin, yield, sleep and the result crosses two sockets and a reader thread; runs on one CPU",
        unit: "offload",
        ops_per_unit: 1,
        warmup_units: 2_000,
        traced_units: 20_000,
        one_cpu: true,
        pinned_virt_us: None,
        virt_repeats: true,
        isolation: any_traffic,
    },
    Spec {
        name: "pipe_local",
        why: "no platform model and no syscalls: chan::core, engine, FramePool, codec and device dispatch are nearly all of the cost; batching bypassed",
        unit: "wave of 64",
        ops_per_unit: WAVE as u64,
        warmup_units: 50,
        traced_units: 300,
        one_cpu: false,
        pinned_virt_us: None,
        virt_repeats: false,
        isolation: unbatched,
    },
    Spec {
        name: "batch_veo",
        why: "same traffic shape through chan::batch staging/flush, carrier un-framing, device worker lanes and the VEO/VEOS model; runs on one CPU",
        unit: "wave of 64",
        ops_per_unit: WAVE as u64,
        warmup_units: 50,
        traced_units: 300,
        one_cpu: true,
        pinned_virt_us: None,
        virt_repeats: false,
        isolation: well_batched,
    },
    Spec {
        name: "pool_tcp",
        why: "the only workload entering sched::pool (round-robin placement, credits, rebalance) and multi-connection TCP; per-message write/read dominate; one CPU",
        unit: "wave of 64",
        ops_per_unit: WAVE as u64,
        warmup_units: 50,
        traced_units: 300,
        one_cpu: true,
        pinned_virt_us: None,
        virt_repeats: false,
        isolation: any_traffic,
    },
    Spec {
        name: "bulk_dma",
        why: "data path only (encode_slice, veo read/write, VEOS DMA manager, pcie TLP model, mem): 1 MiB and 256 x 4 KiB put+get pairs, message path idle",
        unit: "composite op",
        ops_per_unit: 1 + CHUNKS as u64,
        warmup_units: 2,
        traced_units: 20,
        one_cpu: false,
        pinned_virt_us: None,
        virt_repeats: true,
        isolation: no_messages,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One simulated VE on a default machine, memory as the repo's own
/// convenience constructors size it.
pub fn machine() -> Arc<AuroraMachine> {
    AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 64 << 20,
            vh_bytes: 128 << 20,
            ..Default::default()
        },
    )
}

pub fn dma_offload() -> Offload {
    Offload::new(DmaBackend::spawn(
        machine(),
        0,
        &[0],
        ProtocolConfig::default(),
        register,
    ))
}

pub fn veo_offload(cfg: ProtocolConfig) -> Offload {
    Offload::new(VeoBackend::spawn(machine(), 0, &[0], cfg, register))
}

const T1: NodeId = NodeId(1);

/// A running workload: the spawned backend plus its generated inputs.
pub enum Bench {
    Sync(Offload),
    Wave(WaveBench),
    Pool(PoolBench),
    Bulk(BulkBench),
}

/// One wave in flight: its futures (`W` for `whoami`, `E` for `echo`)
/// and what their replies must be.
struct Flight<W, E> {
    who: Vec<W>,
    echo: Vec<E>,
    /// Node each `whoami` was sent to.
    who_on: Vec<u16>,
    /// Wave positions of the echoes.
    echo_at: Vec<usize>,
    /// Index of the wave in the script; `None` when nothing is in flight.
    wave: Option<usize>,
}

impl<W, E> Flight<W, E> {
    fn new() -> Self {
        Self {
            who: Vec::with_capacity(WAVE),
            echo: Vec::with_capacity(WAVE),
            who_on: Vec::with_capacity(WAVE),
            echo_at: Vec::with_capacity(WAVE),
            wave: None,
        }
    }

    /// Post every message of `waves[wave]` under span `name`, `who`
    /// posting a `whoami` (and naming the node it went to), `echo` an
    /// `echo`; returns how many posts failed.
    fn post<R: Rec>(
        &mut self,
        (waves, wave): (&[Vec<Msg>], usize),
        rec: &mut R,
        (name, op, i): (&'static str, u32, u64),
        mut who: impl FnMut() -> Result<(W, u16), OffloadError>,
        mut echo: impl FnMut(&[u8]) -> Result<E, OffloadError>,
    ) -> u64 {
        self.who_on.clear();
        self.echo_at.clear();
        self.wave = Some(wave);
        let mut failed = 0;
        for (pos, m) in waves[wave].iter().enumerate() {
            match m {
                Msg::Whoami => match span(rec, name, op, i, &mut who) {
                    Ok((f, node)) => {
                        self.who.push(f);
                        self.who_on.push(node);
                    }
                    Err(_) => failed += 1,
                },
                Msg::Echo(d) => match span(rec, name, op, i, || echo(d)) {
                    Ok(f) => {
                        self.echo.push(f);
                        self.echo_at.push(pos);
                    }
                    Err(_) => failed += 1,
                },
            }
        }
        failed
    }

    /// Check the replies of the wave that was in flight; returns how
    /// many were missing or wrong.
    fn check(
        &mut self,
        waves: &[Vec<Msg>],
        who: impl Iterator<Item = Result<u16, OffloadError>>,
        echo: impl Iterator<Item = Result<Vec<u8>, OffloadError>>,
    ) -> u64 {
        let Some(wave) = self.wave.take() else {
            return 0;
        };
        let mut failed = 0;
        for (got, &node) in who.zip(&self.who_on) {
            failed += u64::from(got != Ok(node));
        }
        for (got, &pos) in echo.zip(&self.echo_at) {
            let ok = matches!((&got, &waves[wave][pos]), (Ok(got), Msg::Echo(sent)) if got == sent);
            failed += u64::from(!ok);
        }
        failed
    }
}

/// Waves over one channel. Two waves overlap: while the target works
/// on wave `i` the host posts wave `i + 1`, then claims wave `i` — a
/// host program that double-buffers. (Stop-and-wait waves leave the
/// host in `chan::backoff`'s sleep phase once per wave, and on a
/// virtual machine the wake-up cost of that sleep flips between two
/// regimes every second or so; no run length this benchmark can afford
/// averages that out. README, "Load shape".)
pub struct WaveBench {
    offload: Offload,
    waves: Vec<Vec<Msg>>,
    flights: Vec<Flight<Future<u16>, Future<Vec<u8>>>>,
    who_out: Vec<Result<u16, OffloadError>>,
    echo_out: Vec<Result<Vec<u8>, OffloadError>>,
}

/// The same shape through `TargetPool::submit` / `wait_all`.
pub struct PoolBench {
    offload: Offload,
    pool: TargetPool,
    waves: Vec<Vec<Msg>>,
    flights: Vec<Flight<PoolFuture<u16>, PoolFuture<Vec<u8>>>>,
}

pub struct BulkBench {
    offload: Offload,
    big: BufferPtr<f64>,
    small: BufferPtr<f64>,
    arrays: Vec<Vec<f64>>,
    back: Vec<f64>,
}

const PIPE_MIX: Mix = &[(9, None), (1, Some(64)), (1, Some(256)), (1, Some(1024))];
const BATCH_MIX: Mix = &[(2, None), (1, Some(32)), (1, Some(128))];
const POOL_MIX: Mix = &[(1, None), (1, Some(256))];

fn wave_bench(offload: Offload, script: Script) -> Bench {
    Bench::Wave(WaveBench {
        offload,
        waves: script.waves,
        flights: (0..DEPTH).map(|_| Flight::new()).collect(),
        who_out: Vec::with_capacity(WAVE),
        echo_out: Vec::with_capacity(WAVE),
    })
}

/// Generate `name`'s inputs from `seed`, then spawn its backend.
/// Returns the bench and the digest of the generated inputs.
pub fn build(name: &str, seed: u64) -> Option<(Bench, u64)> {
    let msgs = |mix| gen::message_script(seed, name, SCRIPT_WAVES, WAVE, mix);
    Some(match name {
        // `whoami()` has no arguments: the input is the same for every
        // seed, and the digest says so.
        "sync_dma" => (Bench::Sync(dma_offload()), msgs(&[(1, None)]).digest),
        "sync_tcp" => (
            Bench::Sync(Offload::new(TcpBackend::spawn(1, register))),
            msgs(&[(1, None)]).digest,
        ),
        "pipe_local" => {
            let script = msgs(PIPE_MIX);
            let digest = script.digest;
            let offload = Offload::new(LocalBackend::spawn(1, register));
            (wave_bench(offload, script), digest)
        }
        "batch_veo" => {
            let script = msgs(BATCH_MIX);
            let digest = script.digest;
            let cfg = ProtocolConfig {
                recv_slots: WAVE,
                send_slots: WAVE,
                ..Default::default()
            }
            .with_batch(BatchConfig::up_to(16));
            (wave_bench(veo_offload(cfg), script), digest)
        }
        "pool_tcp" => {
            let script = msgs(POOL_MIX);
            let digest = script.digest;
            let offload = Offload::new(TcpBackend::spawn(2, register));
            // Round-robin, not the default least-loaded: with least-
            // loaded, placement feeds back on thread timing and the
            // workload settles for seconds at a time on one of three
            // throughput levels (58k / 75k / 95k offloads/s on one CPU),
            // so ten runs spread by 2 % or by 31 % (README, "pool_tcp").
            let pool = offload
                .pool_with(&[NodeId(1), NodeId(2)], SchedPolicy::RoundRobin)
                .expect("pool over two live targets");
            let bench = PoolBench {
                offload,
                pool,
                waves: script.waves,
                flights: (0..DEPTH).map(|_| Flight::new()).collect(),
            };
            (Bench::Pool(bench), digest)
        }
        "bulk_dma" => {
            let script = gen::array_script(seed, name, 4, BIG_ELEMS);
            let offload = dma_offload();
            let big = offload
                .allocate(T1, BIG_ELEMS as u64)
                .expect("1 MiB buffer");
            let small = offload
                .allocate(T1, CHUNK_ELEMS as u64)
                .expect("4 KiB buffer");
            let bench = BulkBench {
                offload,
                big,
                small,
                arrays: script.arrays,
                back: vec![0.0; BIG_ELEMS],
            };
            (Bench::Bulk(bench), script.digest)
        }
        _ => return None,
    })
}

impl Bench {
    pub fn offload(&self) -> &Offload {
        match self {
            Bench::Sync(o) => o,
            Bench::Wave(b) => &b.offload,
            Bench::Pool(b) => &b.offload,
            Bench::Bulk(b) => &b.offload,
        }
    }

    pub fn pool(&self) -> Option<&TargetPool> {
        match self {
            Bench::Pool(b) => Some(&b.pool),
            _ => None,
        }
    }

    /// Run unit of work `i`, checking every result; returns how many of
    /// its operations errored or answered wrongly.
    #[inline]
    pub fn unit<R: Rec>(&mut self, i: u64, rec: &mut R) -> u64 {
        match self {
            Bench::Sync(o) => sync_unit(o, i, rec),
            Bench::Wave(b) => b.unit(i, rec),
            Bench::Pool(b) => b.unit(i, rec),
            Bench::Bulk(b) => b.unit(i, rec),
        }
    }

    /// Claim whatever the pipelined workloads still have in flight;
    /// returns failures among it.
    pub fn drain(&mut self) -> u64 {
        let at = (ROOT, 0);
        match self {
            Bench::Wave(b) => (0..DEPTH).map(|k| b.claim(k, at, &mut NoRec)).sum(),
            Bench::Pool(b) => (0..DEPTH).map(|k| b.claim(k, at, &mut NoRec)).sum(),
            Bench::Sync(_) | Bench::Bulk(_) => 0,
        }
    }

    /// Quiescence: nothing in flight, nothing leaked, nothing retried.
    /// Returns one line per violated invariant.
    pub fn leaks(&self) -> Vec<String> {
        let o = self.offload();
        let mut bad = Vec::new();
        for n in 1..o.num_nodes() {
            match o.in_flight(NodeId(n)) {
                Ok(0) => {}
                other => bad.push(format!("in_flight(node {n}) = {other:?}, want Ok(0)")),
            }
        }
        let m = o.metrics_snapshot();
        for (what, got) in [
            ("inflight", m.inflight as u64),
            ("timeouts", m.timeouts),
            ("evictions", m.evictions),
            ("resends", m.resends),
        ] {
            if got != 0 {
                bad.push(format!("metrics_snapshot().{what} = {got}, want 0"));
            }
        }
        bad
    }
}

fn sync_unit<R: Rec>(o: &Offload, i: u64, rec: &mut R) -> u64 {
    let op = rec.begin("op", ROOT, i);
    let fut = span(rec, "runtime.post", op, i, || o.async_(T1, f2f!(whoami)));
    let got = span(rec, "runtime.wait", op, i, || fut.and_then(Future::get));
    rec.end(op);
    u64::from(got != Ok(1))
}

impl WaveBench {
    /// Post wave `i`, then claim wave `i - 1`.
    fn unit<R: Rec>(&mut self, i: u64, rec: &mut R) -> u64 {
        let o = &self.offload;
        let wave = i as usize % self.waves.len();
        let op = rec.begin("wave", ROOT, i);
        let mut failed = self.flights[i as usize % DEPTH].post(
            (&self.waves, wave),
            rec,
            ("runtime.post", op, i),
            || o.async_(T1, f2f!(whoami)).map(|f| (f, T1.0)),
            |d| o.async_(T1, f2f!(echo, d.to_vec())),
        );
        // The slot the next wave will need holds the oldest one.
        failed += self.claim((i as usize + 1) % DEPTH, (op, i), rec);
        rec.end(op);
        failed
    }

    /// Wait for the wave in `flights[which]`, if any, and check it.
    fn claim<R: Rec>(&mut self, which: usize, (op, i): (u32, u64), rec: &mut R) -> u64 {
        let Self {
            offload: o,
            waves,
            flights,
            who_out,
            echo_out,
        } = self;
        let fl = &mut flights[which];
        span(rec, "runtime.wait", op, i, || {
            o.wait_all_into(&mut fl.who, who_out);
            o.wait_all_into(&mut fl.echo, echo_out);
        });
        fl.check(waves, who_out.drain(..), echo_out.drain(..))
    }
}

impl PoolBench {
    fn unit<R: Rec>(&mut self, i: u64, rec: &mut R) -> u64 {
        let pool = &self.pool;
        let wave = i as usize % self.waves.len();
        let op = rec.begin("wave", ROOT, i);
        let mut failed = self.flights[i as usize % DEPTH].post(
            (&self.waves, wave),
            rec,
            ("sched.submit", op, i),
            || {
                let f = pool.submit(f2f!(whoami))?;
                let node = f.target().0;
                Ok((f, node))
            },
            |d| pool.submit(f2f!(echo, d.to_vec())),
        );
        failed += self.claim((i as usize + 1) % DEPTH, (op, i), rec);
        rec.end(op);
        failed
    }

    fn claim<R: Rec>(&mut self, which: usize, (op, i): (u32, u64), rec: &mut R) -> u64 {
        let Self {
            pool,
            waves,
            flights,
            ..
        } = self;
        let fl = &mut flights[which];
        // `wait_all` consumes its vector.
        let who = std::mem::replace(&mut fl.who, Vec::with_capacity(WAVE));
        let echo = std::mem::replace(&mut fl.echo, Vec::with_capacity(WAVE));
        let (who, echo) = span(rec, "sched.wait_all", op, i, || {
            (pool.wait_all(who), pool.wait_all(echo))
        });
        fl.check(waves, who.into_iter(), echo.into_iter())
    }
}

impl BulkBench {
    /// One put+get pair over `src`, verified; `true` when it failed.
    fn pair<R: Rec>(
        o: &Offload,
        rec: &mut R,
        (op, i): (u32, u64),
        (put, get): (&'static str, &'static str),
        src: &[f64],
        dst: BufferPtr<f64>,
        back: &mut [f64],
    ) -> bool {
        let sent = span(rec, put, op, i, || o.put(src, dst));
        let read = span(rec, get, op, i, || o.get(dst, back));
        sent.is_err() || read.is_err() || back != src
    }

    fn unit<R: Rec>(&mut self, i: u64, rec: &mut R) -> u64 {
        let src = &self.arrays[i as usize % self.arrays.len()];
        let o = &self.offload;
        let op = rec.begin("op", ROOT, i);
        let names = ("runtime.put.1mib", "runtime.get.1mib");
        let mut failed = u64::from(Self::pair(
            o,
            rec,
            (op, i),
            names,
            src,
            self.big,
            &mut self.back,
        ));
        let names = ("runtime.put.4kib", "runtime.get.4kib");
        for chunk in src.chunks_exact(CHUNK_ELEMS) {
            let back = &mut self.back[..CHUNK_ELEMS];
            failed += u64::from(Self::pair(o, rec, (op, i), names, chunk, self.small, back));
        }
        rec.end(op);
        failed
    }
}
