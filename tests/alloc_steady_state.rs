//! Counting-allocator proof of the zero-copy frame path: once the frame
//! pool and the channel core's tables are warm, a full post → flush →
//! send → result → complete cycle performs **zero** heap allocations.
//! On the target side, a warm device runtime allocates one buffer per
//! published result frame and nothing per member. The TCP cases count across threads: what a warm offload over real
//! sockets allocates, and what a hostile length prefix can make a
//! reader allocate. The last case asks the same of the codec's length
//! prefixes. The in-process backend's slot arrays are held to the same
//! one allocation per offload as TCP, and the bulk `put`/`get` path to
//! zero.

use ham::registry::HandlerKey;
use ham_aurora_repro::sim_core::SimTime;
use ham_offload::chan::{BatchConfig, ChannelCore, FlushPrep, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Wraps the system allocator and counts every allocation. Frees are
/// not counted: the steady-state claim is about *new* heap traffic.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// While set, every thread's allocations count: the TCP path spreads
/// one offload over the caller, the link supervisor and the device
/// thread. (The libtest main thread's one-off parker allocation, see
/// below, is then a bounded error the TCP case's budget absorbs.)
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    /// Counting is scoped to the measuring thread: the libtest main
    /// thread blocks on a channel while a test runs, and the *first*
    /// time it actually parks (i.e. whenever a test is slow enough,
    /// which depends on machine load) it lazily allocates its parker —
    /// a process-wide counter turns that into a flaky failure. Every
    /// measured path here runs synchronously on the test's own thread,
    /// so a per-thread window loses no coverage. `const`-initialised:
    /// accessing it never allocates, even inside the allocator.
    static IN_WINDOW: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn bump(bytes: usize) {
    if EVERY_THREAD.load(Ordering::Relaxed)
        || IN_WINDOW.try_with(std::cell::Cell::get).unwrap_or(false)
    {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Run `f` with this thread's allocations counted; returns `f()`'s
/// value and how many heap allocations it performed.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    IN_WINDOW.with(|w| w.set(true));
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    let after = ALLOCS.load(Ordering::SeqCst);
    IN_WINDOW.with(|w| w.set(false));
    (r, after - before)
}

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The measuring tests must not overlap: each takes this gate for its
/// whole body. One failing test must not poison the others' gate, so
/// acquisition shrugs off poisoning.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const BATCH: usize = 8;
const KEY: HandlerKey = HandlerKey(3);
const PAYLOAD: [u8; 24] = [5u8; 24];
/// One member's framed result: `frame_result(Ok([9, 9]))`.
const PART: [u8; 3] = [0, 9, 9];

/// One steady-state cycle: stage a full batch, flush it, pretend the
/// transport sent it, deposit the combined result, drain every member
/// completion. All buffers come from (and return to) the frame pool.
fn cycle(chan: &ChannelCore) {
    let mut seqs = [0u64; BATCH];
    for (i, slot) in seqs.iter_mut().enumerate() {
        match chan.stage(KEY, &PAYLOAD, i as u64, SimTime::ZERO) {
            Stage::Staged { seq, .. } => *slot = seq,
            other => panic!("stage refused: {other:?}"),
        }
    }
    let f = match chan.take_flush() {
        FlushPrep::Ready(f) => f,
        other => panic!("flush refused: {other:?}"),
    };
    let carrier = f.res.seq;
    assert_eq!(carrier, seqs[BATCH - 1], "carrier is the last member");
    chan.note_sent(carrier, &f.header, f.frame);

    // The target's combined answer, framed by hand into a pooled buffer:
    // frame_result(Ok(count ‖ count × [seq ‖ len ‖ part])).
    let mut body = chan.pool().checkout();
    body.push(0);
    body.extend_from_slice(&(BATCH as u32).to_le_bytes());
    for &s in &seqs {
        body.extend_from_slice(&s.to_le_bytes());
        body.extend_from_slice(&(PART.len() as u32).to_le_bytes());
        body.extend_from_slice(&PART);
    }
    chan.deposit_frame(carrier, body);

    for &s in &seqs {
        let done = chan
            .take_completed(s)
            .expect("member completion parked")
            .expect("member result ok");
        assert_eq!(done.as_slice(), &PART);
    }
    assert_eq!(chan.in_flight(), 0);
}

#[test]
fn steady_state_batched_cycle_allocates_nothing() {
    let _gate = gate();
    let chan = ChannelCore::bounded(8, 8, 4096).with_batching(BatchConfig::up_to(BATCH));
    // Warm-up: fills the frame pool, the seq freelist, and the seq
    // tables' capacity.
    for _ in 0..32 {
        cycle(&chan);
    }
    let ((), allocs) = counted(|| {
        for _ in 0..64 {
            cycle(&chan);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state post→complete must not touch the heap"
    );
}

/// The self-tuning dataplane's warm path is heap-silent too: a
/// controller tick (window counters, largest flush latency, decision)
/// and the sweep's SLO age check are integer math on channel state —
/// arming adaptation must not cost the zero-alloc guarantee.
#[test]
fn warm_adaptive_tick_and_slo_check_allocate_nothing() {
    use aurora_telemetry::BackendMetrics;

    let _gate = gate();
    let chan =
        ChannelCore::bounded(8, 8, 4096).with_batching(BatchConfig::adaptive_up_to(BATCH, 50));
    let m = BackendMetrics::new();
    let tick = |i: u64| {
        cycle(&chan);
        let flush = SimTime::from_us(2 + i % 5);
        m.on_flush(flush.as_ps());
        let _ = chan.adaptive_tick(BATCH, flush.as_ps());
        // The sweep-side age check, both arms: the staged-empty lock
        // path here (the accumulator was just flushed), the lock-free
        // disabled path implicitly covered by the static test above.
        assert!(!chan.slo_flush_due(SimTime::ZERO));
    };
    for i in 0..32 {
        tick(i);
    }
    let ((), allocs) = counted(|| {
        for i in 0..64 {
            tick(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm adaptive tick + SLO check must not touch the heap"
    );
}

/// The always-on observability layer must be free to keep on: recording
/// a completion (the per-target register: histogram, sum, EWMA),
/// a flush latency, a retry delay, and reading the EWMA back are all
/// atomic operations on preallocated registers — zero heap traffic.
/// The health event ring is bounded, so once it has wrapped, recording
/// events reuses its capacity and is heap-silent too.
#[test]
fn warm_metrics_and_health_recording_allocates_nothing() {
    use aurora_telemetry::{BackendMetrics, HealthEventKind};

    let _gate = gate();
    let m = BackendMetrics::new();
    let record = |i: u64| {
        m.on_post(64);
        m.on_complete_on((i % 4) as u16 + 1, SimTime::from_us(5 + i % 7).as_ps());
        m.on_flush(SimTime::from_us(2).as_ps());
        m.on_retry_delay(SimTime::from_us(40).as_ps());
        assert!(m.latency_ewma((i % 4) as u16 + 1).is_some());
        m.health()
            .record((i % 4) as u16 + 1, HealthEventKind::Retry, i, i);
    };
    // Warm-up: seed every per-target register and wrap the event ring
    // past its bound so push/pop reuses its capacity.
    for i in 0..5000 {
        record(i);
    }
    let ((), allocs) = counted(|| {
        for i in 0..1024 {
            record(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm metric/health recording must not touch the heap"
    );
}

/// Cross-thread recycling, in the shape of the TCP link thread handing
/// result frames to the host: one thread checks out and fills frames,
/// another drops them. The dropping thread's full cache spills into the
/// depot and the checking-out thread's empty cache refills from it, so
/// once that exchange is warm neither thread allocates, and both thread
/// caches and the depot stay within their caps.
#[test]
fn frames_recycle_from_a_dropping_thread_to_a_checking_out_thread() {
    use ham_offload::chan::pool::{FramePool, PooledFrame, DEPOT_CAP, THREAD_CAP};
    use std::sync::mpsc::sync_channel;

    const FRAME: [u8; 64] = [7; 64];
    const WARM: usize = 16 * THREAD_CAP;
    const CYCLES: usize = 64 * THREAD_CAP;
    let _gate = gate();
    let pool = FramePool::new();
    // Warm the depot: the shared depot may still hold smaller buffers
    // other tests left, so take every one of them (and more) through
    // this thread, size each for a frame, and drop them all. The depot
    // then holds `DEPOT_CAP` frame-sized buffers, more than the two
    // threads' caches can hold between them, so how the exchanges
    // interleave cannot make either thread allocate.
    let primed: Vec<_> = (0..DEPOT_CAP + THREAD_CAP)
        .map(|_| {
            let mut frame = pool.checkout();
            frame.extend_from_slice(&FRAME);
            frame
        })
        .collect();
    drop(primed);
    assert_eq!(FramePool::depot_idle(), DEPOT_CAP);
    let pool = &pool;
    // A rendezvous channel: handing a frame over allocates nothing.
    let (tx, rx) = sync_channel::<PooledFrame>(0);
    let ((made, made_peak), (freed, freed_peak)) = std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut peak = 0;
            let mut fill = |i: usize| {
                let mut frame = pool.checkout();
                frame.extend_from_slice(&FRAME);
                frame[0] = i as u8;
                tx.send(frame).expect("the consumer outlives the producer");
                peak = peak.max(pool.idle());
            };
            (0..WARM).for_each(&mut fill);
            let ((), allocs) = counted(|| (0..CYCLES).for_each(&mut fill));
            (allocs, peak)
        });
        let consumer = s.spawn(move || {
            let mut peak = 0;
            let mut drain = |n: usize| {
                for _ in 0..n {
                    drop(rx.recv().expect("the producer sends every frame"));
                    peak = peak.max(pool.idle());
                }
            };
            drain(WARM);
            let ((), allocs) = counted(|| drain(CYCLES));
            (allocs, peak)
        });
        (
            producer.join().expect("producer thread"),
            consumer.join().expect("consumer thread"),
        )
    });
    assert_eq!(
        (made, freed),
        (0, 0),
        "warm cross-thread recycling must not touch the heap"
    );
    assert!(made_peak <= THREAD_CAP && freed_peak <= THREAD_CAP);
    assert!(FramePool::depot_idle() <= DEPOT_CAP);
}

// --- the same claim, end to end through the public API ------------------
//
// `Offload::async_` × N + `Offload::wait_all_into` must be heap-silent
// once warm. The backend below is a *synchronous* in-thread mock — the
// target "runs" inside `send_frame` — so the counting allocator sees
// exactly the host-side runtime: encode, stage, flush, sweep, settle,
// decode. A threaded backend would pollute the count with its own
// receiver loop.

mod warm_wait {
    use aurora_telemetry::BackendMetrics;
    use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
    use ham::{f2f, ham_kernel, Registry, RegistryBuilder};
    use ham_aurora_repro::sim_core::Clock;
    use ham_offload::backend::{CommBackend, RawBuffer};
    use ham_offload::chan::batch::{append_result_part, begin_result, BatchIter};
    use ham_offload::chan::{BatchConfig, ChannelCore, Reservation};
    use ham_offload::types::{DeviceType, NodeDescriptor, NodeId};
    use ham_offload::{Offload, OffloadError};
    use std::sync::Arc;

    ham_kernel! {
        /// Identity probe whose framed answer the mock precomputes.
        pub fn echo_probe(ctx, x: u64) -> u64 {
            let _ = ctx;
            x
        }
    }

    /// The value every offload carries; the mock's canned result.
    const VALUE: u64 = 7;
    /// Posts per `wait_all` round — below the batch watermark, so the
    /// frame leaves only when the wait flushes it.
    const DEPTH: usize = 8;

    struct MockBackend {
        registry: Arc<Registry>,
        chan: ChannelCore,
        clock: Clock,
        metrics: BackendMetrics,
        /// `frame_result(Ok(encode(VALUE)))`, framed once at setup.
        part: Vec<u8>,
    }

    impl MockBackend {
        fn new() -> Self {
            let mut b = RegistryBuilder::new();
            b.register::<echo_probe>();
            let mut part = vec![0u8];
            ham::codec::encode_into(&VALUE, &mut part).unwrap();
            MockBackend {
                registry: Arc::new(b.seal(0x4D4F_434B)),
                chan: ChannelCore::unbounded().with_batching(BatchConfig::up_to(2 * DEPTH)),
                clock: Clock::new(),
                metrics: BackendMetrics::new(),
                part,
            }
        }

        fn unsupported<T>() -> Result<T, OffloadError> {
            Err(OffloadError::Backend(
                "mock backend: memory verbs unsupported".into(),
            ))
        }
    }

    impl CommBackend for MockBackend {
        fn num_targets(&self) -> u16 {
            1
        }

        fn host_registry(&self) -> &Arc<Registry> {
            &self.registry
        }

        fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
            Ok(NodeDescriptor {
                node,
                name: "mock".into(),
                device_type: DeviceType::Generic,
                memory_bytes: 0,
                cores: 1,
            })
        }

        fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError> {
            if target == NodeId(1) {
                Ok(&self.chan)
            } else {
                Err(OffloadError::BadNode(target))
            }
        }

        /// The whole "target": answer every message in place, without
        /// leaving the calling thread or touching the heap — results go
        /// through the channel's own frame pool.
        fn send_frame(
            &self,
            _target: NodeId,
            _res: &Reservation,
            header: &MsgHeader,
            frame: &[u8],
        ) -> Result<(), OffloadError> {
            match header.kind {
                MsgKind::Batch => {
                    let subs =
                        BatchIter::new(&frame[HEADER_BYTES..]).map_err(OffloadError::Backend)?;
                    let count = subs.announced();
                    let mut body = self.chan.pool().checkout();
                    body.push(0);
                    begin_result(&mut body, count);
                    for sub in subs {
                        let (h, _payload) = sub.map_err(OffloadError::Backend)?;
                        append_result_part(&mut body, h.seq, &self.part);
                    }
                    self.chan.deposit_frame(header.seq, body);
                }
                MsgKind::Offload => {
                    let mut body = self.chan.pool().checkout();
                    body.extend_from_slice(&self.part);
                    self.chan.deposit_frame(header.seq, body);
                }
                MsgKind::Result | MsgKind::Control => {}
            }
            Ok(())
        }

        fn allocate(&self, _node: NodeId, _bytes: u64) -> Result<u64, OffloadError> {
            Self::unsupported()
        }

        fn free(&self, _node: NodeId, _addr: u64) -> Result<(), OffloadError> {
            Self::unsupported()
        }

        fn put_bytes(&self, _dst: RawBuffer, _data: &[u8]) -> Result<(), OffloadError> {
            Self::unsupported()
        }

        fn get_bytes(&self, _src: RawBuffer, _out: &mut [u8]) -> Result<(), OffloadError> {
            Self::unsupported()
        }

        fn host_clock(&self) -> &Clock {
            &self.clock
        }

        fn metrics(&self) -> &BackendMetrics {
            &self.metrics
        }

        fn shutdown(&self) {}
    }

    /// One warm round: `DEPTH` posts into reused vectors, then
    /// `wait_all_into` — which flushes the staged batch, sweeps, and
    /// settles every future.
    fn round(
        o: &Offload,
        futures: &mut Vec<ham_offload::Future<u64>>,
        out: &mut Vec<Result<u64, OffloadError>>,
    ) {
        out.clear();
        for _ in 0..DEPTH {
            futures.push(o.async_(NodeId(1), f2f!(echo_probe, VALUE)).unwrap());
        }
        o.wait_all_into(futures, out);
        assert_eq!(out.len(), DEPTH);
        for r in out.iter() {
            assert_eq!(*r.as_ref().unwrap(), VALUE);
        }
    }

    #[test]
    fn warm_wait_all_loop_allocates_nothing() {
        let _gate = super::gate();
        let o = Offload::new(Arc::new(MockBackend::new()));
        let mut futures = Vec::new();
        let mut out = Vec::new();
        // Warm-up: frame pool, seq freelist, pending/completed tables,
        // the sweep scratch thread-local, metric EWMA entries.
        for _ in 0..16 {
            round(&o, &mut futures, &mut out);
        }
        let ((), allocs) = super::counted(|| {
            for _ in 0..64 {
                round(&o, &mut futures, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "warm async_ ×{DEPTH} + wait_all must not touch the heap"
        );
        assert_eq!(o.in_flight(NodeId(1)).unwrap(), 0);
    }

    /// Pool admission is heap-silent once warm: `len`/`is_empty` count
    /// the live members under the lock (they once cloned a `Vec` — one
    /// allocation per liveness check, on the hot submit path of every
    /// pooled caller), and a `try_pick` placement decision (one roster
    /// scan: liveness, policy key, credit check) is pointer chasing and
    /// integer math over preallocated state.
    #[test]
    fn warm_pool_admission_allocates_nothing() {
        use ham_offload::sched::SchedPolicy;

        let _gate = super::gate();
        let o = Offload::new(Arc::new(MockBackend::new()));
        let pool = o.pool_with(&[NodeId(1)], SchedPolicy::RoundRobin).unwrap();
        // Warm-up: pooled rounds fill the frame pool, the channel
        // tables, and the pool's own admission state (member records,
        // last pick).
        for _ in 0..4 {
            let futs: Vec<_> = (0..DEPTH)
                .map(|_| pool.submit(f2f!(echo_probe, VALUE)).unwrap())
                .collect();
            for r in pool.wait_all(futs) {
                assert_eq!(r.unwrap(), VALUE);
            }
        }
        let ((), allocs) = super::counted(|| {
            for _ in 0..256 {
                assert_eq!(pool.len(), 1);
                assert!(!pool.is_empty());
                assert_eq!(pool.try_pick().unwrap(), Some(NodeId(1)));
            }
        });
        assert_eq!(allocs, 0, "warm pool admission must not touch the heap");
        assert_eq!(o.in_flight(NodeId(1)).unwrap(), 0);
    }
}

// --- the target side: a warm device runtime -----------------------------
//
// Handlers encode into the runtime's reused result arena, so a warm
// window allocates one buffer per published result frame (the exact-size
// `Vec` `TargetChannel::send_result` takes) and nothing per member.

mod warm_device {
    use ham::message::VecMemory;
    use ham::registry::HandlerKey;
    use ham::wire::{MsgHeader, MsgKind};
    use ham::{f2f, ham_kernel, Registry, RegistryBuilder};
    use ham_offload::chan::batch;
    use ham_offload::chan::pool::{FramePool, PooledFrame};
    use ham_offload::device::{DeviceConfig, DeviceRuntime};
    use ham_offload::target_loop::{Polled, TargetChannel, TargetEnv};
    use std::cell::Cell;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    ham_kernel! {
        pub fn add_probe(_ctx, a: u64, b: u64) -> u64 { a + b }
    }

    /// Windows run before counting starts, and windows counted.
    const WARM: usize = 8;
    const MEASURED: usize = 32;
    /// Members per batch carrier.
    const MEMBERS: usize = 16;

    /// Replays the same intake window over and over: `recv` opens a
    /// window with its first message, `try_recv` hands out the rest and
    /// then reports `Empty`. Bodies are copied into checkouts of the
    /// runtime's own pool. From window `WARM` on, allocations count.
    struct Replay {
        window: Vec<(MsgHeader, Vec<u8>)>,
        next: Cell<usize>,
        opened: Cell<usize>,
        published: Cell<u64>,
        /// `(allocations, frames published)` when counting started.
        mark: Cell<(u64, u64)>,
    }

    impl Replay {
        fn take(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
            let (h, body) = self.window.get(self.next.get())?;
            self.next.set(self.next.get() + 1);
            let mut frame = pool.checkout();
            frame.extend_from_slice(body);
            Some((*h, frame))
        }
    }

    impl TargetChannel for Replay {
        fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
            let opened = self.opened.get();
            if opened == WARM + MEASURED {
                return None;
            }
            if opened == WARM {
                super::IN_WINDOW.with(|w| w.set(true));
                let allocs = super::ALLOCS.load(Ordering::SeqCst);
                self.mark.set((allocs, self.published.get()));
            }
            self.opened.set(opened + 1);
            self.next.set(0);
            self.take(pool)
        }

        fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
            match self.take(pool) {
                Some((h, frame)) => Polled::Msg(h, frame),
                None => Polled::Empty,
            }
        }

        fn send_result(&self, _reply_slot: u16, _seq: u64, payload: Vec<u8>) {
            assert_eq!(payload[0], 0, "every member succeeds");
            self.published.set(self.published.get() + 1);
        }
    }

    fn offload(key: HandlerKey, seq: u64) -> (MsgHeader, Vec<u8>) {
        let payload = ham::codec::encode(&f2f!(add_probe, seq, 1)).unwrap();
        let header = MsgHeader {
            handler_key: key,
            payload_len: payload.len() as u32,
            kind: MsgKind::Offload,
            reply_slot: (seq % 64) as u16,
            corr: 0,
            seq,
        };
        (header, payload)
    }

    /// Serve `WARM + MEASURED` copies of `window`; returns the counted
    /// `(allocations, result frames published)`.
    fn serve(registry: &Registry, window: Vec<(MsgHeader, Vec<u8>)>) -> (u64, u64) {
        let mem = VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup: false,
        };
        let chan = Replay {
            window,
            next: Cell::new(0),
            opened: Cell::new(0),
            published: Cell::new(0),
            mark: Cell::new((0, 0)),
        };
        DeviceRuntime::new(DeviceConfig::new()).run(&env, &chan);
        super::IN_WINDOW.with(|w| w.set(false));
        let (allocs, published) = chan.mark.get();
        (
            super::ALLOCS.load(Ordering::SeqCst) - allocs,
            chan.published.get() - published,
        )
    }

    fn registry() -> Registry {
        let mut b = RegistryBuilder::new();
        b.register::<add_probe>();
        b.seal(0x0D1C)
    }

    #[test]
    fn warm_device_allocates_once_per_plain_result() {
        let _gate = super::gate();
        let reg = registry();
        let key = reg.key_of::<add_probe>().unwrap();
        let window = (0..64).map(|seq| offload(key, seq)).collect();
        let (allocs, frames) = serve(&reg, window);
        assert_eq!(frames, (64 * MEASURED) as u64);
        assert_eq!(allocs, frames, "one allocation per published result");
    }

    #[test]
    fn warm_device_allocates_once_per_batch_carrier_and_never_per_member() {
        let _gate = super::gate();
        let reg = registry();
        let key = reg.key_of::<add_probe>().unwrap();
        let window = (0..4u64)
            .map(|c| {
                let mut body = (MEMBERS as u32).to_le_bytes().to_vec();
                let first = c * MEMBERS as u64;
                for seq in first..first + MEMBERS as u64 {
                    let (h, p) = offload(key, seq);
                    batch::append_sub(&mut body, &h, &p);
                }
                let last = first + MEMBERS as u64 - 1;
                (batch::carrier_header(last, body.len(), c as u16, 0), body)
            })
            .collect();
        let (allocs, frames) = serve(&reg, window);
        assert_eq!(frames, (4 * MEASURED) as u64);
        assert_eq!(
            allocs, frames,
            "one allocation per carrier, none for its {MEMBERS} members"
        );
    }
}

/// A warm `sync(whoami)` over loopback TCP: the request is encoded into
/// a pooled frame, the device thread copies it from its socket buffer
/// into a pooled frame, the kernel encodes into the device's result
/// arena, and the link supervisor deposits the result from a pooled
/// frame — what is left is the one exact-size `Vec` the device hands
/// `send_result`. Counted on every thread.
#[test]
fn warm_tcp_sync_allocates_once_per_offload() {
    use aurora_workloads::kernels::whoami;
    use ham::f2f;
    use ham_aurora_repro::{NodeId, Offload};
    use ham_backend_tcp::TcpBackend;

    const OFFLOADS: u64 = 2000;
    let _gate = gate();
    let o = Offload::new(TcpBackend::spawn(1, |b| {
        b.register::<whoami>();
    }));
    let sync = || assert_eq!(o.sync(NodeId(1), f2f!(whoami)).unwrap(), 1);
    for _ in 0..200 {
        sync();
    }
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let ((), allocs) = counted(|| {
        for _ in 0..OFFLOADS {
            sync();
        }
    });
    EVERY_THREAD.store(false, Ordering::SeqCst);
    o.shutdown();
    // One per offload; the slack absorbs a thread's one-off lazy
    // allocations (a parker, a socket buffer's first growth).
    assert!(
        allocs <= OFFLOADS + OFFLOADS / 50,
        "{allocs} allocations over {OFFLOADS} warm TCP offloads"
    );
}

/// Warm 64-deep waves of `whoami` over loopback TCP, `async_` then
/// `wait_all_into`: the device publishes each intake window into a
/// result queue it keeps for the session, so the one exact-size `Vec`
/// per result is still all that is allocated, never one per window.
/// Counted on every thread.
#[test]
fn warm_tcp_pipelined_allocates_once_per_offload() {
    use aurora_workloads::kernels::whoami;
    use ham::f2f;
    use ham_aurora_repro::{NodeId, Offload};
    use ham_backend_tcp::TcpBackend;

    const DEPTH: usize = 64;
    const WAVES: u64 = 40;
    const OFFLOADS: u64 = WAVES * DEPTH as u64;
    let _gate = gate();
    let o = Offload::new(TcpBackend::spawn(1, |b| {
        b.register::<whoami>();
    }));
    let mut futures = Vec::with_capacity(DEPTH);
    let mut out = Vec::with_capacity(DEPTH);
    let mut wave = || {
        out.clear();
        for _ in 0..DEPTH {
            futures.push(o.async_(NodeId(1), f2f!(whoami)).unwrap());
        }
        o.wait_all_into(&mut futures, &mut out);
        assert!(out.iter().all(|r| *r.as_ref().unwrap() == 1));
    };
    for _ in 0..20 {
        wave();
    }
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let ((), allocs) = counted(|| {
        for _ in 0..WAVES {
            wave();
        }
    });
    EVERY_THREAD.store(false, Ordering::SeqCst);
    o.shutdown();
    // One per offload, with the same slack as the `sync` case.
    assert!(
        allocs <= OFFLOADS + OFFLOADS / 50,
        "{allocs} allocations over {OFFLOADS} warm pipelined TCP offloads"
    );
}

/// Warm 64-deep waves of `busy_work` through a `TargetPool` over two
/// loopback TCP targets, `submit` then `wait_all`: each placed offload
/// keeps its encoded payload (the argument) for failover in a pooled
/// frame, so the pool adds nothing per offload to the one exact-size
/// result `Vec`. What is left per wave is `wait_all`'s result `Vec` and
/// the caller's future list: `rebalance` walks the roster in place on
/// each unsettled sweep. Counted on every thread.
#[test]
fn warm_tcp_pool_submit_allocates_once_per_offload() {
    use aurora_workloads::kernels::busy_work;
    use ham::f2f;
    use ham_aurora_repro::{NodeId, Offload};
    use ham_backend_tcp::TcpBackend;
    use ham_offload::sched::SchedPolicy;

    const DEPTH: usize = 64;
    const WAVES: u64 = 40;
    const OFFLOADS: u64 = WAVES * DEPTH as u64;
    const SWEEPS: usize = 8;
    let _gate = gate();
    let o = Offload::new(TcpBackend::spawn(2, |b| {
        b.register::<busy_work>();
    }));
    let pool = o
        .pool_with(&[NodeId(1), NodeId(2)], SchedPolicy::RoundRobin)
        .unwrap();
    let want = o.sync(NodeId(1), f2f!(busy_work, 16)).unwrap();
    let wave = || {
        let futures: Vec<_> = (0..DEPTH)
            .map(|_| pool.submit(f2f!(busy_work, 16)).unwrap())
            .collect();
        // `wait_all` rebalances once per unsettled sweep, a number of
        // times that varies with the box; these calls make a roster
        // allocation show at any sweep count.
        for _ in 0..SWEEPS {
            assert_eq!(pool.rebalance(), 0, "nothing is staged unbatched");
        }
        for r in pool.wait_all(futures) {
            assert_eq!(r.unwrap(), want);
        }
    };
    for _ in 0..20 {
        wave();
    }
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let ((), allocs) = counted(|| {
        for _ in 0..WAVES {
            wave();
        }
    });
    EVERY_THREAD.store(false, Ordering::SeqCst);
    drop(pool);
    o.shutdown();
    // One per offload, and at most 8 per wave for the wave's own lists
    // and a remainder that varies from run to run. A roster `Vec` per
    // `rebalance` adds `SWEEPS` per wave and breaks this bound; a
    // payload `Vec` per offload would be twice it.
    assert!(
        allocs <= OFFLOADS + 8 * WAVES,
        "{allocs} allocations over {OFFLOADS} warm pooled TCP offloads"
    );
}

/// A warm `sync` over the in-process slot arrays, with a scalar
/// argument and result: the host encodes the request into a pooled
/// frame and copies it into a receive slot, the target copies it out
/// into its own pooled frame, and the host copies the result out of the
/// send slot into the channel's pool — what is left is the one
/// exact-size `Vec` the device hands `send_result`. Counted on every
/// thread.
#[test]
fn warm_local_sync_allocates_once_per_offload() {
    use aurora_workloads::kernels::busy_work;
    use ham::f2f;
    use ham_aurora_repro::{local_offload, NodeId};

    const OFFLOADS: u64 = 2000;
    let _gate = gate();
    let o = local_offload(1, |b| {
        b.register::<busy_work>();
    });
    let want = o.sync(NodeId(1), f2f!(busy_work, 16)).unwrap();
    let sync = || assert_eq!(o.sync(NodeId(1), f2f!(busy_work, 16)).unwrap(), want);
    for _ in 0..200 {
        sync();
    }
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let ((), allocs) = counted(|| {
        for _ in 0..OFFLOADS {
            sync();
        }
    });
    EVERY_THREAD.store(false, Ordering::SeqCst);
    o.shutdown();
    // One per offload; the slack absorbs a thread's one-off lazy
    // allocations (a parker on its first park).
    assert!(
        allocs <= OFFLOADS + OFFLOADS / 50,
        "{allocs} allocations over {OFFLOADS} warm local offloads"
    );
}

/// Allocations of `offloads` rounds of `sync(whoami)` on a warm backend, counted on
/// every thread: the host thread and the VE thread.
fn warm_sync_allocs(o: &ham_aurora_repro::Offload, offloads: u64) -> u64 {
    use aurora_workloads::kernels::whoami;
    use ham::f2f;
    use ham_aurora_repro::NodeId;

    let sync = || assert_eq!(o.sync(NodeId(1), f2f!(whoami)).unwrap(), 1);
    for _ in 0..200 {
        sync();
    }
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let ((), allocs) = counted(|| {
        for _ in 0..offloads {
            sync();
        }
    });
    EVERY_THREAD.store(false, Ordering::SeqCst);
    allocs
}

/// A warm `sync` over the DMA protocol: the host encodes into a pooled
/// frame and DMA-writes it, the VE reads it into a pooled body, and the
/// host's flag sweep reads the result into a frame checked out of the
/// channel's pool — what is left is the one exact-size `Vec` the device
/// hands `send_result`. Counted on every thread.
#[test]
fn warm_dma_sync_allocates_once_per_offload() {
    use ham_aurora_repro::dma_offload;

    const OFFLOADS: u64 = 2000;
    let _gate = gate();
    let o = dma_offload(1, aurora_workloads::register_all);
    let allocs = warm_sync_allocs(&o, OFFLOADS);
    o.shutdown();
    // One per offload; the slack absorbs a thread's one-off lazy
    // allocations.
    assert!(
        allocs <= OFFLOADS + OFFLOADS / 50,
        "{allocs} allocations over {OFFLOADS} warm DMA offloads"
    );
}

/// The same over the VEO protocol: the host's two charged VEO reads
/// land in the VH staging buffer and then in a pooled frame.
#[test]
fn warm_veo_sync_allocates_once_per_offload() {
    use ham_aurora_repro::veo_offload;

    const OFFLOADS: u64 = 2000;
    let _gate = gate();
    let o = veo_offload(1, aurora_workloads::register_all);
    let allocs = warm_sync_allocs(&o, OFFLOADS);
    o.shutdown();
    assert!(
        allocs <= OFFLOADS + OFFLOADS / 50,
        "{allocs} allocations over {OFFLOADS} warm VEO offloads"
    );
}

/// A warm Table II `put` + `get` on the DMA backend: the slice's own
/// bytes go to the backend and come back into the caller's slice, and
/// the VH staging buffer is the pooled one, so nothing is allocated.
#[test]
fn warm_dma_put_get_allocates_nothing() {
    use ham_aurora_repro::{dma_offload, NodeId};

    let _gate = gate();
    let o = dma_offload(1, |_b| {});
    for len in [1usize << 20, 4096] {
        let b = o.allocate::<u8>(NodeId(1), len as u64).unwrap();
        let src = vec![0x5au8; len];
        let mut dst = vec![0u8; len];
        let put_get = |dst: &mut [u8]| {
            o.put(&src, b).unwrap();
            o.get(b, dst).unwrap();
        };
        put_get(&mut dst);
        let before = ALLOC_BYTES.load(Ordering::SeqCst);
        let ((), allocs) = counted(|| put_get(&mut dst));
        let bytes = ALLOC_BYTES.load(Ordering::SeqCst) - before;
        assert_eq!((allocs, bytes), (0, 0), "warm put + get of {len} bytes");
        assert_eq!(dst, src);
        o.free(b).unwrap();
    }
    o.shutdown();
}

/// A length prefix is a claim, not a delivery: a peer that announces
/// `MAX_FRAME - 1` bytes and hangs up must not have made either reader
/// reserve them.
#[test]
fn a_claimed_frame_length_is_not_preallocated() {
    use ham_backend_tcp::frame::{read_frame, FrameReader, MAX_FRAME};

    let _gate = gate();
    let wire = (MAX_FRAME - 1).to_le_bytes();
    let before = ALLOC_BYTES.load(Ordering::SeqCst);
    let ((), _) = counted(|| {
        assert!(read_frame(&mut &wire[..]).is_err());
        let mut frames = FrameReader::new();
        assert!(frames.next_frame(&mut &wire[..]).is_err());
    });
    let bytes = ALLOC_BYTES.load(Ordering::SeqCst) - before;
    assert!(bytes < 1 << 20, "{bytes} bytes allocated for 4 received");
}

/// A codec length prefix is a claim too: a payload announcing `u64::MAX`
/// elements and carrying nothing after it is rejected before any buffer
/// is sized from the claim.
#[test]
fn a_claimed_codec_length_is_not_preallocated() {
    use ham::codec::{decode, Wire};

    fn decode_bytes<T: Wire>(wire: &[u8]) -> (bool, u64) {
        let before = ALLOC_BYTES.load(Ordering::SeqCst);
        let (rejected, _) = counted(|| decode::<T>(wire).is_err());
        (rejected, ALLOC_BYTES.load(Ordering::SeqCst) - before)
    }

    let _gate = gate();
    let wire = u64::MAX.to_le_bytes();
    for (shape, (rejected, bytes)) in [
        ("Vec<u64>", decode_bytes::<Vec<u64>>(&wire)),
        ("Vec<u8>", decode_bytes::<Vec<u8>>(&wire)),
        ("String", decode_bytes::<String>(&wire)),
    ] {
        assert!(rejected, "{shape} accepted a length with no elements");
        assert!(
            bytes < 1 << 10,
            "{shape}: {bytes} bytes allocated for 8 received"
        );
    }
}
