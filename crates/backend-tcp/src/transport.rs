//! The TCP backend proper: real sockets, one acceptor per target.
//!
//! This is a **push** transport: the host-side link supervisor thread
//! of each target reads the message socket and deposits result frames
//! straight into the shared
//! [`ChannelCore`]'s parked completions
//! (matched by sequence number), so the backend keeps the default no-op
//! `poll_flags`/`fetch_frame` verbs. On the target the device thread
//! reads the message socket itself; no thread relays frames on either
//! side.
//!
//! There is one lifecycle, parameterised by the **reconnect budget**.
//! Every target announces its capabilities and dedup watermark on each
//! accepted connection ([`Announce`]); a per-target link supervisor
//! deposits results and, when the link drops, *degrades* the channel
//! and re-establishes the connection within the budget, replaying
//! exactly the provably-unexecuted in-flight frames on resume. Budget 0
//! — what [`TcpBackend::spawn`] uses — is the point-to-point case: no
//! replay buffer is kept and a disconnect is a permanent eviction.

use crate::frame::{
    read_frame, write_frame, write_frame_parts, Announce, ControlOp, FrameReader, MAX_FRAME, PREFIX,
};
use aurora_mem::RangeAllocator;
use aurora_sim_core::{Clock, FaultPlan};
use aurora_telemetry::{BackendMetrics, HealthEventKind, LaneStats};
use ham::codec::Wire;
use ham::message::VecMemory;
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
use ham::{Registry, RegistryBuilder, TargetMemory};
use ham_offload::backend::{build_registry, CommBackend, RawBuffer, Registrar};
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{engine, BatchConfig, ChannelCore, RecoveryPolicy, Reservation};
use ham_offload::device::{DeviceConfig, DeviceRuntime, HaltReason};
use ham_offload::target_loop::{result_header, Polled, TargetChannel, TargetEnv};
use ham_offload::types::{DeviceType, NodeDescriptor, NodeId};
use ham_offload::OffloadError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

fn io_err(e: std::io::Error) -> OffloadError {
    OffloadError::Backend(format!("tcp: {e}"))
}

/// Capabilities one target runs with and announces at spawn (and
/// re-announces on every accepted connection).
#[derive(Clone, Copy, Debug)]
pub struct TargetSpec {
    /// Device worker lanes (simulated VE cores).
    pub lanes: u32,
    /// Scheduler credit limit the host's `TargetPool` respects for this
    /// target.
    pub credit_limit: u32,
    /// Target memory size in bytes.
    pub mem_bytes: u64,
}

impl Default for TargetSpec {
    fn default() -> Self {
        Self {
            lanes: ham_offload::device::DEFAULT_LANES as u32,
            credit_limit: ham_offload::chan::DEFAULT_PUSH_CREDITS as u32,
            mem_bytes: TcpBackend::DEFAULT_MEM,
        }
    }
}

/// Host-side state of one target's connection, shared between the
/// backend (writers) and the link supervisor thread (reader +
/// reconnector). On reconnect the supervisor swaps fresh sockets in
/// under the locks, so writers never observe a torn handoff.
struct Link {
    node: u16,
    addr: std::net::SocketAddr,
    msg_tx: Mutex<TcpStream>,
    ctrl: Mutex<TcpStream>,
    /// Its shutdown latch ([`ChannelCore::is_shutdown`]) also tells
    /// the supervisor to stop reconnecting.
    chan: Arc<ChannelCore>,
    /// Test hook: while set, reconnect attempts fail deterministically
    /// without touching the network (a simulated network blackout).
    blackout: AtomicBool,
}

impl Link {
    /// Tear both sockets down, so the ctrl loop and the reader see EOF.
    fn close_sockets(&self) {
        let _ = self.msg_tx.lock().unwrap().shutdown(Shutdown::Both);
        let _ = self.ctrl.lock().unwrap().shutdown(Shutdown::Both);
    }

    /// The link dropped: degrade the channel (posts park, nothing is
    /// failed). The supervisor's EOF and a failed write can both get
    /// here; whichever degrades first records the one `Disconnect`.
    fn disconnect(&self, metrics: &BackendMetrics, clock: &Clock) {
        let lost = OffloadError::TargetLost(NodeId(self.node));
        if self.chan.degrade(lost).is_some() {
            let now = clock.now().as_ps();
            metrics
                .health()
                .record(self.node, HealthEventKind::Disconnect, 0, now);
        }
    }
}

struct TcpTarget {
    link: Arc<Link>,
    reader: Mutex<Option<JoinHandle<()>>>,
    server: Mutex<Option<JoinHandle<u64>>>,
    mem_bytes: u64,
    lanes: u32,
}

/// Registry seed of the host "binary"; target `n` seals with `+ n`.
const HOST_SEED: u64 = 0x7463_7000; // "tcp"

/// Spawn one target peer and connect to it: bind a loopback acceptor,
/// start the target main loop, run the discovery handshake (read its
/// [`Announce`]) and start the host-side link supervisor. Shared by the
/// constructor and [`TcpBackend::join_target`].
fn spawn_target(
    node: u16,
    spec: TargetSpec,
    registrar: &Arc<Registrar>,
    batch: BatchConfig,
    budget: u32,
    metrics: &Arc<BackendMetrics>,
    clock: &Clock,
) -> std::io::Result<(TcpTarget, Announce)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let registry = build_registry(registrar, HOST_SEED + u64::from(node));
    let lane_stats = Arc::clone(metrics.lane_stats());
    let server = std::thread::Builder::new()
        .name(format!("tcp-target-{node}"))
        .spawn(move || target_main(node, listener, spec, registry, lane_stats))?;

    let (msg, ctrl, announce) = connect_pair(addr)?;
    let msg_rx = msg.try_clone()?;
    // TCP streams have no slot arrays; the announced credit limit bounds
    // scheduler admission for this host. A reconnect budget needs sent
    // frames kept around for the resume handshake (replay-only
    // recovery); budget 0 never resumes, so it stores nothing.
    let mut chan = ChannelCore::unbounded()
        .with_batching(batch)
        .with_credit_limit(announce.credit_limit as usize);
    if budget > 0 {
        chan = chan.with_recovery(RecoveryPolicy::replay_only(budget));
    }
    let link = Arc::new(Link {
        node,
        addr,
        msg_tx: Mutex::new(msg),
        ctrl: Mutex::new(ctrl),
        chan: Arc::new(chan),
        blackout: AtomicBool::new(false),
    });
    let link2 = Arc::clone(&link);
    let metrics2 = Arc::clone(metrics);
    let clock2 = clock.clone();
    let reader = std::thread::Builder::new()
        .name(format!("tcp-link-{node}"))
        .spawn(move || run_link(&link2, msg_rx, &metrics2, &clock2, budget))?;
    Ok((
        TcpTarget {
            link,
            reader: Mutex::new(Some(reader)),
            server: Mutex::new(Some(server)),
            mem_bytes: announce.mem_bytes,
            lanes: announce.lanes,
        },
        announce,
    ))
}

/// The TCP/IP communication backend.
///
/// Target slots are fixed at spawn, but a slot need not be *active*:
/// [`TcpBackend::spawn_cluster`] leaves its reserve tail vacant and
/// [`TcpBackend::join_target`] activates a vacant slot later
/// via the same discovery handshake the constructor uses. `OnceLock`
/// keeps the slot addresses stable so `channel()` can keep handing out
/// `&ChannelCore` borrows while other slots join.
pub struct TcpBackend {
    host_registry: Arc<Registry>,
    targets: Vec<OnceLock<TcpTarget>>,
    /// Address book: the announce spec each slot (active or vacant) is
    /// spawned from. Indexed like `targets`.
    book: Vec<TargetSpec>,
    batch: BatchConfig,
    /// Reconnect attempts per disconnect; 0 = a disconnect evicts.
    budget: u32,
    registrar: Arc<Registrar>,
    /// Serialises `join_target` activations per backend.
    join_lock: Mutex<()>,
    clock: Clock,
    metrics: Arc<BackendMetrics>,
    plan: Arc<FaultPlan>,
}

/// The most result bytes a target queues before it writes them: a
/// frame that would take the queue past this flushes the queue first,
/// and a frame larger than this goes out on its own, uncopied.
const RESULT_QUEUE: usize = 64 << 10;

/// The target-process side of one TCP channel. The device thread reads
/// the message socket itself: `recv` blocks in `read`, and `try_recv`
/// hands out what that `read` delivered beyond the first frame. Results
/// queue behind the write half until the device runtime's per-window
/// `flush`, which writes them all at once.
struct TcpSideChannel {
    /// Read half and its buffer. Only the device thread takes this lock.
    rx: Mutex<(TcpStream, FrameReader)>,
    /// Write half and the result frames queued since the last flush.
    tx: Mutex<(TcpStream, Vec<u8>)>,
}

impl TcpSideChannel {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        Ok(Self {
            rx: Mutex::new((stream.try_clone()?, FrameReader::new())),
            tx: Mutex::new((stream, Vec::with_capacity(RESULT_QUEUE))),
        })
    }
}

/// Queue the frame `len ‖ head ‖ tail` behind `queue`, keeping the
/// queue within [`RESULT_QUEUE`]: what would overflow it is written to
/// `out` first, and a frame too large to queue follows it directly.
fn queue_frame(
    out: &mut impl Write,
    queue: &mut Vec<u8>,
    head: &[u8],
    tail: &[u8],
) -> std::io::Result<()> {
    let len = PREFIX + head.len() + tail.len();
    if queue.len() + len > RESULT_QUEUE {
        write_queued(out, queue)?;
    }
    if len > RESULT_QUEUE {
        write_frame_parts(out, head, tail)
    } else {
        write_frame_parts(queue, head, tail)
    }
}

/// Hand every queued frame to `out` in one write, and empty the queue.
fn write_queued(out: &mut impl Write, queue: &mut Vec<u8>) -> std::io::Result<()> {
    if queue.is_empty() {
        return Ok(());
    }
    let done = out.write_all(queue);
    queue.clear();
    done
}

/// The next message off a target's message socket. `None` ends the
/// session: EOF, a socket error, or bytes that are not a well-formed
/// message.
fn next_msg(
    (stream, frames): &mut (TcpStream, FrameReader),
    pool: &Arc<FramePool>,
) -> Option<(MsgHeader, PooledFrame)> {
    let body = frames.next_frame(stream).ok()??;
    let header = MsgHeader::decode(body).ok()?;
    if body.len() != header.wire_len() {
        return None;
    }
    let mut payload = pool.checkout();
    payload.extend_from_slice(&body[HEADER_BYTES..]);
    Some((header, payload))
}

impl TargetChannel for TcpSideChannel {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        next_msg(&mut self.rx.lock().unwrap(), pool)
    }

    /// Never waits for a *new* frame, but does finish one whose first
    /// bytes are already in the buffer (the rest is in flight).
    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        let mut rx = self.rx.lock().unwrap();
        if !rx.1.has_buffered() {
            return Polled::Empty;
        }
        match next_msg(&mut rx, pool) {
            Some((h, p)) => Polled::Msg(h, p),
            None => Polled::Closed,
        }
    }

    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        let header = result_header(reply_slot, seq, payload.len()).encode();
        let (stream, queue) = &mut *self.tx.lock().unwrap();
        let _ = queue_frame(stream, queue, &header, &payload);
    }

    fn flush(&self) {
        let (stream, queue) = &mut *self.tx.lock().unwrap();
        let _ = write_queued(stream, queue);
    }
}

/// Serve control RPCs over one connection until EOF/error.
fn serve_ctrl(mut stream: TcpStream, mem: &VecMemory, alloc: &Mutex<RangeAllocator>) {
    while let Ok(Some(body)) = read_frame(&mut stream) {
        let result: Result<Vec<u8>, String> = match ControlOp::decode(&body) {
            Err(e) => Err(e),
            Ok(ControlOp::Alloc { bytes }) => alloc
                .lock()
                .unwrap()
                .alloc(bytes, 8)
                .map(|a| a.to_le_bytes().to_vec())
                .map_err(|e| e.to_string()),
            Ok(ControlOp::Free { addr }) => alloc
                .lock()
                .unwrap()
                .free(addr)
                .map(|_| Vec::new())
                .map_err(|e| e.to_string()),
            Ok(ControlOp::Put { addr, data }) => mem
                .mem_write(addr, data)
                .map(|_| Vec::new())
                .map_err(|e| e.to_string()),
            Ok(ControlOp::Get { len, .. }) if len > u64::from(MAX_FRAME) => {
                Err(format!("get of {len} bytes exceeds the frame bound"))
            }
            Ok(ControlOp::Get { addr, len }) => {
                let mut out = vec![0u8; len as usize];
                mem.mem_read(addr, &mut out)
                    .map(|_| out)
                    .map_err(|e| e.to_string())
            }
            Ok(ControlOp::Ping { echo }) => Ok(echo.to_le_bytes().to_vec()),
        };
        // Response frame: status byte ‖ body.
        let done = match &result {
            Ok(body) => write_frame_parts(&mut stream, &[0], body),
            Err(msg) => write_frame_parts(&mut stream, &[1], msg.as_bytes()),
        };
        if done.is_err() {
            break;
        }
    }
}

/// The target "process": memory, allocator, and the dedup watermark
/// live *outside* the accept loop, so they survive disconnects. Each
/// accepted connection pair starts a new device session that first
/// announces capabilities + watermark on the message socket, then
/// serves frames until the link drops ([`HaltReason::Closed`] — loop
/// back to accept) or a `Control` frame arrives
/// ([`HaltReason::Control`] — exit). A `'Q'` hello terminates a target
/// parked in `accept`.
fn target_main(
    node: u16,
    listener: TcpListener,
    spec: TargetSpec,
    registry: Registry,
    lane_stats: Arc<LaneStats>,
) -> u64 {
    let mem = Arc::new(VecMemory::new(spec.mem_bytes as usize));
    let alloc = Arc::new(Mutex::new(RangeAllocator::new(spec.mem_bytes)));
    let runtime = DeviceRuntime::new(
        DeviceConfig::new()
            .with_lanes(spec.lanes as usize)
            .with_stats(lane_stats),
    );
    let mut watermark: Option<u64> = None;
    let mut served_total: u64 = 0;
    loop {
        let mut msg_stream: Option<TcpStream> = None;
        let mut ctrl_stream: Option<TcpStream> = None;
        while msg_stream.is_none() || ctrl_stream.is_none() {
            let Ok((mut s, _)) = listener.accept() else {
                return served_total;
            };
            s.set_nodelay(true).ok();
            let mut tag = [0u8; 1];
            if s.read_exact(&mut tag).is_err() {
                continue;
            }
            match tag[0] {
                b'M' => msg_stream = Some(s),
                b'C' => ctrl_stream = Some(s),
                b'Q' => return served_total,
                // A half-open leftover from a torn-down connection
                // attempt, or a stranger's bytes: drop it and keep
                // accepting.
                _ => continue,
            }
        }
        let mut msg_stream = msg_stream.expect("message socket");
        let ctrl_stream = ctrl_stream.expect("control socket");

        // Discovery/resume handshake: first frame on the fresh message
        // connection. A write failure means the host vanished between
        // connect and announce — go back to accepting.
        let announce = Announce {
            node,
            lanes: spec.lanes,
            credit_limit: spec.credit_limit,
            mem_bytes: spec.mem_bytes,
            watermark,
        };
        let mut body = Vec::new();
        announce.encode(&mut body);
        if write_frame(&mut msg_stream, &body).is_err() {
            continue;
        }

        let mem2 = Arc::clone(&mem);
        let alloc2 = Arc::clone(&alloc);
        let ctrl_thread = std::thread::Builder::new()
            .name(format!("tcp-target-{node}-ctrl"))
            .spawn(move || serve_ctrl(ctrl_stream, &mem2, &alloc2))
            .expect("spawn ctrl thread");
        let chan = TcpSideChannel::new(msg_stream).expect("clone msg stream");
        let env = TargetEnv {
            node,
            registry: &registry,
            mem: &*mem,
            reverse: None,
            meter: None,
            // Push transport: many host threads post, seqs may reach the
            // wire out of order, so watermark dedup must stay off. The
            // resume handshake does not need it — the host only replays
            // frames *above* the announced watermark, which were
            // provably never executed.
            dedup: false,
        };
        let end = runtime.run_session(&env, &chan, watermark);
        watermark = end.watermark;
        served_total += end.served;
        // Shut the session's sockets down so the ctrl thread unblocks.
        let _ = chan.tx.lock().unwrap().0.shutdown(Shutdown::Both);
        let _ = ctrl_thread.join();
        if end.reason == HaltReason::Control {
            return served_total;
        }
    }
}

/// Host side of the connection handshake: open tagged message + control
/// sockets, then read the target's [`Announce`] off the message socket.
/// (The target writes the announce only once *both* sockets are
/// accepted, so the control socket must connect before the read.)
fn connect_pair(addr: std::net::SocketAddr) -> std::io::Result<(TcpStream, TcpStream, Announce)> {
    let mut msg = TcpStream::connect(addr)?;
    msg.set_nodelay(true).ok();
    msg.write_all(b"M")?;
    let mut ctrl = TcpStream::connect(addr)?;
    ctrl.set_nodelay(true).ok();
    ctrl.write_all(b"C")?;
    let body = read_frame(&mut msg)?.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no announce frame")
    })?;
    let announce = ham::codec::decode::<Announce>(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((msg, ctrl, announce))
}

/// Per-target link supervisor. Deposits result frames into the channel
/// core; on EOF it degrades the channel (posts park, nothing is
/// evicted), then drives up to `budget` bounded-backoff reconnect
/// attempts. A successful reconnect swaps fresh sockets in under the
/// [`Link`] locks, resumes the channel against the re-announced
/// watermark, and replays the provably-unexecuted frames. An exhausted
/// budget evicts — at once when the budget is 0.
fn run_link(
    link: &Link,
    mut msg_rx: TcpStream,
    metrics: &BackendMetrics,
    clock: &Clock,
    budget: u32,
) {
    let node = link.node;
    let lost = || OffloadError::TargetLost(NodeId(node));
    'session: loop {
        // ---- Deposit: pump result frames until the link drops ----
        let mut frames = FrameReader::new();
        while let Ok(Some(body)) = frames.next_frame(&mut msg_rx) {
            if let Ok(header) = MsgHeader::decode(body) {
                if header.kind == MsgKind::Result && body.len() == header.wire_len() {
                    let mut result = link.chan.pool().checkout();
                    result.extend_from_slice(&body[HEADER_BYTES..]);
                    link.chan.deposit_frame(header.seq, result);
                }
            }
        }
        if link.chan.is_shutdown() || link.chan.eviction().is_some() {
            return;
        }
        // ---- Degrade: park posts, keep every pending entry alive ----
        // With no budget there is nothing to park for: EOF is a peer
        // death, so every in-flight offload fails with `TargetLost`
        // below instead of hanging, and new posts are refused.
        if budget > 0 {
            link.disconnect(metrics, clock);
        }
        // ---- Reconnect: bounded backoff under the policy budget ----
        let mut backoff = Duration::from_micros(500);
        for _ in 0..budget {
            if link.chan.is_shutdown() {
                return;
            }
            metrics.on_reconnect_attempt();
            let attempt = if link.blackout.load(Ordering::SeqCst) {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "reconnect blackout",
                ))
            } else {
                connect_pair(link.addr)
            };
            if let Ok((msg, ctrl, announce)) = attempt {
                if link.chan.is_shutdown() {
                    return;
                }
                let Ok(rx) = msg.try_clone() else {
                    continue;
                };
                *link.msg_tx.lock().unwrap() = msg;
                *link.ctrl.lock().unwrap() = ctrl;
                // Resume: replay what the watermark proves unexecuted,
                // fail the possibly-executed rest with `TargetLost`.
                let mut replay_ok = true;
                if let Some(report) = link.chan.resume(announce.watermark, lost()) {
                    let mut tx = link.msg_tx.lock().unwrap();
                    let mut replayed = 0u64;
                    for f in &report.replay {
                        if write_frame(&mut *tx, &f.frame).is_err() {
                            replay_ok = false;
                            break;
                        }
                        replayed += 1;
                    }
                    metrics.on_replay(replayed);
                }
                metrics
                    .health()
                    .record(node, HealthEventKind::Reconnect, 0, clock.now().as_ps());
                if replay_ok {
                    msg_rx = rx;
                    continue 'session;
                }
                // The fresh connection died mid-replay: degrade again
                // and keep burning this disconnect's budget.
                link.disconnect(metrics, clock);
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(20));
        }
        // ---- Budget exhausted: the disconnect becomes an eviction ----
        if link.chan.evict(lost()).is_some() {
            metrics
                .health()
                .record(node, HealthEventKind::Eviction, 0, clock.now().as_ps());
        }
        return;
    }
}

impl TcpBackend {
    /// Default per-target memory.
    pub(crate) const DEFAULT_MEM: u64 = 16 << 20;

    /// Spawn `n` default targets ([`TargetSpec::default`]) as in-process
    /// "remote" peers connected over loopback TCP, point-to-point: no
    /// reconnect budget, so a disconnect evicts the target.
    pub fn spawn(
        n: u16,
        registrar: impl Fn(&mut RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::spawn_cluster(
            &vec![TargetSpec::default(); n as usize],
            &[],
            None,
            BatchConfig::default(),
            FaultPlan::none(),
            registrar,
        )
    }

    /// Spawn the targets described by `active` (target `i` gets node id
    /// `i + 1`) plus an address book of vacant `reserve` slots: node ids
    /// `active.len()+1 ..= active.len()+reserve.len()` exist (they count
    /// toward [`CommBackend::num_targets`]) but no process-analogue is
    /// spawned and no connection made until [`TcpBackend::join_target`]
    /// activates them. Until then their verbs fail with
    /// [`OffloadError::BadNode`].
    ///
    /// `policy` sets the reconnect budget. With `Some`, a disconnect
    /// *degrades* the target instead of evicting it: a per-target link
    /// supervisor re-establishes the connection with bounded backoff (at
    /// most `policy.max_retries` attempts per disconnect, at least one),
    /// re-reads the target's [`Announce`], and replays exactly the
    /// in-flight frames the announced watermark proves unexecuted; only
    /// an exhausted budget evicts. The policy's miss-based retry half is
    /// coerced to [`RecoveryPolicy::replay_only`] because spurious
    /// re-sends on a live TCP stream would double-execute (the push
    /// transport runs without device-side dedup). With `None` the budget
    /// is 0: the reader's EOF evicts the channel with
    /// [`OffloadError::TargetLost`].
    ///
    /// `plan` records the disconnects [`CommBackend::kill_target`]
    /// injects; `batch` arms small-message batching (consecutive
    /// `post()`s coalesce into one wire frame per the watermarks).
    pub fn spawn_cluster(
        active: &[TargetSpec],
        reserve: &[TargetSpec],
        policy: Option<RecoveryPolicy>,
        batch: BatchConfig,
        plan: Arc<FaultPlan>,
        registrar: impl Fn(&mut RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        let registrar: Arc<Registrar> = Arc::new(registrar);
        let host_registry = Arc::new(build_registry(&registrar, HOST_SEED));
        let metrics = Arc::new(BackendMetrics::new());
        for node in 1..=active.len() as u16 {
            metrics.health().register(node);
        }
        let clock = Clock::new();
        let budget = policy.map_or(0, |p| p.max_retries.max(1));
        let mut targets: Vec<OnceLock<TcpTarget>> = active
            .iter()
            .zip(1u16..)
            .map(|(spec, node)| {
                let (target, _announce) =
                    spawn_target(node, *spec, &registrar, batch, budget, &metrics, &clock)
                        .expect("tcp handshake");
                OnceLock::from(target)
            })
            .collect();
        // Reserve slots: known to the address book, vacant until joined.
        targets.extend((0..reserve.len()).map(|_| OnceLock::new()));
        let book = active.iter().chain(reserve).copied().collect();
        Arc::new(Self {
            host_registry,
            targets,
            book,
            batch,
            budget,
            registrar,
            join_lock: Mutex::new(()),
            clock,
            metrics,
            plan,
        })
    }

    /// Activate a vacant reserve slot on a *running* backend:
    /// spawn the target peer from its address-book [`TargetSpec`], run
    /// the same discovery handshake the constructor uses (the target
    /// [`Announce`]s its capabilities and watermark), and start the
    /// per-link supervisor. Returns the announced capabilities.
    ///
    /// Errors: out-of-range ids, and slots that are already active.
    /// Joining is serialised per backend; a joined target is probe-able
    /// and poolable the moment this returns.
    pub fn join_target(&self, node: NodeId) -> Result<Announce, OffloadError> {
        if node.is_host() || node.0 as usize > self.targets.len() {
            return Err(OffloadError::BadNode(node));
        }
        let _guard = self.join_lock.lock().unwrap();
        let idx = node.0 as usize - 1;
        if self.targets[idx].get().is_some() {
            return Err(OffloadError::Backend(format!(
                "tcp: node {} already joined",
                node.0
            )));
        }
        let (t, announce) = spawn_target(
            node.0,
            self.book[idx],
            &self.registrar,
            self.batch,
            self.budget,
            &self.metrics,
            &self.clock,
        )
        .map_err(io_err)?;
        let _ = self.targets[idx].set(t);
        self.metrics.health().register(node.0);
        Ok(announce)
    }

    /// True once `node`'s slot holds a live connection (constructed
    /// active, or activated by [`TcpBackend::join_target`]).
    pub fn is_joined(&self, node: NodeId) -> bool {
        !node.is_host()
            && self
                .targets
                .get(node.0 as usize - 1)
                .is_some_and(|s| s.get().is_some())
    }

    /// Test/ops hook: while `on`, reconnect attempts for `node` fail
    /// deterministically without touching the network, as if the target
    /// host were unreachable. Lets tests hold a target in `Degraded`
    /// and observe the budgeted `Degraded → Evicted` transition.
    pub fn block_reconnect(&self, node: NodeId, on: bool) -> Result<(), OffloadError> {
        self.target(node)?.link.blackout.store(on, Ordering::SeqCst);
        Ok(())
    }

    fn target(&self, node: NodeId) -> Result<&TcpTarget, OffloadError> {
        if node.is_host() {
            return Err(OffloadError::BadNode(node));
        }
        self.targets
            .get(node.0 as usize - 1)
            .and_then(OnceLock::get)
            .ok_or(OffloadError::BadNode(node))
    }

    /// Synchronous control RPC.
    fn control(&self, node: NodeId, op: ControlOp<'_>) -> Result<Vec<u8>, OffloadError> {
        let t = self.target(node)?;
        if t.link.chan.is_shutdown() {
            return Err(OffloadError::Shutdown);
        }
        if t.link.chan.is_degraded() {
            // The control socket is down too; fail fast instead of
            // writing into a dead stream while the supervisor reconnects.
            return Err(OffloadError::Backend(format!(
                "tcp: node {} link degraded, reconnecting",
                node.0
            )));
        }
        let mut stream = t.link.ctrl.lock().unwrap();
        op.write_to(&mut *stream).map_err(io_err)?;
        let resp = read_frame(&mut *stream)
            .map_err(io_err)?
            .ok_or(OffloadError::Shutdown)?;
        match resp.split_first() {
            Some((0, body)) => Ok(body.to_vec()),
            Some((_, msg)) => Err(OffloadError::Mem(String::from_utf8_lossy(msg).into_owned())),
            None => Err(OffloadError::Backend("empty control response".into())),
        }
    }
}

impl CommBackend for TcpBackend {
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
                name: "tcp host".into(),
                device_type: DeviceType::Host,
                memory_bytes: 0,
                cores: 1,
            });
        }
        let t = self.target(node)?;
        Ok(NodeDescriptor {
            node,
            name: format!("tcp target {} @ {}", node.0, t.link.addr),
            device_type: DeviceType::Generic,
            memory_bytes: t.mem_bytes,
            cores: t.lanes.max(1),
        })
    }

    fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError> {
        Ok(&self.target(target)?.link.chan)
    }

    fn send_frame(
        &self,
        target: NodeId,
        _res: &Reservation,
        _header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let t = self.target(target)?;
        match write_frame(&mut *t.link.msg_tx.lock().unwrap(), frame) {
            Ok(()) => Ok(()),
            Err(_) if self.budget > 0 && t.link.chan.eviction().is_none() => {
                // The socket died under this post. Degrade (the link
                // supervisor also sees EOF) and report success: the
                // engine then stores the frame in the replay buffer, and
                // the resume handshake replays it iff the watermark
                // proves it never executed — a partially-flushed frame
                // that *did* reach the target lands at or below the
                // watermark and fails with `TargetLost` instead of
                // double-executing.
                t.link.disconnect(&self.metrics, &self.clock);
                Ok(())
            }
            // Point to point there is no session to resume: the peer is
            // gone, and the engine latches the eviction on this error.
            Err(_) => Err(OffloadError::TargetLost(target)),
        }
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        let resp = self.control(node, ControlOp::Alloc { bytes })?;
        resp.get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .ok_or_else(|| OffloadError::Backend("short alloc response".into()))
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        self.control(node, ControlOp::Free { addr }).map(|_| ())
    }

    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
        let addr = dst.addr;
        self.control(dst.node, ControlOp::Put { addr, data })
            .map(|_| ())
    }

    fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError> {
        let resp = self.control(
            src.node,
            ControlOp::Get {
                addr: src.addr,
                len: out.len() as u64,
            },
        )?;
        if resp.len() != out.len() {
            return Err(OffloadError::Backend("short get response".into()));
        }
        out.copy_from_slice(&resp);
        Ok(())
    }

    fn host_clock(&self) -> &Clock {
        &self.clock
    }

    fn metrics(&self) -> &BackendMetrics {
        &self.metrics
    }

    /// A real `Ping` round trip over the control socket (the default
    /// trait probe only inspects host-side channel state). Failures
    /// surface as errors (a degraded link already recorded its
    /// `Disconnect`); [`engine::probe`] records the outcome.
    fn probe(&self, target: NodeId) -> Result<(), OffloadError> {
        let echo = 0x70_69_6e_67_u64 ^ u64::from(target.0); // "ping"
        let resp = self.control(target, ControlOp::Ping { echo })?;
        if resp.get(..8) != Some(&echo.to_le_bytes()[..]) {
            return Err(OffloadError::Backend("bad ping echo".into()));
        }
        Ok(())
    }

    /// Kill one peer's link abruptly: both sockets are torn down with no
    /// Control handshake, as if the remote process died. The link
    /// supervisor observes EOF and spends the reconnect budget; with
    /// none, the channel is evicted before this returns.
    fn kill_target(&self, target: NodeId) -> Result<(), OffloadError> {
        let t = self.target(target)?;
        self.plan.disconnect(target.0, self.clock.now());
        t.link.close_sockets();
        if self.budget == 0 {
            // Latch the eviction before returning rather than leaving
            // it to the supervisor's EOF handling: otherwise a
            // caller can observe every in-flight future failed (via
            // send-side errors) while `eviction()` is still unset for a
            // scheduling beat — a `TargetPool` would briefly keep
            // placing on the dead target. `evict` is idempotent, so
            // whichever of this call and the supervisor loses the race
            // becomes a no-op.
            let lost = OffloadError::TargetLost(target);
            engine::evict(self, target, &t.link.chan, lost);
        }
        Ok(())
    }

    fn shutdown(&self) {
        for node in 1..=self.num_targets() {
            let t = match self.target(NodeId(node)) {
                Ok(t) => t,
                Err(_) => continue,
            };
            // The latch also stops the link supervisor from reconnecting
            // past this point.
            if t.link.chan.begin_shutdown() {
                continue;
            }
            if t.link.chan.is_degraded() {
                // Shutting down mid-reconnect: there is no live link to
                // drain staged work into, so fail what's left instead of
                // spinning on a parked flush.
                let _ = t.link.chan.evict(OffloadError::Shutdown);
            } else {
                // Staged batch members must reach the wire before the
                // terminator (the shutdown gate lets an accumulated batch
                // drain); errors mean the peer is already gone.
                let _ = engine::flush(self, NodeId(node));
                // Terminate the message loop with a Control frame, written
                // directly (no reservation: a terminating target sends no
                // result back).
                let header = MsgHeader {
                    handler_key: HandlerKey(0),
                    payload_len: 0,
                    kind: MsgKind::Control,
                    reply_slot: 0,
                    corr: 0,
                    seq: u64::MAX,
                };
                let _ = write_frame(&mut *t.link.msg_tx.lock().unwrap(), &header.encode());
            }
            // Close the sockets so the ctrl loop and reader unblock.
            t.link.close_sockets();
            // A target that lost its session parks in `accept`; a 'Q'
            // hello tells it to exit instead of waiting for a connection
            // that will never come.
            if let Ok(mut s) = TcpStream::connect(t.link.addr) {
                let _ = s.write_all(b"Q");
            }
            if let Some(h) = t.server.lock().unwrap().take() {
                let _ = h.join();
            }
            if let Some(h) = t.reader.lock().unwrap().take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for TcpBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::ShortWriter;
    use ham::f2f;
    use ham_offload::Offload;

    ham::ham_kernel! {
        pub fn over_the_wire(ctx, addr: u64, n: u64) -> f64 {
            ctx.mem.read_f64s(addr, n as usize).unwrap().iter().sum()
        }
    }

    ham::ham_kernel! {
        pub fn node_echo(ctx) -> u16 { ctx.node }
    }

    fn registrar(b: &mut RegistryBuilder) {
        b.register::<over_the_wire>();
        b.register::<node_echo>();
    }

    #[test]
    fn offload_over_real_tcp() {
        let o = Offload::new(TcpBackend::spawn(1, registrar));
        assert_eq!(o.sync(NodeId(1), f2f!(node_echo)).unwrap(), 1);
        o.shutdown();
    }

    #[test]
    fn buffers_travel_through_sockets() {
        let o = Offload::new(TcpBackend::spawn(1, registrar));
        let t = NodeId(1);
        let b = o.allocate::<f64>(t, 16).unwrap();
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        o.put(&data, b).unwrap();
        let mut back = vec![0.0f64; 16];
        o.get(b, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(o.sync(t, f2f!(over_the_wire, b.addr(), 16)).unwrap(), 120.0);
        o.free(b).unwrap();
        o.shutdown();
    }

    #[test]
    fn multiple_tcp_targets() {
        let o = Offload::new(TcpBackend::spawn(3, registrar));
        let futures: Vec<_> = (1..=3u16)
            .map(|n| o.async_(NodeId(n), f2f!(node_echo)).unwrap())
            .collect();
        let nodes: Vec<u16> = futures.into_iter().map(|f| f.get().unwrap()).collect();
        assert_eq!(nodes, vec![1, 2, 3]);
        let d = o.get_node_descriptor(NodeId(2)).unwrap();
        assert!(d.name.contains("127.0.0.1"), "{}", d.name);
        o.shutdown();
    }

    #[test]
    fn pipelined_posts_on_one_socket() {
        let o = Offload::new(TcpBackend::spawn(1, registrar));
        let futures: Vec<_> = (0..50)
            .map(|_| o.async_(NodeId(1), f2f!(node_echo)).unwrap())
            .collect();
        for f in futures {
            assert_eq!(f.get().unwrap(), 1);
        }
        o.shutdown();
    }

    #[test]
    fn wait_all_gathers_across_targets() {
        let o = Offload::new(TcpBackend::spawn(2, registrar));
        let futures: Vec<_> = (0..8u16)
            .map(|i| o.async_(NodeId(1 + i % 2), f2f!(node_echo)).unwrap())
            .collect();
        let nodes: Vec<u16> = o
            .wait_all(futures)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(nodes, vec![1, 2, 1, 2, 1, 2, 1, 2]);
        o.shutdown();
    }

    #[test]
    fn shutdown_then_use_fails_cleanly() {
        let o = Offload::new(TcpBackend::spawn(1, registrar));
        o.shutdown();
        o.shutdown(); // idempotent
        assert!(o.sync(NodeId(1), f2f!(node_echo)).is_err());
        assert!(o.allocate::<f64>(NodeId(1), 4).is_err());
    }

    /// Point to point a failed message-socket write is the peer's loss:
    /// the post reports `TargetLost` and the engine latches the
    /// eviction, as EOF and `kill_target` do.
    #[test]
    fn a_failed_write_to_a_point_to_point_peer_latches_the_eviction() {
        let backend = TcpBackend::spawn(1, registrar);
        let link = &backend.target(NodeId(1)).unwrap().link;
        link.msg_tx
            .lock()
            .unwrap()
            .shutdown(Shutdown::Write)
            .unwrap();
        let o = Offload::new(backend.clone());
        let err = o.sync(NodeId(1), f2f!(node_echo)).unwrap_err();
        assert_eq!(err, OffloadError::TargetLost(NodeId(1)));
        assert!(link.chan.eviction().is_some());
        o.shutdown();
    }

    /// A bare target on a loopback port, no backend around it: tests
    /// talk to it over raw sockets. Returns its address and its thread,
    /// which yields the number of offloads served.
    fn raw_target() -> (std::net::SocketAddr, JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg: Arc<Registrar> = Arc::new(registrar);
        let registry = build_registry(&reg, HOST_SEED + 1);
        let server = std::thread::spawn(move || {
            let stats = Arc::new(LaneStats::new());
            target_main(1, listener, TargetSpec::default(), registry, stats)
        });
        (addr, server)
    }

    /// A `node_echo` offload frame as the host engine would write it.
    fn echo_frame(kind: MsgKind, seq: u64) -> Vec<u8> {
        let reg: Arc<Registrar> = Arc::new(registrar);
        let (key, payload) = build_registry(&reg, HOST_SEED)
            .encode_message(&f2f!(node_echo))
            .unwrap();
        let header = MsgHeader {
            handler_key: key,
            payload_len: payload.len() as u32,
            kind,
            reply_slot: 0,
            corr: 0,
            seq,
        };
        [&header.encode()[..], &payload].concat()
    }

    /// The one accept loop left: strangers and half-open connections
    /// are dropped, never a panic, and the next well-formed pair still
    /// gets its announce.
    #[test]
    fn accept_loop_drops_hostile_hellos_and_keeps_serving() {
        let (addr, server) = raw_target();
        // Unknown hello byte, then a connection that closes before
        // sending one (short read).
        TcpStream::connect(addr).unwrap().write_all(b"X").unwrap();
        drop(TcpStream::connect(addr).unwrap());
        let (_msg, _ctrl, announce) = connect_pair(addr).expect("target must still accept");
        assert_eq!(
            (announce.node, announce.lanes),
            (1, TargetSpec::default().lanes)
        );
        assert_eq!(announce.watermark, None);
        // Dropping the pair ends the session (`Closed`); 'Q' ends the
        // target parked back in `accept`.
        drop((_msg, _ctrl));
        TcpStream::connect(addr).unwrap().write_all(b"Q").unwrap();
        assert_eq!(server.join().expect("target must not panic"), 0);
    }

    /// Any peer can write a well-formed header: a `Result` message, a
    /// header whose length disagrees with the frame, or bytes that are
    /// no header at all each end the session as a dropped link — the
    /// target keeps its watermark, goes back to `accept`, and serves the
    /// next connection.
    #[test]
    fn hostile_message_frames_end_the_session_not_the_target() {
        let (addr, server) = raw_target();
        let mut long = echo_frame(MsgKind::Offload, 8);
        long.push(0);
        let hostile = [echo_frame(MsgKind::Result, 9), long, vec![0xff; 7]];
        for (i, frame) in hostile.iter().enumerate() {
            let (mut msg, _ctrl, announce) = connect_pair(addr).expect("target must accept");
            assert_eq!(announce.watermark, (i > 0).then_some(7), "session {i}");
            // A good offload first, in the same write as the hostile
            // frame: it is served, and sets the watermark, regardless.
            let mut wire = Vec::new();
            write_frame(&mut wire, &echo_frame(MsgKind::Offload, 7)).unwrap();
            write_frame(&mut wire, frame).unwrap();
            msg.write_all(&wire).unwrap();
            let result = read_frame(&mut msg).unwrap().expect("result of seq 7");
            assert_eq!(MsgHeader::decode(&result).unwrap().seq, 7);
            assert_eq!(read_frame(&mut msg).unwrap(), None, "session {i} closed");
        }
        // The target is back in `accept` and whole: a real backend-style
        // exchange still works.
        let (mut msg, _ctrl, announce) = connect_pair(addr).expect("target must still accept");
        assert_eq!(announce.watermark, Some(7));
        write_frame(&mut msg, &echo_frame(MsgKind::Offload, 10)).unwrap();
        let result = read_frame(&mut msg).unwrap().expect("result frame");
        let header = MsgHeader::decode(&result).unwrap();
        assert_eq!((header.kind, header.seq), (MsgKind::Result, 10));
        let node = ham_offload::target_loop::unframe_result_ref(&result[HEADER_BYTES..]).unwrap();
        assert_eq!(ham::codec::decode::<u16>(node).unwrap(), 1);
        drop((msg, _ctrl));
        TcpStream::connect(addr).unwrap().write_all(b"Q").unwrap();
        assert_eq!(server.join().expect("target must not panic"), 4);
    }

    /// 64 posts before the first wait: the device thread's one blocking
    /// `read` takes them all, and `try_recv` hands the other 63 out of
    /// the buffer without touching the socket again (it would block
    /// forever on this quiet socket if it did).
    #[test]
    fn try_recv_drains_what_one_read_delivered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut host = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        host.set_nodelay(true).unwrap();
        let (target, _) = listener.accept().unwrap();
        let mut wire_len = 0;
        for seq in 0..64 {
            let frame = echo_frame(MsgKind::Offload, seq);
            wire_len += 4 + frame.len();
            write_frame(&mut host, &frame).unwrap();
        }
        // All 64 writes have returned; wait until all of them have
        // crossed loopback too.
        let mut seen = vec![0u8; wire_len];
        while target.peek(&mut seen).unwrap() < wire_len {
            std::thread::yield_now();
        }
        let chan = TcpSideChannel::new(target).unwrap();
        let pool = FramePool::new();
        assert!(
            matches!(chan.try_recv(&pool), Polled::Empty),
            "nothing read yet"
        );
        let (first, _) = chan.recv(&pool).expect("first frame");
        assert_eq!(first.seq, 0);
        for seq in 1..64 {
            match chan.try_recv(&pool) {
                Polled::Msg(h, _) => assert_eq!(h.seq, seq),
                _ => panic!("frame {seq} should be in the buffer"),
            }
        }
        assert!(matches!(chan.try_recv(&pool), Polled::Empty));
        // Peer gone: the blocking side reports the end of the session.
        drop(host);
        assert!(chan.recv(&pool).is_none());
    }

    /// The bytes `send_result(slot, seq, payload)` puts on the wire,
    /// as a frame written on its own.
    fn result_wire(slot: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let header = result_header(slot, seq, payload.len()).encode();
        write_frame_parts(&mut wire, &header, payload).unwrap();
        wire
    }

    /// A target-side channel over a fresh loopback connection, and the
    /// host's end of it.
    fn side_channel() -> (TcpSideChannel, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let host = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (target, _) = listener.accept().unwrap();
        (TcpSideChannel::new(target).unwrap(), host)
    }

    /// Results wait in the queue until `flush`, then reach the host
    /// byte-exact and in order; the queue hands them to the writer in
    /// one call.
    #[test]
    fn results_wait_for_flush_and_leave_in_one_write() {
        let results = [
            (1u16, 7u64, vec![0u8, 42]),
            (2, 8, vec![]),
            (3, 9, vec![5; 300]),
        ];
        let expect: Vec<u8> = results
            .iter()
            .flat_map(|(slot, seq, p)| result_wire(*slot, *seq, p))
            .collect();

        let (chan, mut host) = side_channel();
        for (slot, seq, p) in &results {
            chan.send_result(*slot, *seq, p.clone());
        }
        host.set_nonblocking(true).unwrap();
        let mut probe = [0u8; 1];
        assert_eq!(
            host.peek(&mut probe).map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock),
            "nothing is written before flush"
        );
        chan.flush();
        host.set_nonblocking(false).unwrap();
        let mut got = vec![0u8; expect.len()];
        host.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);

        let mut w = ShortWriter::new(usize::MAX);
        let mut queue = Vec::new();
        for (slot, seq, p) in &results {
            let header = result_header(*slot, *seq, p.len()).encode();
            queue_frame(&mut w, &mut queue, &header, p).unwrap();
        }
        assert_eq!(w.calls, 0, "queued, not written");
        write_queued(&mut w, &mut queue).unwrap();
        assert_eq!((w.calls, &w.out), (1, &expect));
        write_queued(&mut w, &mut queue).unwrap();
        assert_eq!(w.calls, 1, "an empty queue writes nothing");
    }

    /// A frame that would overflow the queue writes the queue first; a
    /// frame larger than the queue then follows in its own write, and
    /// a smaller one starts the next queue.
    #[test]
    fn a_frame_past_the_bound_flushes_the_queue_first() {
        let small = result_wire(0, 1, &[1; 10]);
        let half = vec![2u8; RESULT_QUEUE / 2];
        let big = vec![3u8; RESULT_QUEUE + 1];
        let header = |seq, len| result_header(0, seq, len).encode();
        let mut w = ShortWriter::new(usize::MAX);
        let mut queue = Vec::new();
        queue_frame(&mut w, &mut queue, &header(1, 10), &[1; 10]).unwrap();
        queue_frame(&mut w, &mut queue, &header(2, big.len()), &big).unwrap();
        assert_eq!(w.calls, 2, "the queue, then the outsized frame");
        assert!(queue.is_empty());
        queue_frame(&mut w, &mut queue, &header(3, half.len()), &half).unwrap();
        queue_frame(&mut w, &mut queue, &header(4, half.len()), &half).unwrap();
        assert_eq!(w.calls, 3, "the second half-size frame overflows");
        assert_eq!(queue, result_wire(0, 4, &half), "and starts the next queue");
        write_queued(&mut w, &mut queue).unwrap();
        let expect = [
            small,
            result_wire(0, 2, &big),
            result_wire(0, 3, &half),
            result_wire(0, 4, &half),
        ]
        .concat();
        assert_eq!((w.calls, w.out == expect), (4, true), "arrival order holds");
    }

    /// Whatever the frame sizes, flush points and short writes, the
    /// writer sees the frames' bytes in order, the queue never holds
    /// more than the bound, and the channel's queue never grows past it.
    #[test]
    fn queue_stays_bounded_and_emits_the_same_bytes_under_short_writes() {
        let mut rng = ham::rng::SplitMix64::new(27);
        let sizes: Vec<usize> = (0..400)
            .map(|_| match rng.next_below(8) {
                0 => RESULT_QUEUE + rng.next_below(4096) as usize,
                1 => RESULT_QUEUE - HEADER_BYTES - PREFIX,
                2 | 3 => rng.next_below(20_000) as usize,
                _ => rng.next_below(64) as usize,
            })
            .collect();
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| vec![i as u8; n])
            .collect();
        let expect: Vec<u8> = frames
            .iter()
            .enumerate()
            .flat_map(|(i, p)| result_wire(0, i as u64, p))
            .collect();
        for cap in [1usize, 7, 4096, usize::MAX] {
            let mut w = ShortWriter::new(cap);
            let mut queue = Vec::new();
            for (i, p) in frames.iter().enumerate() {
                let header = result_header(0, i as u64, p.len()).encode();
                queue_frame(&mut w, &mut queue, &header, p).unwrap();
                assert!(queue.len() <= RESULT_QUEUE);
                if i % 5 == 4 {
                    write_queued(&mut w, &mut queue).unwrap();
                }
            }
            write_queued(&mut w, &mut queue).unwrap();
            assert!(w.out == expect, "cap {cap}: bytes or order differ");
        }

        // The channel's own queue, over a socket a reader drains.
        let (chan, mut host) = side_channel();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            host.read_to_end(&mut got).unwrap();
            got
        });
        for (i, p) in frames.iter().enumerate() {
            chan.send_result(0, i as u64, p.clone());
            let cap = chan.tx.lock().unwrap().1.capacity();
            assert!(
                cap <= RESULT_QUEUE + PREFIX + HEADER_BYTES + p.len(),
                "{cap}"
            );
            if i % 5 == 4 {
                chan.flush();
            }
        }
        chan.flush();
        chan.tx.lock().unwrap().0.shutdown(Shutdown::Write).unwrap();
        assert!(
            reader.join().unwrap() == expect,
            "the socket saw other bytes"
        );
    }

    #[test]
    fn a_mebibyte_travels_through_the_control_socket() {
        let o = Offload::new(TcpBackend::spawn(1, registrar));
        let n: usize = (1 << 20) / 8;
        let b = o.allocate::<f64>(NodeId(1), n as u64).unwrap();
        let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        o.put(&data, b).unwrap();
        let mut back = vec![0.0f64; n];
        o.get(b, &mut back).unwrap();
        assert!(back == data, "1 MiB put/get round trip");
        let sum = o.sync(NodeId(1), f2f!(over_the_wire, b.addr(), n as u64));
        assert_eq!(sum.unwrap(), data.iter().sum::<f64>());
        o.free(b).unwrap();
        o.shutdown();
    }

    #[test]
    fn target_allocator_errors_travel_back() {
        let spec = TargetSpec {
            mem_bytes: 1024,
            ..TargetSpec::default()
        };
        let o = Offload::new(TcpBackend::spawn_cluster(
            &[spec],
            &[],
            None,
            BatchConfig::default(),
            FaultPlan::none(),
            registrar,
        ));
        assert!(matches!(
            o.allocate::<f64>(NodeId(1), 4096),
            Err(OffloadError::Mem(_))
        ));
        o.shutdown();
    }
}
