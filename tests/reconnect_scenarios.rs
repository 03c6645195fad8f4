//! Cluster-TCP reconnection matrix (ROADMAP: cluster-scale TCP).
//!
//! Every scenario runs against a real loopback-TCP cluster target
//! ([`TcpBackend::spawn_cluster`]) whose link is killed at seeded
//! points. The invariants checked after every run:
//!
//! * **exactly-once**: every offload either completes successfully and
//!   its kernel executed exactly once, or it surfaces
//!   [`OffloadError::TargetLost`] and its kernel executed at most once —
//!   never twice, even though frames are replayed on resume;
//! * **no leaks**: the channel's in-flight count drains to zero;
//! * **determinism** (replay-after-idle-disconnect scenario): two runs
//!   with the same seed produce bit-identical executed-tag sets and
//!   outcome vectors.
//!
//! The satellite regression at the bottom pins the reconnect budget:
//! a disconnect evicts only after exactly `RecoveryPolicy::max_retries`
//! failed reconnect attempts — never on the first EOF.

use aurora_sim_core::FaultPlan;
use ham::f2f;
use ham_aurora_repro::{
    BatchConfig, NodeId, Offload, OffloadError, RecoveryPolicy, TargetSpec, TargetState,
};
use ham_backend_tcp::TcpBackend;
use ham_offload::backend::CommBackend;
use ham_offload::chan::engine;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Global execution log: the kernel appends its tag on the (in-process)
/// target, so the host side can prove at-most-once execution under
/// replay. Tags are unique per scenario × seed × offload.
static EXECUTED: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();

fn executed() -> &'static Mutex<Vec<u64>> {
    EXECUTED.get_or_init(|| Mutex::new(Vec::new()))
}

ham::ham_kernel! {
    pub fn record_tag(_ctx, tag: u64) -> u64 {
        executed().lock().unwrap().push(tag);
        tag
    }
}

fn registrar(b: &mut ham::RegistryBuilder) {
    b.register::<record_tag>();
}

/// Deterministic per-scenario PRNG (wave sizes, kill points).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Unique tag block per scenario run, so parallel tests sharing the
/// global log never collide.
fn tag_base(scenario: u64, seed: u64) -> u64 {
    (scenario << 48) | (seed << 24)
}

fn exec_count(tag: u64) -> usize {
    executed()
        .lock()
        .unwrap()
        .iter()
        .filter(|&&t| t == tag)
        .count()
}

fn cluster(budget: u32, batch: BatchConfig) -> (Offload, Arc<TcpBackend>) {
    let backend = TcpBackend::spawn_cluster(
        &[TargetSpec::default()],
        &[],
        Some(RecoveryPolicy::replay_only(budget)),
        batch,
        FaultPlan::none(),
        registrar,
    );
    (
        Offload::new(Arc::clone(&backend) as Arc<dyn CommBackend>),
        backend,
    )
}

fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// The shared post-run check: every offload completed exactly once or
/// surfaced `TargetLost` with at most one execution; nothing leaked.
fn check_exactly_once(outcomes: &[(u64, Result<u64, OffloadError>)]) {
    for (tag, outcome) in outcomes {
        let count = exec_count(*tag);
        match outcome {
            Ok(v) => {
                assert_eq!(v, tag, "result routed to the wrong offload");
                assert_eq!(
                    count, 1,
                    "tag {tag:#x}: completed offloads execute exactly once"
                );
            }
            Err(OffloadError::TargetLost(_)) => {
                assert!(
                    count <= 1,
                    "tag {tag:#x}: TargetLost offload executed {count} times"
                );
            }
            Err(e) => panic!("tag {tag:#x}: unexpected error {e:?}"),
        }
    }
}

fn drained(o: &Offload, t: NodeId) {
    assert_eq!(o.in_flight(t).unwrap(), 0, "leaked pending entries");
}

/// Scenario 1: the link dies mid-wave, with offloads on the wire. The
/// link supervisor reconnects (the target re-accepts immediately) and
/// replays what the watermark proves unexecuted.
fn run_mid_batch_disconnect(seed: u64) {
    let (o, _be) = cluster(64, BatchConfig::default());
    let t = NodeId(1);
    let mut lcg = Lcg(seed);
    let base = tag_base(1, seed);
    let n = 16 + (lcg.next() % 16) as usize;
    let kill_at = 2 + (lcg.next() as usize % (n / 2));
    let mut outcomes = Vec::new();
    let mut futs = Vec::new();
    for i in 0..n {
        if i == kill_at {
            o.kill_target(t).unwrap();
        }
        let tag = base + i as u64;
        match o.async_(t, f2f!(record_tag, tag)) {
            Ok(f) => futs.push((tag, f)),
            Err(e) => outcomes.push((tag, Err(e))),
        }
    }
    for (tag, f) in futs {
        outcomes.push((tag, f.get()));
    }
    check_exactly_once(&outcomes);
    drained(&o, t);
    o.shutdown();
}

/// Scenario 2: the link dies while a batch accumulator holds staged
/// messages that never reached the wire. They must survive the
/// degradation and flush after resume — all complete exactly once.
fn run_disconnect_during_staged_accumulator(seed: u64) {
    let (o, _be) = cluster(64, BatchConfig::up_to(16));
    let t = NodeId(1);
    let mut lcg = Lcg(seed ^ 0x5eed);
    let base = tag_base(2, seed);
    // Fewer posts than the batch watermark: everything stages.
    let n = 2 + (lcg.next() % 8) as usize;
    let mut futs = Vec::new();
    for i in 0..n {
        let tag = base + i as u64;
        futs.push((tag, o.async_(t, f2f!(record_tag, tag)).unwrap()));
    }
    o.kill_target(t).unwrap();
    let mut outcomes = Vec::new();
    for (tag, f) in futs {
        outcomes.push((tag, f.get()));
    }
    // Staged messages were never on the wire, so the watermark clears
    // every one of them: no TargetLost outcomes are acceptable here.
    for (tag, outcome) in &outcomes {
        assert!(outcome.is_ok(), "staged tag {tag:#x} lost: {outcome:?}");
    }
    check_exactly_once(&outcomes);
    drained(&o, t);
    o.shutdown();
}

/// Scenario 3: the link dies, heals, and dies again with replayed work
/// in flight. Exactly-once must hold across both resume handshakes.
fn run_double_disconnect(seed: u64) {
    let (o, be) = cluster(64, BatchConfig::default());
    let t = NodeId(1);
    let mut lcg = Lcg(seed ^ 0xd0b1e);
    let base = tag_base(3, seed);
    let n = 12 + (lcg.next() % 8) as usize;
    let mut outcomes = Vec::new();
    let mut futs = Vec::new();
    for i in 0..n {
        let tag = base + i as u64;
        match o.async_(t, f2f!(record_tag, tag)) {
            Ok(f) => futs.push((tag, f)),
            Err(e) => outcomes.push((tag, Err(e))),
        }
        if i == 2 {
            o.kill_target(t).unwrap();
        }
    }
    // Wait for the first reconnect to land, then cut the fresh link.
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().snapshot().reconnects >= 1
        }),
        "first reconnect never happened"
    );
    o.kill_target(t).unwrap();
    for (tag, f) in futs {
        outcomes.push((tag, f.get()));
    }
    check_exactly_once(&outcomes);
    drained(&o, t);
    // The futures can all settle before the supervisor wakes from its
    // backoff sleep, so the second heal is awaited, not asserted
    // instantaneously.
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().snapshot().reconnects >= 2
        }),
        "second disconnect must reconnect again"
    );
    o.shutdown();
}

/// Scenario 4: the target is unreachable for a while (blackout burns
/// reconnect attempts), then comes back before the budget runs out.
/// The late reconnect still resumes and completes the parked work.
fn run_reconnect_after_timeout(seed: u64) {
    let (o, be) = cluster(200, BatchConfig::default());
    let t = NodeId(1);
    let mut lcg = Lcg(seed ^ 0x71e0);
    let base = tag_base(4, seed);
    let n = 4 + (lcg.next() % 6) as usize;
    let mut futs = Vec::new();
    for i in 0..n {
        let tag = base + i as u64;
        futs.push((tag, o.async_(t, f2f!(record_tag, tag)).unwrap()));
    }
    be.block_reconnect(t, true).unwrap();
    o.kill_target(t).unwrap();
    // Let a few attempts fail against the blackout before healing.
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().snapshot().reconnect_attempts >= 2
        }),
        "no reconnect attempts recorded during blackout"
    );
    be.block_reconnect(t, false).unwrap();
    let mut outcomes = Vec::new();
    for (tag, f) in futs {
        outcomes.push((tag, f.get()));
    }
    check_exactly_once(&outcomes);
    drained(&o, t);
    // The in-flight work can settle (executed-before-kill results, or
    // watermarked `TargetLost`) before the supervisor's next backoff
    // attempt lands on the now-unblocked listener, so the heal is
    // awaited, not asserted instantaneously.
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().snapshot().reconnects >= 1
        }),
        "the healed link must reconnect"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().health().state(t.0) == Some(TargetState::Healthy)
        }),
        "Degraded heals back to Healthy on reconnect"
    );
    o.shutdown();
}

/// Scenario 5: the link dies right after the first result of a full
/// wave lands. The target writes a window's results in one write, so
/// the rest of that window lands with it or is lost with it; either way
/// every offload completes exactly once or surfaces `TargetLost`.
fn run_mid_wave_disconnect(seed: u64) {
    let (o, _be) = cluster(64, BatchConfig::default());
    let t = NodeId(1);
    let base = tag_base(11, seed);
    let mut futs: Vec<_> = (0..64u64)
        .map(|i| (base + i, o.async_(t, f2f!(record_tag, base + i)).unwrap()))
        .collect();
    assert!(
        wait_until(Duration::from_secs(10), || {
            futs.iter_mut().any(|(_, f)| f.test())
        }),
        "no offload of the wave completed"
    );
    o.kill_target(t).unwrap();
    let outcomes: Vec<(u64, Result<u64, OffloadError>)> =
        futs.into_iter().map(|(tag, f)| (tag, f.get())).collect();
    check_exactly_once(&outcomes);
    drained(&o, t);
    o.shutdown();
}

#[test]
fn mid_batch_disconnect_matrix() {
    for seed in 1..=8 {
        run_mid_batch_disconnect(seed);
    }
}

#[test]
fn disconnect_during_staged_accumulator_matrix() {
    for seed in 1..=8 {
        run_disconnect_during_staged_accumulator(seed);
    }
}

#[test]
fn double_disconnect_matrix() {
    for seed in 1..=8 {
        run_double_disconnect(seed);
    }
}

#[test]
fn reconnect_after_timeout_matrix() {
    for seed in 1..=8 {
        run_reconnect_after_timeout(seed);
    }
}

#[test]
fn mid_wave_disconnect_matrix() {
    for seed in 1..=8 {
        run_mid_wave_disconnect(seed);
    }
}

/// Replay determinism: kill the link while the channel is idle, then
/// post a wave. Nothing was in flight at the disconnect, so the resume
/// replays a well-defined set and every offload completes. Two runs
/// with the same seed must produce bit-identical outcome vectors and
/// executed-tag sets.
#[test]
fn replayed_timelines_are_deterministic() {
    let run = |seed: u64, instance: u64| -> (Vec<u64>, Vec<bool>) {
        let (o, _be) = cluster(64, BatchConfig::default());
        let t = NodeId(1);
        let mut lcg = Lcg(seed ^ 0xde7e);
        let base = tag_base(5 + instance, seed);
        let n = 8 + (lcg.next() % 8) as usize;
        o.kill_target(t).unwrap();
        let mut futs = Vec::new();
        for i in 0..n {
            let tag = base + i as u64;
            futs.push((tag, o.async_(t, f2f!(record_tag, tag)).unwrap()));
        }
        let outcomes: Vec<(u64, Result<u64, OffloadError>)> =
            futs.into_iter().map(|(tag, f)| (tag, f.get())).collect();
        check_exactly_once(&outcomes);
        drained(&o, t);
        o.shutdown();
        let mut tags: Vec<u64> = outcomes
            .iter()
            .filter(|(tag, _)| exec_count(*tag) == 1)
            .map(|(tag, _)| tag - base)
            .collect();
        tags.sort_unstable();
        let oks: Vec<bool> = outcomes.iter().map(|(_, r)| r.is_ok()).collect();
        (tags, oks)
    };
    for seed in 1..=4 {
        let (tags_a, oks_a) = run(seed, 0);
        let (tags_b, oks_b) = run(seed, 1);
        assert_eq!(
            tags_a, tags_b,
            "seed {seed}: executed-tag timelines diverge"
        );
        assert_eq!(oks_a, oks_b, "seed {seed}: outcome vectors diverge");
        assert!(
            oks_a.iter().all(|&ok| ok),
            "idle-disconnect waves replay fully"
        );
    }
}

/// Satellite regression: a disconnect must route through the
/// `RecoveryPolicy` before evicting. With reconnects blacked out and a
/// budget of 3, the target goes `Degraded` on EOF, burns exactly 3
/// attempts, and only then latches `Evicted` — the reader thread never
/// evicts on the first EOF.
#[test]
fn eviction_waits_for_the_reconnect_budget() {
    // Posts stage in the accumulator (watermark 16, never reached, and
    // no blocking wait runs before the kill), so none can complete
    // before the disconnect — every outcome is deterministically
    // `TargetLost` once the budget evicts the target.
    let (o, be) = cluster(3, BatchConfig::up_to(16));
    let t = NodeId(1);
    let base = tag_base(9, 0);
    let mut futs = Vec::new();
    for i in 0..3u64 {
        futs.push((base + i, o.async_(t, f2f!(record_tag, base + i)).unwrap()));
    }
    be.block_reconnect(t, true).unwrap();
    o.kill_target(t).unwrap();
    // Degraded first (the disconnect), evicted only after the budget.
    assert!(
        wait_until(Duration::from_secs(10), || {
            be.metrics().health().state(t.0) == Some(TargetState::Evicted)
        }),
        "budget exhaustion must evict"
    );
    let snap = be.metrics().snapshot();
    assert_eq!(
        snap.reconnect_attempts, 3,
        "every budgeted attempt runs before eviction, and none after"
    );
    assert_eq!(snap.reconnects, 0, "blackout: no attempt succeeds");
    assert_eq!(snap.evictions, 1);
    let events = be.metrics().health().events_for(t.0);
    let disconnect_at = events
        .iter()
        .position(|e| e.kind == ham_aurora_repro::HealthEventKind::Disconnect)
        .expect("a Disconnect event precedes eviction");
    let eviction_at = events
        .iter()
        .position(|e| e.kind == ham_aurora_repro::HealthEventKind::Eviction)
        .expect("an Eviction event after the budget");
    assert!(
        disconnect_at < eviction_at,
        "Degraded strictly before Evicted"
    );
    // Every in-flight offload fails with TargetLost; none leak, and
    // none executed twice.
    let outcomes: Vec<(u64, Result<u64, OffloadError>)> =
        futs.into_iter().map(|(tag, f)| (tag, f.get())).collect();
    for (_, outcome) in &outcomes {
        assert!(
            matches!(outcome, Err(OffloadError::TargetLost(_))),
            "evicted target fails in-flight work with TargetLost: {outcome:?}"
        );
    }
    check_exactly_once(&outcomes);
    drained(&o, t);
    o.shutdown();
}

/// Discovery: the announce handshake populates a multi-host pool with
/// per-host capabilities — credit limits and lane counts surface in the
/// channel cores and node descriptors.
#[test]
fn discovery_announces_per_host_capabilities() {
    let specs = [
        TargetSpec {
            lanes: 2,
            credit_limit: 7,
            mem_bytes: 1 << 20,
        },
        TargetSpec {
            lanes: 16,
            credit_limit: 64,
            mem_bytes: 2 << 20,
        },
    ];
    let backend = TcpBackend::spawn_cluster(
        &specs,
        &[],
        Some(RecoveryPolicy::replay_only(4)),
        BatchConfig::default(),
        FaultPlan::none(),
        registrar,
    );
    let o = Offload::new(Arc::clone(&backend) as Arc<dyn CommBackend>);
    for (i, spec) in specs.iter().enumerate() {
        let node = NodeId((i + 1) as u16);
        let chan = backend.channel(node).unwrap();
        assert_eq!(chan.credit_limit(), spec.credit_limit as usize);
        let d = o.get_node_descriptor(node).unwrap();
        assert_eq!(d.cores, spec.lanes, "lanes surface as cores");
        assert_eq!(d.memory_bytes, spec.mem_bytes);
    }
    // Both hosts execute work; probes through the engine record health
    // observations.
    let base = tag_base(10, 0);
    let a = o.async_(NodeId(1), f2f!(record_tag, base)).unwrap();
    let b = o.async_(NodeId(2), f2f!(record_tag, base + 1)).unwrap();
    assert_eq!(a.get().unwrap(), base);
    assert_eq!(b.get().unwrap(), base + 1);
    engine::probe(&*backend, NodeId(1)).unwrap();
    engine::probe(&*backend, NodeId(2)).unwrap();
    assert!(be_has_probe(&backend, 1) && be_has_probe(&backend, 2));
    o.shutdown();
}

fn be_has_probe(be: &TcpBackend, node: u16) -> bool {
    be.metrics()
        .health()
        .events_for(node)
        .iter()
        .any(|e| e.kind == ham_aurora_repro::HealthEventKind::Probe)
}
