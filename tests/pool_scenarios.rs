//! Fault matrix for the multi-target scheduler (`TargetPool`).
//!
//! The headline scenario kills 1 of 4 targets while a wave of pooled
//! offloads is in flight, on every fault-capable backend (VEO, DMA,
//! TCP) under the fixed seed set: every offload either completes with
//! a correct result on the target that served it or fails with
//! `TargetLost`, the dead target leaves the pool, post-kill waves run
//! entirely on the survivors, and no in-flight frame record leaks —
//! run twice per seed to pin the semantic fault timeline and the
//! placement decisions.
//!
//! The staged-batch scenario exercises the failover path proper: posts
//! that were still sitting in the dead target's batch accumulator (or
//! whose envelope failed to send) verifiably never reached the wire,
//! so the pool resubmits them to survivors and *all* offloads complete.

use aurora_workloads::kernels::{compute_burn, echo};
use ham::f2f;
use ham_aurora_repro::fault_scenario::{probe_expected, scenario_probe, BackendKind};
use ham_aurora_repro::{
    offload_with, tcp_cluster, BatchConfig, FaultPlan, NodeId, Offload, OffloadError,
    OffloadOptions, RecoveryPolicy, TargetSpec, TargetState,
};
use ham_offload::backend::CommBackend;
use ham_offload::sched::{PoolFuture, SchedPolicy, TargetPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 42, 0xA770_57E5];
const TARGETS: u16 = 4;
const WAVE: usize = 16;

fn spawn(kind: BackendKind, plan: Arc<FaultPlan>) -> Offload {
    let opts = OffloadOptions {
        plan,
        ..OffloadOptions::default()
    };
    offload_with(kind, TARGETS, opts, |b| {
        b.register::<scenario_probe>();
    })
}

/// `TARGETS` targets on `kind`, staging up to 64 messages per frame.
fn spawn_batched(
    kind: BackendKind,
    plan: Arc<FaultPlan>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let opts = OffloadOptions {
        batch: BatchConfig::up_to(64),
        plan,
        ..OffloadOptions::default()
    };
    offload_with(kind, TARGETS, opts, registrar)
}

/// `(x, final_target, result)` for one collected offload.
type Outcome = (u64, u16, Result<u64, OffloadError>);

/// Submit one wave through the pool, recording where each offload was
/// *placed* (before any failover), then collect every future.
/// Returns `(placements, outcomes)`; outcomes are in posting order.
fn run_wave(pool: &TargetPool, base: u64) -> (Vec<u16>, Vec<Outcome>) {
    let mut xs = Vec::new();
    let mut futs: Vec<PoolFuture<u64>> = Vec::new();
    let mut placements = Vec::new();
    for i in 0..WAVE {
        let x = base + i as u64;
        let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
        placements.push(f.target().0);
        xs.push(x);
        futs.push(f);
    }
    let mut outcomes = Vec::new();
    while !futs.is_empty() {
        let i = pool.wait_any(&mut futs).expect("futures pending");
        let x = xs.swap_remove(i);
        let f = futs.swap_remove(i);
        let served_by = f.target().0;
        outcomes.push((x, served_by, pool.get(f)));
    }
    outcomes.sort_unstable_by_key(|(x, _, _)| *x);
    (placements, outcomes)
}

/// Canonical per-run record compared across the determinism replay.
#[derive(Debug, PartialEq)]
struct PoolRun {
    wave0: Vec<(u64, u16)>,
    wave1_placements: Vec<u16>,
    wave1_ok: usize,
    wave1_lost: usize,
    wave2: Vec<(u64, u16)>,
    healthy_after: Vec<u16>,
    timeline: Vec<String>,
}

fn kill_one_of_four_once(kind: BackendKind, policy: SchedPolicy, seed: u64) -> PoolRun {
    let plan = FaultPlan::builder(seed).build();
    let o = spawn(kind, Arc::clone(&plan));
    let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
    let pool = o.pool_with(&nodes, policy).expect("pool");
    let victim = NodeId(1 + (seed % TARGETS as u64) as u16);
    let label = format!("{} seed {seed}", kind.name());

    // Wave 0: fault-free. Placement spreads evenly and every offload
    // completes on the target that served it.
    let (placements0, wave0) = run_wave(&pool, 0);
    for t in 1..=TARGETS {
        assert_eq!(
            placements0.iter().filter(|&&p| p == t).count(),
            WAVE / TARGETS as usize,
            "{label}: wave 0 placement skew: {placements0:?}"
        );
    }
    let wave0: Vec<(u64, u16)> = wave0
        .into_iter()
        .map(|(x, t, r)| {
            assert_eq!(r.expect("wave 0 ok"), probe_expected(x, t), "{label}");
            (x, t)
        })
        .collect();

    // Wave 1: kill the victim while the wave is in flight (posted but
    // not collected).
    let mut xs = Vec::new();
    let mut futs = Vec::new();
    let mut wave1_placements = Vec::new();
    for i in 0..WAVE {
        let x = 100 + i as u64;
        let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
        wave1_placements.push(f.target().0);
        xs.push(x);
        futs.push(f);
    }
    o.kill_target(victim).expect("kill_target");
    let mut wave1_ok = 0;
    let mut wave1_lost = 0;
    while !futs.is_empty() {
        let i = pool.wait_any(&mut futs).expect("futures pending");
        let x = xs.swap_remove(i);
        let f = futs.swap_remove(i);
        let placed = wave1_placements[(x - 100) as usize];
        let t = f.target().0;
        match pool.get(f) {
            Ok(v) => {
                assert_eq!(v, probe_expected(x, t), "{label}: wave 1 value");
                wave1_ok += 1;
            }
            Err(OffloadError::TargetLost(n)) => {
                assert_eq!(n, victim, "{label}: lost to the wrong target");
                assert_eq!(placed, victim.0, "{label}: survivor offload lost");
                wave1_lost += 1;
            }
            Err(e) => panic!("{label}: unexpected wave 1 error: {e}"),
        }
    }
    assert_eq!(wave1_ok + wave1_lost, WAVE, "{label}: wave 1 accounting");

    // Pin the death onto the books before the next wave: a pinned probe
    // rides the dying channel into its eviction (or is refused outright
    // once the eviction is latched), so wave 2 skips the victim
    // deterministically. A last-gasp completion just loops again.
    while o
        .backend()
        .channel(victim)
        .expect("victim channel")
        .eviction()
        .is_none()
    {
        match pool.submit_to(victim, f2f!(scenario_probe, 999)) {
            Ok(f) => {
                let _ = pool.get(f);
            }
            Err(_) => std::thread::yield_now(),
        }
    }
    let healthy_after: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
    assert!(
        !healthy_after.contains(&victim.0),
        "{label}: victim still pooled"
    );
    assert_eq!(healthy_after.len(), TARGETS as usize - 1, "{label}");

    // Wave 2: survivors only, everything completes.
    let (placements2, wave2) = run_wave(&pool, 200);
    assert!(
        placements2.iter().all(|p| *p != victim.0),
        "{label}: wave 2 placed on the dead target: {placements2:?}"
    );
    let wave2: Vec<(u64, u16)> = wave2
        .into_iter()
        .map(|(x, t, r)| {
            assert_eq!(r.expect("wave 2 ok"), probe_expected(x, t), "{label}");
            (x, t)
        })
        .collect();

    // Zero leaked pending entries anywhere — dead target included.
    for &n in &nodes {
        assert_eq!(
            o.in_flight(n).unwrap_or(0),
            0,
            "{label}: leaked pending entries on t{}",
            n.0
        );
    }

    let timeline: Vec<String> = plan
        .semantic_events()
        .iter()
        .map(|e| format!("{:?}/{} {:?}", e.site, e.actor, e.kind))
        .collect();
    o.shutdown();
    PoolRun {
        wave0,
        wave1_placements,
        wave1_ok,
        wave1_lost,
        wave2,
        healthy_after,
        timeline,
    }
}

/// The kill-wave's ok/lost split can race the victim's last flag fetch,
/// so the replay comparison pins everything that must be deterministic
/// (placements, fault timeline, fault-free waves, the surviving set) and
/// only requires the racy split to stay fully accounted.
fn pool_kill_one_of_four(kind: BackendKind, policy: SchedPolicy) {
    for seed in SEEDS {
        let a = kill_one_of_four_once(kind, policy, seed);
        let b = kill_one_of_four_once(kind, policy, seed);
        let label = format!("{} seed {seed}", kind.name());
        assert_eq!(a.timeline, b.timeline, "{label}: fault timeline replays");
        assert_eq!(a.wave0, b.wave0, "{label}: fault-free wave replays");
        assert_eq!(
            a.wave1_placements, b.wave1_placements,
            "{label}: kill-wave placement replays"
        );
        assert_eq!(a.wave2, b.wave2, "{label}: survivor wave replays");
        assert_eq!(a.healthy_after, b.healthy_after, "{label}");
        assert!(a.timeline.len() == 1, "{label}: one kill: {:?}", a.timeline);
    }
}

#[test]
fn pool_kill_one_of_four_veo() {
    pool_kill_one_of_four(BackendKind::Veo, SchedPolicy::LeastLoaded);
}

#[test]
fn pool_kill_one_of_four_dma() {
    pool_kill_one_of_four(BackendKind::Dma, SchedPolicy::LeastLoaded);
}

#[test]
fn pool_kill_one_of_four_tcp() {
    // TCP is a push transport: its receiver threads retire completions
    // concurrently with submission, so load-based placement would race.
    // Round-robin keeps the placement record deterministic.
    pool_kill_one_of_four(BackendKind::Tcp, SchedPolicy::RoundRobin);
}

/// The failover path proper: offloads staged in the dead target's batch
/// accumulator never reached the wire, so the pool must resubmit them
/// to survivors — **all** offloads complete, none is lost.
///
/// TCP makes this deterministic: `kill_target` shuts the host-side
/// socket down synchronously, so the flush of the victim's staged
/// envelope fails in `send_frame`, marks every member unsent, and the
/// pool replays them. (The equivalent core-level transitions are
/// unit-tested in `chan::core`; this pins the end-to-end behaviour.)
#[test]
fn staged_batch_offloads_fail_over_to_survivors() {
    for seed in [3u64, 13, 42] {
        let reg = |b: &mut ham::RegistryBuilder| {
            b.register::<scenario_probe>();
        };
        let o = spawn_batched(BackendKind::Tcp, FaultPlan::none(), reg);
        let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
        let pool = o.pool_with(&nodes, SchedPolicy::LeastLoaded).expect("pool");
        let victim = NodeId(1 + (seed % TARGETS as u64) as u16);
        let label = format!("tcp staged seed {seed}");

        // 16 submits spread 4 per target — all staged (watermark 64),
        // nothing on the wire yet. Staged members count toward
        // in-flight, so LeastLoaded is deterministic even on a push
        // transport here.
        let mut futs = Vec::new();
        let mut xs = Vec::new();
        let mut placements = Vec::new();
        for i in 0..WAVE {
            let x = seed * 1000 + i as u64;
            let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
            placements.push(f.target().0);
            xs.push(x);
            futs.push(f);
        }
        for t in 1..=TARGETS {
            assert_eq!(
                placements.iter().filter(|&&p| p == t).count(),
                WAVE / TARGETS as usize,
                "{label}: staged placement skew: {placements:?}"
            );
        }
        o.kill_target(victim).expect("kill_target");

        // Collect everything: the victim's staged members fail to send,
        // are marked unsent, and get replayed on survivors.
        let mut resubmitted = 0;
        while !futs.is_empty() {
            let i = pool.wait_any(&mut futs).expect("futures pending");
            let x = xs.swap_remove(i);
            let f = futs.swap_remove(i);
            let t = f.target().0;
            if f.resubmits() > 0 {
                resubmitted += 1;
                assert_ne!(t, victim.0, "{label}: resubmitted back to the dead target");
            }
            let v = pool
                .get(f)
                .unwrap_or_else(|e| panic!("{label}: offload x={x} lost: {e}"));
            assert_eq!(v, probe_expected(x, t), "{label}: value/target mismatch");
        }
        assert_eq!(
            resubmitted,
            WAVE / TARGETS as usize,
            "{label}: exactly the victim's staged members fail over"
        );
        let healthy: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
        assert!(!healthy.contains(&victim.0), "{label}");
        for &n in &nodes {
            assert_eq!(o.in_flight(n).unwrap_or(0), 0, "{label}: leak on t{}", n.0);
        }
        o.shutdown();
    }
}

/// Work stealing under a kill: batch carriers engage the device
/// runtime's worker lanes (an uneven member mix forces idle lanes to
/// steal), a target dies with its members still staged, and the pool
/// fails them over — every offload completes, the lanes recorded
/// steals, and nothing leaks.
#[test]
fn lanes_steal_while_a_target_dies() {
    const DEPTH: usize = 48; // 12 members per target: > 8 lanes each
    for seed in [3u64, 13, 42] {
        let plan = FaultPlan::builder(seed).build();
        let o = spawn_batched(BackendKind::Dma, plan, aurora_workloads::register_all);
        let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
        let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
        let victim = NodeId(1 + (seed % TARGETS as u64) as u16);
        let label = format!("dma lanes seed {seed}");

        // Round-robin staging puts one heavy member at the head of each
        // target's envelope; the light members queued behind it on the
        // same lane must be stolen by idle peers.
        let mut futs = Vec::new();
        for i in 0..DEPTH {
            let flops = if i < TARGETS as usize {
                5_000_000u64
            } else {
                200_000
            };
            futs.push(pool.submit(f2f!(compute_burn, flops)).expect("submit"));
        }
        let placements: Vec<u16> = futs.iter().map(|f| f.target().0).collect();
        let staged_on_victim = placements.iter().filter(|&&p| p == victim.0).count();
        assert_eq!(staged_on_victim, DEPTH / TARGETS as usize, "{label}");
        o.kill_target(victim).expect("kill_target");

        // The victim's envelope either fails in `send_frame` (members
        // verifiably unsent → they fail over and complete elsewhere) or
        // lands in the dead process's memory (members lost) — the shm
        // write can race the kill either way, but the accounting must
        // close: every member resolves, and only victim-placed ones may
        // be lost.
        let mut resubmitted = 0;
        let mut lost = 0;
        let mut idx: Vec<usize> = (0..DEPTH).collect();
        while !futs.is_empty() {
            let i = pool.wait_any(&mut futs).expect("futures pending");
            let placed = placements[idx.swap_remove(i)];
            let f = futs.swap_remove(i);
            if f.resubmits() > 0 {
                resubmitted += 1;
            }
            let t = f.target().0;
            match pool.get(f) {
                Ok(v) => {
                    assert_eq!(v, t, "{label}: compute_burn reports its node");
                    assert_ne!(t, victim.0, "{label}: completed on the dead target");
                }
                Err(OffloadError::TargetLost(n)) => {
                    assert_eq!(n, victim, "{label}: lost to the wrong target");
                    assert_eq!(placed, victim.0, "{label}: survivor member lost");
                    lost += 1;
                }
                Err(e) => panic!("{label}: unexpected error: {e}"),
            }
        }
        assert_eq!(
            resubmitted + lost,
            DEPTH / TARGETS as usize,
            "{label}: the victim's staged members fail over or fail loudly"
        );
        let snap = o.metrics_snapshot();
        assert!(
            snap.steals > 0,
            "{label}: heavy-headed 12-member carriers on 8 lanes must steal"
        );
        assert_eq!(
            snap.lanes.iter().map(|l| l.tasks).sum::<u64>(),
            (DEPTH - lost) as u64,
            "{label}: every completed member executed on a lane"
        );
        for &n in &nodes {
            assert_eq!(o.in_flight(n).unwrap_or(0), 0, "{label}: leak on t{}", n.0);
        }
        o.shutdown();
    }
}

/// Staged-member migration: a *healthy but slow* target (its slot rings
/// pinned full, so its accumulator cannot flush) holds staged members
/// while peers sit idle. `TargetPool::rebalance` reclaims them —
/// provably unsent — and the pool replays them elsewhere. The donor is
/// never evicted, every offload completes, and no pending entry leaks,
/// across the full seed set.
#[test]
fn staged_members_migrate_off_a_slow_target() {
    for seed in SEEDS {
        let reg = |b: &mut ham::RegistryBuilder| {
            b.register::<scenario_probe>();
        };
        let o = spawn_batched(BackendKind::Dma, FaultPlan::none(), reg);
        let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
        let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
        let donor = NodeId(1 + (seed % TARGETS as u64) as u16);
        let label = format!("dma migration seed {seed}");

        // Pin the donor's slot rings full with reservations that never
        // complete: its staged envelope cannot flush until they free —
        // the deterministic stand-in for a target digesting slow work.
        let donor_chan = o.backend().channel(donor).expect("donor channel");
        let stuck: Vec<u64> = (0..8)
            .map(
                |_| match donor_chan.try_reserve(false, 0, aurora_sim_core::SimTime::ZERO, 0) {
                    ham_offload::chan::Reserve::Reserved(r) => r.seq,
                    other => panic!("{label}: pin reservation refused: {other:?}"),
                },
            )
            .collect();

        // One round-robin wave: WAVE/TARGETS members staged per target.
        let mut xs = Vec::new();
        let mut futs = Vec::new();
        let mut donor_futs = Vec::new();
        let mut donor_xs = Vec::new();
        for i in 0..WAVE {
            let x = seed * 1000 + i as u64;
            let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
            if f.target() == donor {
                donor_xs.push(x);
                donor_futs.push(f);
            } else {
                xs.push(x);
                futs.push(f);
            }
        }
        let staged = WAVE / TARGETS as usize;
        assert_eq!(donor_futs.len(), staged, "{label}: placement skew");
        assert_eq!(donor_chan.staged_len(), staged, "{label}");

        // Drain the peers first so they go idle — migration needs a
        // recipient that will serve the reclaimed members *now*. (A
        // wait round may already migrate some donor members itself.)
        for (x, r) in xs.iter().zip(pool.wait_all(futs)) {
            r.unwrap_or_else(|e| panic!("{label}: peer offload x={x} lost: {e}"));
        }

        // Rebalance until the donor's accumulator is empty: each call
        // reclaims half the staged tail (rounded up), so this converges
        // in a few steps and the donor is never touched by a flush.
        while donor_chan.staged_len() > 0 {
            let m = pool.rebalance();
            assert!(m > 0, "{label}: rebalance stalled with work staged");
        }

        // Free the pinned slots (the donor recovers) and collect the
        // migrated members: each failed over exactly once and completed
        // with a correct result wherever it landed.
        for s in stuck {
            donor_chan.cancel(s);
        }
        while !donor_futs.is_empty() {
            let i = pool.wait_any(&mut donor_futs).expect("futures pending");
            let x = donor_xs.swap_remove(i);
            let f = donor_futs.swap_remove(i);
            assert!(f.resubmits() > 0, "{label}: member x={x} was not migrated");
            let t = f.target().0;
            let v = pool
                .get(f)
                .unwrap_or_else(|e| panic!("{label}: migrated x={x} lost: {e}"));
            assert_eq!(v, probe_expected(x, t), "{label}: value/target mismatch");
        }

        // The donor was slow, not dead: still pooled, nothing leaked.
        let healthy: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
        assert_eq!(healthy, (1..=TARGETS).collect::<Vec<_>>(), "{label}");
        for &n in &nodes {
            assert_eq!(o.in_flight(n).unwrap_or(0), 0, "{label}: leak on t{}", n.0);
        }
        o.shutdown();
    }
}

/// Regression for a rare (~1/40) `killing_every_target_empties_the_pool`
/// flake: `kill_target` used to only tear the sockets down and leave
/// the eviction latch to the TCP reader thread's EOF handling, so a
/// caller could observe every in-flight future resolved (send-side
/// errors fail them first) while `eviction()` was still unset for a
/// scheduling beat — the pool kept the dead target and `is_empty()`
/// reported a live pool. `kill_target` now latches the eviction
/// before returning in non-cluster mode, so the post-condition is
/// deterministic: no sleeps or yields here, the eviction must be
/// visible the instant the call returns, every round, within a hard
/// in-test deadline.
#[test]
fn kill_target_latches_eviction_before_returning() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    for round in 0..24u64 {
        let plan = FaultPlan::builder(round).build();
        let o = spawn(BackendKind::Tcp, plan);
        let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
        let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
        for &n in &nodes {
            o.kill_target(n).expect("kill");
            assert!(
                o.backend()
                    .channel(n)
                    .expect("channel")
                    .eviction()
                    .is_some(),
                "round {round}: kill_target returned before latching t{}",
                n.0
            );
        }
        assert!(pool.is_empty(), "round {round}: dead targets must prune");
        o.shutdown();
        assert!(
            std::time::Instant::now() < deadline,
            "in-test deadline exceeded at round {round}"
        );
    }
}

/// Losing *every* target empties the pool: queued offloads surface
/// their error and later submissions fail with the pool-empty error
/// instead of hanging.
#[test]
fn killing_every_target_empties_the_pool() {
    let plan = FaultPlan::builder(7).build();
    let o = spawn(BackendKind::Tcp, plan);
    let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
    let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
    let futs: Vec<PoolFuture<u64>> = (0..8)
        .map(|i| pool.submit(f2f!(scenario_probe, i)).expect("submit"))
        .collect();
    for &n in &nodes {
        o.kill_target(n).expect("kill");
    }
    for r in pool.wait_all(futs) {
        // Every queued offload resolves — correct last-gasp results are
        // fine, hangs and leaks are not.
        if let Err(e) = r {
            assert!(
                matches!(e, OffloadError::TargetLost(_) | OffloadError::Backend(_)),
                "unexpected error: {e}"
            );
        }
    }
    assert!(pool.is_empty(), "all targets dead");
    let err = pool.submit(f2f!(scenario_probe, 99)).unwrap_err();
    assert!(
        matches!(err, OffloadError::TargetLost(_) | OffloadError::Backend(_)),
        "{err}"
    );
    for &n in &nodes {
        assert_eq!(o.in_flight(n).unwrap_or(0), 0, "leak on t{}", n.0);
    }
    o.shutdown();
}

/// A submit too large for the slots is the caller's error, not the
/// target's: it returns the size error, every target stays in the
/// pool, and valid placed and affinity submits still complete.
#[test]
fn oversized_submit_leaves_the_pool_whole() {
    for kind in [BackendKind::Veo, BackendKind::Dma] {
        let o = offload_with(kind, 2, OffloadOptions::default(), |b| {
            b.register::<scenario_probe>();
            b.register::<echo>();
        });
        let nodes = vec![NodeId(1), NodeId(2)];
        let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
        let slot = o
            .backend()
            .channel(NodeId(1))
            .expect("channel")
            .max_msg_bytes();
        let err = pool.submit(f2f!(echo, vec![0u8; 2 * slot])).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the protocol's"),
            "{kind:?}: {err}"
        );
        assert_eq!(pool.healthy(), nodes, "{kind:?}: the pool must stay whole");
        let f = pool
            .submit(f2f!(echo, vec![7u8; 16]))
            .expect("valid submit");
        assert_eq!(pool.get(f).expect("echo"), vec![7u8; 16], "{kind:?}");
        let f = pool
            .submit_to(NodeId(2), f2f!(scenario_probe, 5))
            .expect("valid submit_to");
        assert_eq!(
            pool.get(f).expect("probe"),
            probe_expected(5, 2),
            "{kind:?}"
        );
        o.shutdown();
    }
}

// ---------------------------------------------------------------------
// Membership churn: dynamic add/remove on a running pool, background
// liveness probing, and the all-degraded placement bound — all against
// real loopback-TCP cluster targets.
// ---------------------------------------------------------------------

/// Cluster-TCP health transitions ride reader/supervisor threads, so
/// the churn assertions await them under a hard deadline instead of
/// sleeping blind.
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

/// A TCP cluster with a reconnect budget of `budget` per disconnect.
fn cluster(
    active: &[TargetSpec],
    reserve: &[TargetSpec],
    budget: u32,
) -> (Offload, Arc<ham_backend_tcp::TcpBackend>) {
    let opts = OffloadOptions {
        recovery: Some(RecoveryPolicy::replay_only(budget)),
        ..OffloadOptions::default()
    };
    tcp_cluster(active, reserve, opts, cluster_reg)
}

fn cluster_reg(b: &mut ham::RegistryBuilder) {
    b.register::<scenario_probe>();
}

/// Canonical per-run record for the add-target replay comparison:
/// everything about the churn timeline that must be deterministic.
#[derive(Debug, PartialEq)]
struct ChurnRun {
    /// `(node, fresh)` from the joiner's discovery announce.
    announce: (u16, bool),
    /// Placement sequence across the whole run (pre- and post-join).
    placements: Vec<u16>,
    /// `(x, served_by)` for every offload, sorted by `x`.
    outcomes: Vec<(u64, u16)>,
    healthy: Vec<u16>,
}

/// One add-target-mid-flight run: a 3-target cluster with one vacant
/// reserve slot, a seeded number of offloads already in flight, then
/// the PR 8 discovery handshake activates the reserve slot and the
/// pool admits it — the joiner starts serving the remainder of the
/// run, every offload completes with a correct result, and the vacant
/// slot was never placeable before its handshake ran.
fn add_target_mid_flight_once(seed: u64) -> ChurnRun {
    let (o, be) = cluster(&[TargetSpec::default(); 3], &[TargetSpec::default()], 4);
    let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
    let joiner = NodeId(4);
    let label = format!("churn add seed {seed}");

    // A vacant reserve slot is not a target yet: the pool refuses it.
    assert!(!be.is_joined(joiner), "{label}: reserve slot joined early");
    assert!(
        pool.add_target(joiner).is_err(),
        "{label}: admitted a slot whose handshake never ran"
    );

    let join_at = 4 + (seed % 8) as usize;
    let total = 2 * WAVE;
    let mut xs = Vec::new();
    let mut futs = Vec::new();
    let mut placements = Vec::new();
    for i in 0..join_at {
        let x = seed * 1000 + i as u64;
        let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
        placements.push(f.target().0);
        xs.push(x);
        futs.push(f);
    }
    // Mid-flight join: discovery handshake on the vacant slot, then
    // pool admission. Both are idempotence-checked.
    let announce = be
        .join_target(joiner)
        .unwrap_or_else(|e| panic!("{label}: join failed: {e}"));
    assert_eq!(announce.node, joiner.0, "{label}: announce names the slot");
    assert!(
        announce.watermark.is_none(),
        "{label}: a fresh joiner has no replay watermark"
    );
    assert!(be.join_target(joiner).is_err(), "{label}: double join");
    assert!(
        pool.add_target(joiner).expect("admit joiner"),
        "{label}: roster must grow"
    );
    assert!(
        !pool.add_target(joiner).expect("re-admit joiner"),
        "{label}: re-admitting a member is a no-op"
    );
    for i in join_at..total {
        let x = seed * 1000 + i as u64;
        let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
        placements.push(f.target().0);
        xs.push(x);
        futs.push(f);
    }
    assert!(
        placements[..join_at].iter().all(|&p| p != joiner.0),
        "{label}: placed on the joiner before it joined: {placements:?}"
    );
    assert!(
        placements[join_at..].contains(&joiner.0),
        "{label}: the joiner never served work: {placements:?}"
    );

    let mut outcomes = Vec::new();
    while !futs.is_empty() {
        let i = pool.wait_any(&mut futs).expect("futures pending");
        let x = xs.swap_remove(i);
        let f = futs.swap_remove(i);
        let t = f.target().0;
        let v = pool
            .get(f)
            .unwrap_or_else(|e| panic!("{label}: offload x={x} lost: {e}"));
        assert_eq!(v, probe_expected(x, t), "{label}: value/target mismatch");
        outcomes.push((x, t));
    }
    outcomes.sort_unstable();
    let healthy: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
    assert_eq!(healthy, vec![1, 2, 3, 4], "{label}: joiner pooled");
    assert_eq!(
        o.metrics_snapshot().member_joins,
        1,
        "{label}: join counter"
    );
    for n in 1..=4u16 {
        assert_eq!(
            o.in_flight(NodeId(n)).unwrap_or(0),
            0,
            "{label}: leak on t{n}"
        );
    }
    o.shutdown();
    ChurnRun {
        announce: (announce.node, announce.watermark.is_none()),
        placements,
        outcomes,
        healthy,
    }
}

/// Add-target-mid-flight matrix: the full seed set, each run twice —
/// the churn timeline (join point, placements, outcomes, roster) must
/// replay bit-identically.
#[test]
fn membership_add_target_mid_flight_matrix() {
    let deadline = Instant::now() + Duration::from_secs(240);
    for seed in SEEDS {
        let a = add_target_mid_flight_once(seed);
        let b = add_target_mid_flight_once(seed);
        assert_eq!(a, b, "seed {seed}: membership churn timeline replays");
        assert!(
            Instant::now() < deadline,
            "in-test deadline exceeded at seed {seed}"
        );
    }
}

/// Retiring a member with staged work: `remove_target` reclaims the
/// provably-unsent members from the victim's batch accumulator (the
/// same staged-tail migration `rebalance` uses), the pool replays
/// exactly those members on survivors, and the victim — alive, just
/// retired — stops receiving placements. Exactly-once throughout:
/// every offload completes once with a correct result, nothing leaks.
#[test]
fn membership_remove_target_reclaims_staged_work() {
    for seed in SEEDS {
        let o = spawn_batched(BackendKind::Tcp, FaultPlan::none(), cluster_reg);
        let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
        let pool = o.pool_with(&nodes, SchedPolicy::LeastLoaded).expect("pool");
        let victim = NodeId(1 + (seed % TARGETS as u64) as u16);
        let label = format!("churn remove seed {seed}");

        // One staged wave, 4 members per target (watermark 64: nothing
        // on the wire). Staged members count toward in-flight, so
        // LeastLoaded is deterministic here.
        let mut xs = Vec::new();
        let mut futs = Vec::new();
        for i in 0..WAVE {
            let x = seed * 1000 + i as u64;
            let f = pool.submit(f2f!(scenario_probe, x)).expect("submit");
            xs.push((x, f.target().0));
            futs.push(f);
        }
        let staged = WAVE / TARGETS as usize;
        let reclaimed = pool.remove_target(victim).expect("remove_target");
        assert_eq!(
            reclaimed, staged,
            "{label}: the victim's staged members are reclaimed"
        );
        assert!(
            matches!(pool.remove_target(victim), Err(OffloadError::BadNode(_))),
            "{label}: double remove must surface BadNode"
        );
        let healthy: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
        assert!(!healthy.contains(&victim.0), "{label}: victim still pooled");
        assert_eq!(healthy.len(), TARGETS as usize - 1, "{label}");

        // Collect everything: exactly the reclaimed members fail over,
        // and none lands back on the retiree.
        let mut resubmitted = 0;
        while !futs.is_empty() {
            let i = pool.wait_any(&mut futs).expect("futures pending");
            let (x, placed) = xs.swap_remove(i);
            let f = futs.swap_remove(i);
            let t = f.target().0;
            if f.resubmits() > 0 {
                resubmitted += 1;
                assert_eq!(placed, victim.0, "{label}: survivor member migrated");
                assert_ne!(t, victim.0, "{label}: migrated back onto the retiree");
            }
            let v = pool
                .get(f)
                .unwrap_or_else(|e| panic!("{label}: offload x={x} lost: {e}"));
            assert_eq!(v, probe_expected(x, t), "{label}: value/target mismatch");
        }
        assert_eq!(
            resubmitted, staged,
            "{label}: exactly the reclaimed members fail over"
        );

        // The pool keeps serving on the survivors only.
        let (placements, wave) = run_wave(&pool, seed * 1000 + 500);
        assert!(
            placements.iter().all(|&p| p != victim.0),
            "{label}: placed on the retiree: {placements:?}"
        );
        for (x, t, r) in wave {
            assert_eq!(
                r.expect("post-removal wave"),
                probe_expected(x, t),
                "{label}"
            );
        }
        assert_eq!(
            o.metrics_snapshot().member_leaves,
            1,
            "{label}: leave counter"
        );
        for &n in &nodes {
            assert_eq!(o.in_flight(n).unwrap_or(0), 0, "{label}: leak on t{}", n.0);
        }
        o.shutdown();
    }
}

/// A flapping target under seeded disconnects: the background prober
/// records `ProbeMiss` streaks while the link is blacked out, placement
/// deprioritizes the flapper *before* it exhausts its reconnect budget,
/// and once the blackout lifts the prober drives the `Degraded → healed`
/// edge — the flapper rejoins the rotation without any caller touching
/// the channel.
#[test]
fn flapping_target_probed_deprioritized_then_heals() {
    for seed in [3u64, 13, 42] {
        let (o, be) = cluster(&[TargetSpec::default(); 2], &[], 200);
        let nodes = [NodeId(1), NodeId(2)];
        let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
        let victim = nodes[(seed % 2) as usize];
        let survivor = nodes[1 - (seed % 2) as usize];
        let label = format!("churn flap seed {seed}");
        pool.start_prober();

        // Flap: kill the sockets behind a reconnect blackout. The
        // supervisor burns budgeted attempts against the wall while the
        // prober racks up misses.
        be.block_reconnect(victim, true).expect("block");
        o.kill_target(victim).expect("kill");
        assert!(
            wait_until(Duration::from_secs(30), || {
                let snap = be.metrics().snapshot();
                snap.probe_misses >= 2
                    && be.metrics().health().state(victim.0) == Some(TargetState::Degraded)
            }),
            "{label}: prober never recorded the flapper's misses"
        );

        // Placement avoids the flapper while its miss streak stands —
        // it is still pooled (not evicted), just deprioritized.
        let (placements, wave) = run_wave(&pool, seed * 1000);
        assert!(
            placements.iter().all(|&p| p == survivor.0),
            "{label}: placed on the flapper mid-blackout: {placements:?}"
        );
        for (x, t, r) in wave {
            assert_eq!(r.expect("blackout wave"), probe_expected(x, t), "{label}");
        }
        let healthy: Vec<u16> = pool.healthy().iter().map(|n| n.0).collect();
        assert!(
            healthy.contains(&victim.0),
            "{label}: flapper evicted instead of deprioritized"
        );

        // Heal: lift the blackout. The supervisor reconnects within its
        // budget, the prober's next answered round clears the streak and
        // flips the health registry back — no caller-side poll.
        be.block_reconnect(victim, false).expect("unblock");
        assert!(
            wait_until(Duration::from_secs(30), || {
                be.metrics().health().state(victim.0) == Some(TargetState::Healthy)
            }),
            "{label}: flapper never healed after the blackout lifted"
        );
        assert!(
            wait_until(Duration::from_secs(30), || {
                pool.submit(f2f!(scenario_probe, 7777))
                    .is_ok_and(|f| f.target() == victim && pool.get(f).is_ok())
            }),
            "{label}: the healed flapper never rejoined the rotation"
        );
        let rounds = pool.stop_prober().expect("prober was running");
        assert!(rounds >= 1, "{label}: prober ran no rounds");
        let snap = be.metrics().snapshot();
        assert!(snap.probes >= 1, "{label}: no answered probes recorded");
        assert!(snap.probe_misses >= 2, "{label}: no misses recorded");
        for &n in &nodes {
            assert_eq!(o.in_flight(n).unwrap_or(0), 0, "{label}: leak on t{}", n.0);
        }
        o.shutdown();
    }
}

/// End-to-end pin for the all-degraded placement livelock, phase 1:
/// a **permanent** outage. Every pooled target's link is blacked out
/// with a tight reconnect budget and tiny credit limits, and `submit`
/// is called until the credits are gone — the next call lands in the
/// blocking `pick` loop that used to spin forever. It must exit with
/// a bounded error instead ([`OffloadError::Timeout`] when the budget
/// outlasts the wait, or the pool-empty error once the supervisors
/// give up and evict — the deterministic `Timeout` split is pinned at
/// the unit level in `sched::pool`). Every parked future resolves.
#[test]
fn all_degraded_cluster_submit_is_bounded_under_permanent_outage() {
    let deadline = Instant::now() + Duration::from_secs(60);
    let spec = TargetSpec {
        credit_limit: 2,
        ..TargetSpec::default()
    };
    let (o, be) = cluster(&[spec; 2], &[], 4);
    let nodes = [NodeId(1), NodeId(2)];
    let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");
    for &n in &nodes {
        be.block_reconnect(n, true).expect("block");
        o.kill_target(n).expect("kill");
    }
    assert!(
        wait_until(Duration::from_secs(30), || {
            nodes.iter().all(|n| {
                matches!(
                    be.metrics().health().state(n.0),
                    Some(TargetState::Degraded | TargetState::Evicted)
                )
            })
        }),
        "both links must degrade"
    );

    // A submit racing the degrade can still reserve and park (its send
    // fails, recovery holds it for replay); once the channels are
    // degraded they refuse reservations, so the submit blocks in `pick`
    // with every target degraded — the livelock regression — and must
    // error out instead of spinning.
    let mut parked = Vec::new();
    let err = loop {
        match pool.submit(f2f!(scenario_probe, parked.len() as u64)) {
            Ok(f) => parked.push(f),
            Err(e) => break e,
        }
        assert!(
            Instant::now() < deadline,
            "submit never surfaced the outage"
        );
    };
    assert!(
        matches!(
            err,
            OffloadError::Timeout | OffloadError::TargetLost(_) | OffloadError::Backend(_)
        ),
        "unexpected all-degraded error: {err}"
    );
    assert!(Instant::now() < deadline, "in-test deadline exceeded");

    // Nothing hangs on collection either: the parked work fails loudly
    // once its target is evicted (a last-gasp completion is fine).
    for r in pool.wait_all(parked) {
        if let Err(e) = r {
            assert!(
                matches!(e, OffloadError::TargetLost(_) | OffloadError::Backend(_)),
                "parked future surfaced {e}"
            );
        }
    }
    for &n in &nodes {
        assert_eq!(o.in_flight(n).unwrap_or(0), 0, "leak on t{}", n.0);
    }
    o.shutdown();
}

/// Phase 2 of the livelock pin: a **transient** outage. A degraded
/// channel refuses new reservations (`Reserve::Full`), so a submit
/// issued while every link is down blocks in `pick`'s bounded
/// all-degraded stall; when the blackout lifts mid-wait, the link
/// supervisors resume the sessions and the blocked submit proceeds to
/// placement and completion — no caller ever touched the channel, and
/// the health registry flips back to `Healthy` on its own.
#[test]
fn all_degraded_cluster_heals_and_unblocks_placement() {
    let (o, be) = cluster(&[TargetSpec::default(); 2], &[], 200);
    let nodes = [NodeId(1), NodeId(2)];
    let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");

    // Sanity: the pool serves before the outage.
    let f = pool.submit(f2f!(scenario_probe, 1000)).expect("submit");
    let t = f.target().0;
    assert_eq!(pool.get(f).expect("pre-outage"), probe_expected(1000, t));

    for &n in &nodes {
        be.block_reconnect(n, true).expect("block");
        o.kill_target(n).expect("kill");
    }
    assert!(
        wait_until(Duration::from_secs(30), || {
            nodes
                .iter()
                .all(|n| be.metrics().health().state(n.0) == Some(TargetState::Degraded))
        }),
        "both links must degrade"
    );

    // Lift the blackout from a helper thread while the submit below is
    // blocked in `pick` with every target degraded. The 150 ms window
    // burns ~10 of the 200 budgeted reconnect attempts (500 µs backoff
    // doubling to a 20 ms cap), so the supervisors are still retrying
    // when the listeners return.
    let unblock = {
        let be = Arc::clone(&be);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            for n in [NodeId(1), NodeId(2)] {
                be.block_reconnect(n, false).expect("unblock");
            }
        })
    };
    let f = pool
        .submit(f2f!(scenario_probe, 4))
        .expect("submit across the heal");
    let t = f.target().0;
    assert_eq!(
        pool.get(f).expect("post-heal submit completes"),
        probe_expected(4, t)
    );
    unblock.join().expect("unblock thread");
    assert!(
        wait_until(Duration::from_secs(30), || {
            nodes
                .iter()
                .all(|n| be.metrics().health().state(n.0) == Some(TargetState::Healthy))
        }),
        "links must heal once the blackout lifts"
    );
    assert!(
        be.metrics().snapshot().reconnects >= 2,
        "both sessions must resume"
    );
    for &n in &nodes {
        assert_eq!(o.in_flight(n).unwrap_or(0), 0, "leak on t{}", n.0);
    }
    o.shutdown();
}
