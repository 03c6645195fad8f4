//! Soak gate: sustained pooled offloads under rolling faults, checked
//! against an [`SloSpec`].
//!
//! Drives waves of asynchronous offloads through a [`TargetPool`] on
//! each requested backend while a seeded fault plan drops frames and a
//! rolling kill takes one target down mid-run. After every run the
//! backend's metric registers (always on — the same per-target
//! histograms the pool's rebalancing reads) and the health event log
//! are evaluated against the SLO spec; any violation makes the process
//! exit nonzero, so CI can use this binary as a gate.
//!
//! ```sh
//! cargo run --release --example soak                 # full: ≥10⁵ offloads
//! cargo run --release --example soak -- --offloads 10000 --backends dma --seeds 7
//! ```

use ham::f2f;
use ham_aurora_repro::fault_scenario::{probe_expected, scenario_probe, BackendKind};
use ham_aurora_repro::sim_core::SimTime;
use ham_aurora_repro::{
    offload_with, tcp_cluster, BatchConfig, FaultPlan, NodeId, Offload, OffloadError,
    OffloadOptions, PoolFuture, RecoveryPolicy, SchedPolicy, SloSpec, TargetPool, TargetSpec,
};

/// Targets per pool; one is killed mid-run, so survivors keep serving.
const TARGETS: u16 = 4;
/// Offloads posted per target per wave. Deliberately not a multiple of
/// the TCP batch watermark, so the kill always catches a partial batch
/// still staged on the victim — the failover path the SLO's
/// `max_failover_ps` objective measures.
const PER_TARGET_PER_WAVE: usize = 30;
/// TCP batch watermark (see above).
const TCP_BATCH: usize = 8;

/// The SLO each backend must hold. The polled DMA protocol and TCP
/// complete in tens of µs of virtual time even 8 deep; the VEO
/// protocol's per-call overhead (~ms, paper §III) plus credit-depth
/// queueing puts its median around 20 ms, so its spec scales
/// accordingly — still tight enough to catch retry storms or a wedged
/// target.
fn spec_for(kind: BackendKind) -> SloSpec {
    match kind {
        BackendKind::Veo => SloSpec {
            p50_completion_ps: SimTime::from_ms(50).as_ps(),
            p99_completion_ps: SimTime::from_ms(200).as_ps(),
            ..Default::default()
        },
        _ => SloSpec::default(),
    }
}

struct Config {
    /// Offloads per (backend, seed) run.
    offloads: usize,
    backends: Vec<BackendKind>,
    seeds: Vec<u64>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        // 3 backends × 1 seed × 35 000 ≥ the 10⁵ the gate promises.
        offloads: 35_000,
        backends: vec![BackendKind::Veo, BackendKind::Dma, BackendKind::Tcp],
        seeds: vec![7],
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--offloads" => cfg.offloads = val("--offloads").parse().expect("--offloads"),
            "--backends" => {
                cfg.backends = val("--backends")
                    .split(',')
                    .map(|s| match s {
                        "veo" => BackendKind::Veo,
                        "dma" => BackendKind::Dma,
                        "tcp" => BackendKind::Tcp,
                        other => panic!("unknown backend {other:?}"),
                    })
                    .collect();
            }
            "--seeds" => {
                cfg.seeds = val("--seeds")
                    .split(',')
                    .map(|s| s.parse().expect("--seeds"))
                    .collect();
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    cfg
}

fn spawn(kind: BackendKind, seed: u64) -> Offload {
    let reg = |b: &mut ham::RegistryBuilder| {
        b.register::<scenario_probe>();
    };
    let opts = match kind {
        // TCP is a push transport: a dropped frame would hang, so it
        // soaks the other fault axis — staged batches killed mid-run
        // fail over to survivors (recording `Failover` health events).
        BackendKind::Tcp => OffloadOptions {
            batch: BatchConfig::up_to(TCP_BATCH),
            ..OffloadOptions::default()
        },
        // Low-rate link faults for the polled protocols, absorbed by
        // the retry policy; eviction needs retries exhausted, which at
        // this rate never happens — the rolling kill provides the
        // eviction.
        _ => OffloadOptions {
            plan: FaultPlan::builder(seed).tlp_drop(0.002).build(),
            recovery: Some(RecoveryPolicy {
                retry_after_misses: 64,
                max_retries: 4,
            }),
            ..OffloadOptions::default()
        },
    };
    offload_with(kind, TARGETS, opts, reg)
}

/// One line per pool member — health state, completions and the
/// completion-latency p50/p99 of its register (virtual time) — then
/// the size of the backend's health event log.
fn print_targets(o: &Offload, pool: &TargetPool) {
    let health = o.backend().metrics().health();
    let snap = pool.metrics_snapshot();
    for t in pool.targets() {
        let state = health.state(t.0).map_or("-", |s| s.name());
        let reg = snap.targets.iter().find(|n| n.node == t.0);
        let pct = |p| {
            reg.and_then(|n| n.latency_hist.percentile(p))
                .map_or("-".to_string(), |t| t.to_string())
        };
        println!(
            "node {}  {state}  completions {}  p50 {}  p99 {}",
            t.0,
            reg.map_or(0, |n| n.completions),
            pct(50.0),
            pct(99.0),
        );
    }
    println!("events: {}", health.events().len());
}

struct RunStats {
    ok: usize,
    lost: usize,
    refused: usize,
    failed: usize,
}

/// One (backend, seed) soak run. Returns `(stats, violations)`.
fn soak_run(kind: BackendKind, seed: u64, offloads: usize) -> (RunStats, usize) {
    let spec = spec_for(kind);
    let o = spawn(kind, seed);
    let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
    // TCP's receiver threads retire completions concurrently, which
    // would race load-based placement; the polled protocols exercise
    // the default least-loaded policy.
    let policy = match kind {
        BackendKind::Tcp => SchedPolicy::RoundRobin,
        _ => SchedPolicy::LeastLoaded,
    };
    let pool = o.pool_with(&nodes, policy).expect("pool");

    let wave_size = TARGETS as usize * PER_TARGET_PER_WAVE;
    let waves = offloads.div_ceil(wave_size);
    // Rolling kill: one target dies while an early-third wave is in
    // flight; which one rolls with the seed.
    let kill_wave = waves / 3;
    let victim = NodeId(1 + (seed % TARGETS as u64) as u16);

    let mut stats = RunStats {
        ok: 0,
        lost: 0,
        refused: 0,
        failed: 0,
    };
    let mut posted = 0usize;
    for wave in 0..waves {
        let mut futs: Vec<PoolFuture<u64>> = Vec::new();
        for i in 0..wave_size.min(offloads - posted) {
            let x = (wave * wave_size + i) as u64;
            match pool.submit(f2f!(scenario_probe, x)) {
                Ok(f) => futs.push(f),
                Err(_) => stats.refused += 1,
            }
            posted += 1;
        }
        if wave == kill_wave {
            o.kill_target(victim).expect("kill_target");
        }
        for r in pool.wait_all(futs) {
            match r {
                Ok(_) => stats.ok += 1,
                Err(OffloadError::TargetLost(_)) => stats.lost += 1,
                Err(_) => stats.failed += 1,
            }
        }
    }
    // Spot-check correctness on the survivors: a soak that "passes"
    // while returning garbage is worse than one that fails.
    for (i, &n) in pool.healthy().iter().enumerate() {
        let x = 0xC0FFEE + i as u64;
        let f = pool.submit_to(n, f2f!(scenario_probe, x)).expect("probe");
        assert_eq!(pool.get(f).expect("probe result"), probe_expected(x, n.0));
        stats.ok += 1;
        posted += 1;
    }

    let leaked: usize = nodes.iter().map(|&n| o.in_flight(n).unwrap_or(0)).sum();
    let snap = o.metrics_snapshot();
    let events = o.backend().metrics().health().events();
    let report = spec.evaluate(&snap, &events, leaked);

    println!(
        "## {} seed {seed}: {} offloads ({} ok, {} lost, {} refused, {} failed)",
        kind.name(),
        posted,
        stats.ok,
        stats.lost,
        stats.refused,
        stats.failed
    );
    print_targets(&o, &pool);
    print!("{}", report.render());
    println!();

    let violations = report.violations.len();
    o.shutdown();
    (stats, violations)
}

/// Cluster options of both TCP churn runs: a reconnect budget of 64 per
/// disconnect, kills recorded under `seed`.
fn churn_options(seed: u64) -> OffloadOptions {
    OffloadOptions {
        plan: FaultPlan::builder(seed).build(),
        recovery: Some(RecoveryPolicy::replay_only(64)),
        ..OffloadOptions::default()
    }
}

/// TCP disconnect/reconnect churn: a cluster pool where the victim is
/// repeatedly killed mid-wave and *reconnects* instead of being lost —
/// the session-resume path under sustained load. Gated by the same
/// [`SloSpec`] (plus: reconnects must actually be recorded, and every
/// churn wave must drain without leaking pending entries).
fn tcp_churn_run(seed: u64, offloads: usize) -> (RunStats, usize) {
    let spec = SloSpec::default();
    let specs = vec![
        TargetSpec {
            credit_limit: 64,
            ..TargetSpec::default()
        };
        TARGETS as usize
    ];
    let (o, _be) = tcp_cluster(&specs, &[], churn_options(seed), |b| {
        b.register::<scenario_probe>();
    });
    let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
    let pool = o.pool_with(&nodes, SchedPolicy::RoundRobin).expect("pool");

    let wave_size = TARGETS as usize * PER_TARGET_PER_WAVE;
    let waves = offloads.div_ceil(wave_size).max(4);
    // Churn: a rotating victim dies every few waves and its link
    // supervisor brings it back; no wave may strand work.
    let churn_every = (waves / 4).max(1);

    let mut stats = RunStats {
        ok: 0,
        lost: 0,
        refused: 0,
        failed: 0,
    };
    let mut posted = 0usize;
    for wave in 0..waves {
        let mut futs: Vec<PoolFuture<u64>> = Vec::new();
        for i in 0..wave_size.min(offloads.saturating_sub(posted)).max(1) {
            let x = (wave * wave_size + i) as u64;
            match pool.submit(f2f!(scenario_probe, x)) {
                Ok(f) => futs.push(f),
                Err(_) => stats.refused += 1,
            }
            posted += 1;
        }
        if wave % churn_every == churn_every - 1 {
            let victim = NodeId(1 + ((seed + wave as u64) % TARGETS as u64) as u16);
            let _ = o.kill_target(victim);
        }
        for r in pool.wait_all(futs) {
            match r {
                Ok(_) => stats.ok += 1,
                Err(OffloadError::TargetLost(_)) => stats.lost += 1,
                Err(_) => stats.failed += 1,
            }
        }
    }

    let leaked: usize = nodes.iter().map(|&n| o.in_flight(n).unwrap_or(0)).sum();
    let snap = o.metrics_snapshot();
    let events = o.backend().metrics().health().events();
    let mut report = spec.evaluate(&snap, &events, leaked);
    if snap.reconnects == 0 {
        report
            .violations
            .push("churn phase recorded no reconnects".into());
    }

    println!(
        "## tcp-churn seed {seed}: {posted} offloads ({} ok, {} lost, {} refused, {} failed), \
         {} reconnects / {} attempts, {} replayed frames",
        stats.ok,
        stats.lost,
        stats.refused,
        stats.failed,
        snap.reconnects,
        snap.reconnect_attempts,
        snap.replayed_frames,
    );
    print_targets(&o, &pool);
    print!("{}", report.render());
    println!();

    let violations = report.violations.len();
    o.shutdown();
    (stats, violations)
}

/// Membership churn: a cluster pool that grows and shrinks under load
/// while the background prober sweeps it. A reserve target joins
/// mid-run through the discovery handshake and starts serving; members
/// are then retired (their staged work is reclaimed and fails over)
/// and re-admitted on a rolling schedule. Gated by the same [`SloSpec`]
/// plus: the join must be recorded, the prober must have answered
/// rounds, and no wave may strand work.
fn membership_churn_run(seed: u64, offloads: usize) -> (RunStats, usize) {
    let spec = SloSpec::default();
    let spec_t = TargetSpec {
        credit_limit: 64,
        ..TargetSpec::default()
    };
    let active = vec![spec_t; TARGETS as usize - 1];
    let (o, be) = tcp_cluster(&active, &[spec_t], churn_options(seed), |b| {
        b.register::<scenario_probe>();
    });
    let nodes: Vec<NodeId> = (1..=TARGETS).map(NodeId).collect();
    let pool = o
        .pool_with(&nodes[..TARGETS as usize - 1], SchedPolicy::RoundRobin)
        .expect("pool");
    pool.start_prober();
    let joiner = NodeId(TARGETS);

    let wave_size = TARGETS as usize * PER_TARGET_PER_WAVE;
    let waves = offloads.div_ceil(wave_size).max(6);
    let join_wave = waves / 3;
    let churn_every = (waves / 4).max(2);

    let mut stats = RunStats {
        ok: 0,
        lost: 0,
        refused: 0,
        failed: 0,
    };
    let mut posted = 0usize;
    let mut retired: Option<NodeId> = None;
    for wave in 0..waves {
        let mut futs: Vec<PoolFuture<u64>> = Vec::new();
        for i in 0..wave_size.min(offloads.saturating_sub(posted)).max(1) {
            let x = (wave * wave_size + i) as u64;
            match pool.submit(f2f!(scenario_probe, x)) {
                Ok(f) => futs.push(f),
                Err(_) => stats.refused += 1,
            }
            posted += 1;
        }
        if wave == join_wave {
            // The reserve slot runs its discovery handshake and is
            // admitted mid-wave: work already in flight is untouched,
            // the joiner serves from the next placement on.
            be.join_target(joiner).expect("join_target");
            pool.add_target(joiner).expect("add_target");
        }
        if let Some(n) = retired.take() {
            // Re-admit last wave's retiree: it is alive (retirement
            // drains, it does not kill), so admission is immediate.
            let _ = pool.add_target(n);
        } else if wave > join_wave && wave % churn_every == 0 && pool.len() > 2 {
            // Retire a rotating member mid-wave: its staged members are
            // reclaimed (provably unsent) and fail over to the rest.
            let n = NodeId(1 + ((seed + wave as u64) % TARGETS as u64) as u16);
            if pool.remove_target(n).is_ok() {
                retired = Some(n);
            }
        }
        for r in pool.wait_all(futs) {
            match r {
                Ok(_) => stats.ok += 1,
                Err(OffloadError::TargetLost(_)) => stats.lost += 1,
                Err(_) => stats.failed += 1,
            }
        }
    }
    let rounds = pool.stop_prober().unwrap_or(0);

    let leaked: usize = nodes.iter().map(|&n| o.in_flight(n).unwrap_or(0)).sum();
    let snap = o.metrics_snapshot();
    let events = o.backend().metrics().health().events();
    let mut report = spec.evaluate(&snap, &events, leaked);
    if snap.member_joins == 0 {
        report
            .violations
            .push("membership phase recorded no joins".into());
    }
    if snap.probes == 0 || rounds == 0 {
        report
            .violations
            .push("membership phase recorded no answered probe rounds".into());
    }

    println!(
        "## membership-churn seed {seed}: {posted} offloads ({} ok, {} lost, {} refused, \
         {} failed), {} joins / {} leaves, {} probe rounds ({} ok / {} miss)",
        stats.ok,
        stats.lost,
        stats.refused,
        stats.failed,
        snap.member_joins,
        snap.member_leaves,
        rounds,
        snap.probes,
        snap.probe_misses,
    );
    print_targets(&o, &pool);
    print!("{}", report.render());
    println!();

    let violations = report.violations.len();
    o.shutdown();
    (stats, violations)
}

fn main() {
    // A killed VE process exits by panicking with "fault injection:
    // VE process N killed" when reaped at shutdown — that panic is the
    // modeled kill, not a bug; keep it out of the soak output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault injection:"));
        if !expected {
            default_hook(info);
        }
    }));

    let cfg = parse_args();
    let mut total = 0usize;
    let mut total_violations = 0usize;
    for &kind in &cfg.backends {
        for &seed in &cfg.seeds {
            let (stats, violations) = soak_run(kind, seed, cfg.offloads);
            total += stats.ok + stats.lost + stats.refused + stats.failed;
            total_violations += violations;
        }
    }
    // The cluster-TCP churn phases ride along whenever TCP is soaked:
    // disconnect/reconnect churn, then membership churn with the
    // background prober running.
    if cfg.backends.contains(&BackendKind::Tcp) {
        for &seed in &cfg.seeds {
            let (stats, violations) = tcp_churn_run(seed, cfg.offloads / 4);
            total += stats.ok + stats.lost + stats.refused + stats.failed;
            total_violations += violations;
        }
        for &seed in &cfg.seeds {
            let (stats, violations) = membership_churn_run(seed, cfg.offloads / 4);
            total += stats.ok + stats.lost + stats.refused + stats.failed;
            total_violations += violations;
        }
    }
    println!("soak: {total} offloads, {total_violations} SLO violations");
    if total_violations > 0 {
        std::process::exit(1);
    }
}
