//! Determinism of the always-on observability layer.
//!
//! Two runs of the same serial scenario (same seed, same kill) must
//! produce bit-identical latency histogram buckets and the same health
//! event sequence. Serial `sync` offloads advance virtual time
//! deterministically (see `trace_and_determinism.rs`), so the
//! completion latencies — and therefore every log₂ bucket count — are
//! a pure function of the scenario. Health events are compared as
//! `(node, kind)` sequences: correlation ids draw from a process-global
//! counter and event timestamps can shift with wall-clock-raced polls,
//! so neither is part of the determinism contract.

use aurora_workloads::kernels::{compute_burn, whoami};
use ham::f2f;
use ham_aurora_repro::{offload_with, BackendKind, BatchConfig, FaultPlan, NodeId, OffloadOptions};

struct Observed {
    aggregate: Vec<u64>,
    per_node: Vec<(u16, Vec<u64>)>,
    events: Vec<(u16, &'static str)>,
}

fn run() -> Observed {
    let plan = FaultPlan::builder(42).build(); // seeded, zero-rate: kills only
    let opts = OffloadOptions {
        plan,
        ..OffloadOptions::default()
    };
    let o = offload_with(BackendKind::Dma, 2, opts, aurora_workloads::register_all);

    // Warm both targets, then a fixed serial workload.
    for _ in 0..3 {
        for n in 1..=2u16 {
            o.sync(NodeId(n), f2f!(whoami)).unwrap();
        }
    }
    for i in 0..20u16 {
        o.sync(NodeId(1 + i % 2), f2f!(whoami)).unwrap();
    }

    // Kill target 2 and ride an offload into the eviction so the
    // Eviction event is on the books before we snapshot.
    o.kill_target(NodeId(2)).unwrap();
    while o
        .backend()
        .channel(NodeId(2))
        .expect("channel")
        .eviction()
        .is_none()
    {
        let _ = o.sync(NodeId(2), f2f!(whoami));
    }
    // Survivor keeps serving.
    for _ in 0..5 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }

    let snap = o.metrics_snapshot();
    let observed = Observed {
        aggregate: snap.latency_hist.buckets().to_vec(),
        per_node: snap
            .per_node
            .iter()
            .map(|n| (n.node, n.latency_hist.buckets().to_vec()))
            .collect(),
        events: o
            .backend()
            .metrics()
            .health()
            .events()
            .iter()
            .map(|e| (e.node, e.kind.name()))
            .collect(),
    };
    o.shutdown();
    observed
}

#[test]
fn histograms_and_event_log_replay_bit_identically() {
    let a = run();
    let b = run();
    assert_eq!(
        a.aggregate, b.aggregate,
        "aggregate latency buckets must replay"
    );
    assert_eq!(a.per_node, b.per_node, "per-target buckets must replay");
    assert_eq!(a.events, b.events, "health event sequence must replay");

    // And the scenario actually exercised the layer: completions were
    // recorded on both targets, and the kill shows up as an injected
    // fault followed (eventually) by the eviction.
    assert!(a.aggregate.iter().sum::<u64>() >= 31);
    assert_eq!(a.per_node.len(), 2);
    assert!(
        a.events.contains(&(2, "fault_injected")) && a.events.contains(&(2, "eviction")),
        "events: {:?}",
        a.events
    );
}

/// The lane scheduler must replay too. All offloads go to *one* target
/// and arrive at the device as a single carrier message, so the whole
/// member set is lane-scheduled in one window and published behind one
/// completion barrier — per-lane placement, the steal count and the
/// completion timeline are a pure function of the envelope. (With two
/// targets the host's wait loop can settle one target's members a
/// sweep round before the other's, a wall-clock race that shifts the
/// host-clock join each latency is measured against.)
#[test]
fn lane_schedule_and_steals_replay_bit_identically() {
    struct LaneObserved {
        buckets: Vec<u64>,
        lanes: Vec<(u16, u64, u64)>,
        steals: u64,
        events: Vec<(u16, &'static str)>,
    }

    fn run() -> LaneObserved {
        let opts = OffloadOptions {
            batch: BatchConfig::up_to(32),
            ..OffloadOptions::default()
        };
        let o = offload_with(BackendKind::Dma, 1, opts, aurora_workloads::register_all);
        // Twenty-four members: more work items than the eight default
        // lanes. The first two members are an order of magnitude
        // heavier, so the light members queued behind them on the same
        // lanes must be stolen by idle peers.
        let futs: Vec<_> = (0..24u16)
            .map(|i| {
                let flops = if i < 2 { 5_000_000u64 } else { 200_000 };
                o.async_(NodeId(1), f2f!(compute_burn, flops)).unwrap()
            })
            .collect();
        for r in o.wait_all(futs) {
            r.unwrap();
        }
        let snap = o.metrics_snapshot();
        let observed = LaneObserved {
            buckets: snap.latency_hist.buckets().to_vec(),
            lanes: snap
                .lanes
                .iter()
                .map(|l| (l.lane, l.tasks, l.busy_ps))
                .collect(),
            steals: snap.steals,
            events: o
                .backend()
                .metrics()
                .health()
                .events()
                .iter()
                .map(|e| (e.node, e.kind.name()))
                .collect(),
        };
        o.shutdown();
        observed
    }

    let a = run();
    let b = run();
    assert_eq!(a.buckets, b.buckets, "completion timeline must replay");
    assert_eq!(a.lanes, b.lanes, "per-lane placement must replay");
    assert_eq!(a.steals, b.steals, "steal count must replay");
    assert_eq!(a.events, b.events, "health event sequence must replay");

    // And the scenario exercised the runtime: every member executed on
    // a lane, the work spread beyond one lane, and something stole.
    assert_eq!(a.lanes.iter().map(|(_, t, _)| t).sum::<u64>(), 24);
    assert!(a.lanes.len() > 1, "lanes: {:?}", a.lanes);
    assert!(a.steals > 0, "a 24-member carrier on 8 lanes must steal");
}
