//! Observability and determinism guarantees of the simulation.

use aurora_sim_core::{calib, SimTime};
use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_aurora_repro::{dma_offload, NodeId};
use ham_backend_dma::DmaBackend;
use ham_backend_veo::{ProtocolConfig, VeoBackend};
use ham_offload::Offload;
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

fn machine() -> Arc<AuroraMachine> {
    AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        },
    )
}

// These used to be one monolithic test: tracing was a process-global
// toggle, so a concurrently running offload would pollute the capture.
// Now the `TraceSession` guard serializes sessions and every span carries
// its offload's correlation id, so the traced test filters to its own
// offload and the three tests run independently.

/// Trace one steady-state empty offload on `o` and check its spans
/// decompose into exactly `expected` from post to completion. Each
/// entry names a span category and the untraced virtual time allowed
/// right before it — zero everywhere means gap-free.
fn assert_critical_path(o: Offload, expected: &[(&str, SimTime)]) {
    for _ in 0..10 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }
    let session = aurora_telemetry::TraceSession::start();
    let t0 = o.backend().host_clock().now();
    let fut = o.async_(NodeId(1), f2f!(whoami)).unwrap();
    let id = fut.offload_id();
    fut.get().unwrap();
    let t1 = o.backend().host_clock().now();
    let trace = session.finish();

    // Our offload's spans only (concurrent tests' offloads carry other
    // ids); the PCIe wire-occupancy sub-spans overlap the DMA spans that
    // subsume them, so they are excluded from the chain check.
    let chain: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.offload == id.0 && !e.category.starts_with("pcie."))
        .collect();

    // The steady-state offload decomposes into exactly these components.
    let cats: Vec<&str> = chain.iter().map(|e| e.category).collect();
    let want: Vec<&str> = expected.iter().map(|&(c, _)| c).collect();
    assert_eq!(cats, want, "critical path composition");
    // Each event starts where the previous one ended (plus the allowed
    // gap), and the whole chain spans the measured end-to-end cost.
    assert_eq!(chain[0].start_ps, t0.as_ps());
    for (w, &(_, gap)) in chain.windows(2).zip(&expected[1..]) {
        assert_eq!(
            w[0].end_ps + gap.as_ps(),
            w[1].start_ps,
            "{:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    assert_eq!(chain.last().unwrap().end_ps, t1.as_ps());
    o.shutdown();
}

#[test]
fn traced_components_cover_the_critical_path() {
    let reg = aurora_workloads::register_all;
    let cfg = ProtocolConfig::default();
    let gap_free = |cats: &[&'static str]| -> Vec<(&'static str, SimTime)> {
        cats.iter().map(|&c| (c, SimTime::ZERO)).collect()
    };
    assert_critical_path(
        Offload::new(DmaBackend::spawn(machine(), 0, &[0], cfg, reg)),
        &gap_free(&[
            "ham.host_overhead",
            "vh.local_post",
            "lhm.word",
            "udma.read",
            "shm.word",
            "ham.target_overhead",
            "udma.write",
            "shm.flag",
            "vh.local_consume",
        ]),
    );
    // VEO: the VE's two accesses to its own slot memory (read the
    // message, raise the result flag) have no hardware unit to record
    // them, so they are the only untraced time on the path.
    let touch = calib::HAM_LOCAL_MEM_TOUCH;
    assert_critical_path(
        Offload::new(VeoBackend::spawn(machine(), 0, &[0], cfg, reg)),
        &[
            ("ham.host_overhead", SimTime::ZERO),
            ("veo.write_mem", SimTime::ZERO),
            ("veo.write_mem", SimTime::ZERO),
            ("ham.target_overhead", touch),
            ("veo.read_mem", touch),
            ("veo.read_mem", SimTime::ZERO),
        ],
    );
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    // Two independent runs of the same scenario produce identical
    // virtual-time results — regardless of OS scheduling.
    let run = || {
        let o = dma_offload(2, aurora_workloads::register_all);
        for n in 1..=2u16 {
            for _ in 0..10 {
                o.sync(NodeId(n), f2f!(whoami)).unwrap();
            }
        }
        let t = o.backend().host_clock().now();
        o.shutdown();
        t
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual end times must match exactly");
}

#[test]
fn offload_costs_are_stable_per_iteration() {
    // In steady state every empty offload costs exactly the same
    // virtual time (the simulation has no noise to average away).
    let o = dma_offload(1, aurora_workloads::register_all);
    for _ in 0..10 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }
    let mut costs = Vec::new();
    for _ in 0..5 {
        let t0 = o.backend().host_clock().now();
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
        costs.push(o.backend().host_clock().now() - t0);
    }
    assert!(
        costs.windows(2).all(|w| w[0] == w[1]),
        "steady-state costs vary: {costs:?}"
    );
    o.shutdown();
}
