//! Scaling bounds in virtual time: what a second axis of parallelism —
//! more VEs behind a `TargetPool`, more worker lanes inside one VE —
//! must buy on a 64-deep wave of compute-bound offloads.
//!
//! The host program is the same on both sides of each comparison, the
//! kernel charges a fixed amount of modelled compute, and the measured
//! quantity is the host's virtual clock, so each bound is an assertion
//! about the model, not a wall-clock benchmark.

use aurora_workloads::kernels::compute_burn;
use ham::f2f;
use ham_aurora_repro::sim_core::SimTime;
use ham_aurora_repro::{BatchConfig, NodeId};
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_offload::sched::SchedPolicy;
use ham_offload::Offload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use veos_sim::{AuroraMachine, MachineConfig};

/// Offloads per measured wave.
const DEPTH: usize = 64;
/// Modelled compute per offload — heavy enough that engine parallelism,
/// not transport latency, dominates the wave.
const FLOPS: u64 = 4_000_000;

/// `ves` VEs on the DMA protocol, each with rings that hold one wave
/// (plus the pool bound's gate), so ring depth is the same on both sides
/// of every comparison.
fn spawn(ves: u8, lanes: usize, batch: BatchConfig) -> Offload {
    let machine = AuroraMachine::small(
        ves,
        MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        },
    );
    let targets: Vec<u8> = (0..ves).collect();
    Offload::new(DmaBackend::spawn(
        machine,
        0,
        &targets,
        ProtocolConfig {
            recv_slots: DEPTH + 1,
            send_slots: DEPTH + 1,
            lanes,
            ..Default::default()
        }
        .with_batch(batch),
        |b| {
            aurora_workloads::register_all(b);
            b.register::<gate>();
        },
    ))
}

static GATES_ENTERED: AtomicUsize = AtomicUsize::new(0);
static GATES_OPEN: AtomicBool = AtomicBool::new(false);

ham::ham_kernel! {
    /// Holds its device thread — in real time, at no modelled cost —
    /// until the test opens the gate.
    pub fn gate(_ctx) -> u64 {
        GATES_ENTERED.fetch_add(1, Ordering::SeqCst);
        while !GATES_OPEN.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        0
    }
}

/// One wave through a `LeastLoaded` pool over `ves` VEs: virtual host
/// µs per offload and how many offloads each target was handed.
///
/// The model is a max-plus timeline, and two real-time races leak into
/// it: how many posted messages a device thread finds per intake window,
/// and in which order the host's flag sweeps find landed results. The
/// wave pins both to one schedule — every device thread is held in a
/// [`gate`] kernel until the whole wave is posted, so each VE takes its
/// share in one window, and the host harvests only after a cost-free
/// flag peek has seen every result land.
fn measure_pool(ves: u8) -> (f64, Vec<usize>) {
    // Serial device engines: this bound isolates the multi-VE axis.
    let o = spawn(ves, 1, BatchConfig::default());
    let nodes: Vec<NodeId> = (1..=ves as u16).map(NodeId).collect();
    let pool = o.pool_with(&nodes, SchedPolicy::LeastLoaded).unwrap();
    let burn = || pool.submit(f2f!(compute_burn, FLOPS)).unwrap();
    // Warm-up wave.
    for r in pool.wait_all((0..DEPTH).map(|_| burn()).collect()) {
        r.unwrap();
    }

    // Park every device thread inside a gate before the wave is posted.
    GATES_ENTERED.store(0, Ordering::SeqCst);
    GATES_OPEN.store(false, Ordering::SeqCst);
    let gates: Vec<_> = nodes
        .iter()
        .map(|&n| o.async_(n, f2f!(gate)).unwrap())
        .collect();
    while GATES_ENTERED.load(Ordering::SeqCst) < nodes.len() {
        std::thread::yield_now();
    }
    let clock = o.backend().host_clock();
    // Idle host time, so no VE clock is still ahead of the host's from
    // serving its gate when the wave's first message arrives.
    clock.advance(SimTime::from_us(100));

    let t0 = clock.now();
    let futures: Vec<_> = (0..DEPTH).map(|_| burn()).collect();
    let mut per_target = vec![0usize; ves as usize];
    for f in &futures {
        per_target[f.target().0 as usize - 1] += 1;
    }
    // Release the devices and watch the result flags — a free local
    // peek that consumes nothing — until every result has landed.
    GATES_OPEN.store(true, Ordering::SeqCst);
    let mut pending = Vec::new();
    for &n in &nodes {
        o.backend().channel(n).unwrap().pending_into(&mut pending);
        for (seq, entry) in &pending {
            while o.backend().poll_flags(n, *seq, entry).unwrap().is_none() {
                std::thread::yield_now();
            }
        }
    }
    for r in pool.wait_all(futures) {
        let node = r.unwrap();
        assert!((1..=ves as u16).contains(&node), "served by a pool target");
    }
    let per_offload_us = (clock.now() - t0).as_us_f64() / DEPTH as f64;
    for r in o.wait_all(gates) {
        assert_eq!(r.unwrap(), 0);
    }
    o.shutdown();
    (per_offload_us, per_target)
}

/// A 4-VE `LeastLoaded` pool must finish the wave at least 3× faster
/// than one VE (wire and host overheads eat the rest of the ideal 4×),
/// and least-loaded placement over idle engines, with every submit
/// ahead of any wait, must spread the wave exactly evenly.
#[test]
fn four_ve_pool_is_at_least_3x_one_ve() {
    let (single_us, _) = measure_pool(1);
    let (pooled_us, placement) = measure_pool(4);
    let speedup = single_us / pooled_us;
    println!(
        "1 VE {single_us:.3} us/offload, 4-VE pool {pooled_us:.3} us/offload, \
         speedup {speedup:.3}x, placement {placement:?}"
    );
    assert_eq!(
        placement,
        vec![DEPTH / 4; 4],
        "placement must spread the wave evenly (speedup {speedup:.3}x)"
    );
    assert!(
        speedup >= 3.0,
        "4-VE pool must be >=3x one VE: {speedup:.3}x \
         ({single_us:.3} vs {pooled_us:.3} us/offload), placement {placement:?}"
    );
}

/// Two waves (the first warms the channel), each a single
/// `DEPTH`-member batch carrier to one VE running `lanes` worker lanes:
/// virtual host µs per member of the second.
fn measure_lanes(lanes: usize) -> f64 {
    let o = spawn(1, lanes, BatchConfig::up_to(DEPTH));
    let clock = o.backend().host_clock();
    let wave = || {
        let t0 = clock.now();
        let futures: Vec<_> = (0..DEPTH)
            .map(|_| o.async_(NodeId(1), f2f!(compute_burn, FLOPS)).unwrap())
            .collect();
        for r in o.wait_all(futures) {
            assert_eq!(r.unwrap(), 1, "served by the single VE");
        }
        (clock.now() - t0).as_us_f64() / DEPTH as f64
    };
    wave();
    let per_member_us = wave();
    let snap = o.metrics_snapshot();
    let busy: Vec<u16> = snap
        .lanes
        .iter()
        .filter(|l| l.tasks > 0)
        .map(|l| l.lane)
        .collect();
    o.shutdown();
    assert!(
        busy.len() <= lanes,
        "a {lanes}-lane engine reported busy lanes {busy:?}"
    );
    per_member_us
}

/// Eight worker lanes must execute a 64-member carrier at least 2× as
/// fast as the serial engine (carrier transport, in-order publication
/// and the tail of the last wavefront eat the rest), and no engine may
/// report more busy lanes than it was configured with.
#[test]
fn eight_lanes_are_at_least_2x_one_lane() {
    let serial_us = measure_lanes(1);
    let lanes8_us = measure_lanes(8);
    let speedup = serial_us / lanes8_us;
    println!(
        "1 lane {serial_us:.3} us/member, 8 lanes {lanes8_us:.3} us/member, speedup {speedup:.3}x"
    );
    assert!(
        speedup >= 2.0,
        "8 lanes must be >=2x the serial engine: {speedup:.3}x \
         ({serial_us:.3} vs {lanes8_us:.3} us/member)"
    );
}
