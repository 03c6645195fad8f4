//! Acceptance tests for deep pipelines and small-message frame batching:
//! a pipelined wave against the serial loop, transaction-count reduction
//! at depth, exactly-once replay of dropped batch frames, and eviction
//! when a batched frame times out.

use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_aurora_repro::{
    dma_offload, offload_with, BackendKind, BatchConfig, FaultPlan, NodeId, OffloadError,
    OffloadOptions, RecoveryPolicy,
};
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_offload::Offload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

fn batched_up_to(max_msgs: usize) -> OffloadOptions {
    OffloadOptions {
        batch: BatchConfig::up_to(max_msgs),
        ..OffloadOptions::default()
    }
}

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

/// 64 offloads kept in flight and harvested by one `wait_all` must cost
/// no more virtual host time per offload than 64 blocking round trips,
/// and the backend must have seen the whole depth in flight at once.
#[test]
fn pipelined_wave_is_no_slower_than_the_serial_loop() {
    const DEPTH: usize = 64;
    let o = Offload::new(DmaBackend::spawn(
        machine(),
        0,
        &[0],
        ProtocolConfig {
            recv_slots: DEPTH,
            send_slots: DEPTH,
            ..Default::default()
        },
        aurora_workloads::register_all,
    ));
    let t = NodeId(1);
    let clock = o.backend().host_clock();
    for _ in 0..10 {
        o.sync(t, f2f!(whoami)).unwrap();
    }

    let t0 = clock.now();
    for _ in 0..DEPTH {
        assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    }
    let serial_us = (clock.now() - t0).as_us_f64() / DEPTH as f64;

    let t0 = clock.now();
    let futures: Vec<_> = (0..DEPTH)
        .map(|_| o.async_(t, f2f!(whoami)).unwrap())
        .collect();
    for r in o.wait_all(futures) {
        assert_eq!(r.unwrap(), 1);
    }
    let pipelined_us = (clock.now() - t0).as_us_f64() / DEPTH as f64;
    let inflight_peak = o.backend().metrics().snapshot().inflight_peak;
    o.shutdown();

    println!("serial {serial_us:.3} us/offload, pipelined {pipelined_us:.3} us/offload, inflight peak {inflight_peak}");
    assert!(
        pipelined_us <= serial_us,
        "pipelined {pipelined_us:.3} us/offload vs serial {serial_us:.3} us/offload"
    );
    assert!(
        inflight_peak >= DEPTH as i64,
        "expected {DEPTH} offloads in flight, peak was {inflight_peak}"
    );
}

/// Depth-64 pipeline on the DMA protocol: batching must cut the number
/// of wire frames (= DMA transactions + flag polls) by at least 3× and
/// must not be slower in virtual time than the per-message path.
#[test]
fn dma_depth64_batching_cuts_frames_at_least_3x() {
    let reg = aurora_workloads::register_all;
    let run = |o: &Offload| {
        let t = NodeId(1);
        for _ in 0..4 {
            o.sync(t, f2f!(whoami)).unwrap();
        }
        let before = o.backend().metrics().snapshot();
        let t0 = o.backend().host_clock().now();
        let futures: Vec<_> = (0..64)
            .map(|_| o.async_(t, f2f!(whoami)).unwrap())
            .collect();
        for r in o.wait_all(futures) {
            assert_eq!(r.unwrap(), 1);
        }
        let elapsed = o.backend().host_clock().now() - t0;
        let after = o.backend().metrics().snapshot();
        (
            after.frames_sent - before.frames_sent,
            after.msgs_sent - before.msgs_sent,
            elapsed,
        )
    };

    let plain = dma_offload(1, reg);
    let (frames_off, msgs_off, time_off) = run(&plain);
    plain.shutdown();
    assert_eq!(msgs_off, 64);
    assert_eq!(frames_off, 64, "batching off: one frame per message");

    let batched = offload_with(BackendKind::Dma, 1, batched_up_to(16), reg);
    let (frames_on, msgs_on, time_on) = run(&batched);
    batched.shutdown();
    assert_eq!(msgs_on, 64, "every message reaches the wire");
    assert!(
        frames_on * 3 <= msgs_on,
        "expected >=3x fewer transactions: {frames_on} frames for {msgs_on} msgs"
    );
    assert!(
        time_on < time_off,
        "batched depth-64 wave must be faster: {time_on} vs {time_off}"
    );
}

static EXECUTIONS: AtomicU64 = AtomicU64::new(0);

ham::ham_kernel! {
    /// Counts every execution; a replayed-but-deduped batch must not
    /// bump the counter twice for the same member.
    pub fn counted_echo(_ctx, x: u64) -> u64 {
        EXECUTIONS.fetch_add(1, Ordering::SeqCst);
        x
    }
}

/// A dropped batch carrier frame is re-sent by the recovery policy and
/// replays **all** of its sub-messages exactly once: results stay
/// correct, nothing times out, and the execution counter matches the
/// number of distinct offloads.
#[test]
fn dropped_batch_frame_is_replayed_exactly_once() {
    let mut any_resend = false;
    for seed in [7u64, 42, 1234] {
        let plan = FaultPlan::builder(seed).tlp_drop(0.25).build();
        let o = Offload::new(DmaBackend::spawn_with_faults(
            machine(),
            0,
            &[0],
            ProtocolConfig::default().with_batch(BatchConfig::up_to(4)),
            plan,
            Some(RecoveryPolicy {
                retry_after_misses: 64,
                max_retries: 4,
            }),
            |b| {
                b.register::<counted_echo>();
            },
        ));
        let t = NodeId(1);
        let before = EXECUTIONS.load(Ordering::SeqCst);
        let futures: Vec<_> = (0..64u64)
            .map(|i| o.async_(t, f2f!(counted_echo, i)).unwrap())
            .collect();
        for (i, r) in o.wait_all(futures).into_iter().enumerate() {
            assert_eq!(r.unwrap(), i as u64, "seed {seed}: member {i} result");
        }
        let snap = o.backend().metrics().snapshot();
        assert_eq!(snap.timeouts, 0, "seed {seed}: retries must recover");
        assert_eq!(o.in_flight(t).unwrap(), 0, "seed {seed}: leaked entries");
        // Each of the 64 offloads executed exactly once, even where the
        // carrier frame was dropped and replayed (dedup watermark).
        assert_eq!(
            EXECUTIONS.load(Ordering::SeqCst) - before,
            64,
            "seed {seed}: members re-executed or lost"
        );
        any_resend |= snap.resends >= 1;
        o.shutdown();
    }
    assert!(any_resend, "no seed injected a drop — pick other seeds");
}

/// Total frame loss under batching: the batch carrier exhausts its
/// retry budget, every member future settles with `Timeout`, the target
/// is evicted exactly once, and later posts fail fast with
/// `TargetLost` — no hangs, no leaked pending entries.
#[test]
fn total_loss_of_batched_frames_times_out_and_evicts() {
    let plan = FaultPlan::builder(99).tlp_drop(1.0).build();
    let o = Offload::new(DmaBackend::spawn_with_faults(
        machine(),
        0,
        &[0],
        ProtocolConfig::default().with_batch(BatchConfig::up_to(8)),
        plan,
        Some(RecoveryPolicy {
            retry_after_misses: 32,
            max_retries: 2,
        }),
        aurora_workloads::register_all,
    ));
    let t = NodeId(1);
    let futures: Vec<_> = (0..8).map(|_| o.async_(t, f2f!(whoami)).unwrap()).collect();
    let mut timeouts = 0;
    for r in o.wait_all(futures) {
        match r.unwrap_err() {
            OffloadError::Timeout => timeouts += 1,
            OffloadError::TargetLost(n) => assert_eq!(n, t),
            other => panic!("unexpected error: {other}"),
        }
    }
    assert!(timeouts >= 1, "carrier timeout must fan out to members");
    let snap = o.backend().metrics().snapshot();
    assert_eq!(snap.evictions, 1, "one eviction for the lost target");
    assert!(snap.resends >= 1, "the carrier was never re-sent");
    assert_eq!(o.in_flight(t).unwrap(), 0, "leaked pending entries");
    let err = o.sync(t, f2f!(whoami)).unwrap_err();
    assert!(matches!(err, OffloadError::TargetLost(NodeId(1))), "{err}");
    o.shutdown();
}

/// The implicit-flush contract across *channels*: futures in one wait
/// set may be staged in different targets' accumulators, and a blocking
/// wait must flush every involved channel — not just the first one —
/// or the later futures spin on frames that never left the host.
#[test]
fn wait_any_flushes_staged_batches_on_every_involved_target() {
    let o = offload_with(
        BackendKind::Local,
        2,
        batched_up_to(16),
        aurora_workloads::register_all,
    );
    // One staged (unflushed — watermark is 16) message per target.
    let mut futures = vec![
        o.async_(NodeId(1), f2f!(whoami)).unwrap(),
        o.async_(NodeId(2), f2f!(whoami)).unwrap(),
    ];
    let mut served = Vec::new();
    while let Some(i) = o.wait_any(&mut futures) {
        served.push(futures.remove(i).get().unwrap());
    }
    served.sort_unstable();
    assert_eq!(served, vec![1, 2], "both targets' batches were flushed");
    o.shutdown();
}

/// Same contract through `wait_all`: staged messages spread over two
/// accumulators all complete in one blocking wait.
#[test]
fn wait_all_flushes_staged_batches_across_targets() {
    let o = offload_with(
        BackendKind::Local,
        2,
        batched_up_to(16),
        aurora_workloads::register_all,
    );
    let futures: Vec<_> = (0..8)
        .map(|i| o.async_(NodeId(1 + (i % 2)), f2f!(whoami)).unwrap())
        .collect();
    let mut nodes: Vec<u16> = o
        .wait_all(futures)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    nodes.sort_unstable();
    assert_eq!(nodes, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    o.shutdown();
}
