//! Acceptance tests for the self-tuning dataplane: the latency-SLO age
//! bound on staged batches, the adaptive watermark controller, and the
//! interaction of both with the recovery/dedup machinery.
//!
//! The SLO bound is virtual-time based, so the tests drive it by hand:
//! advance the shared [`Clock`] past the bound and call
//! [`engine::sweep`] directly. (Blocking waits go through `drain`,
//! which always flushes staged work — they would mask the SLO path.)

use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_aurora_repro::sim_core::{HealthEventKind, SimTime};
use ham_aurora_repro::{
    offload_with, BackendKind, BatchConfig, FaultPlan, NodeId, OffloadOptions, RecoveryPolicy,
};
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_offload::chan::engine;
use ham_offload::Offload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

const SLO_US: u64 = 50;

/// One target on `kind` with batching per `batch`, everything else
/// default.
fn batched(kind: BackendKind, batch: BatchConfig) -> Offload {
    let opts = OffloadOptions {
        batch,
        ..OffloadOptions::default()
    };
    offload_with(kind, 1, opts, aurora_workloads::register_all)
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

/// Post one message (stays staged under a wide watermark), advance
/// virtual time past the SLO bound, sweep, and check the envelope left
/// on the SLO path: frame sent, counter bumped, health event logged,
/// and the member future still completes with the right result.
fn check_sweep_slo_flush(o: &Offload, label: &str) {
    let t = NodeId(1);
    // Warm the channel so credit/handshake traffic is out of the way.
    for _ in 0..2 {
        assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1, "{label}: warmup");
    }
    let before = o.backend().metrics().snapshot();
    let fut = o.async_(t, f2f!(whoami)).unwrap();
    let staged = o.backend().metrics().snapshot();
    assert_eq!(
        staged.frames_sent - before.frames_sent,
        0,
        "{label}: message must stay staged below the watermark"
    );

    // Young accumulator: a sweep before the bound must NOT flush.
    engine::sweep(o.backend().as_ref(), t).unwrap();
    let early = o.backend().metrics().snapshot();
    assert_eq!(
        early.frames_sent - before.frames_sent,
        0,
        "{label}: sweep before the SLO bound flushed the batch"
    );

    o.backend()
        .host_clock()
        .advance(SimTime::from_us(SLO_US + 10));
    engine::sweep(o.backend().as_ref(), t).unwrap();
    let after = o.backend().metrics().snapshot();
    assert_eq!(
        after.frames_sent - before.frames_sent,
        1,
        "{label}: aged batch must flush on sweep"
    );
    assert_eq!(
        after.batch_slo_flushes - before.batch_slo_flushes,
        1,
        "{label}: SLO flush counter"
    );
    let slo_events = o
        .backend()
        .metrics()
        .health()
        .events_for(t.0)
        .into_iter()
        .filter(|e| e.kind == HealthEventKind::SloFlush)
        .count();
    assert_eq!(slo_events, 1, "{label}: slo_flush health event");
    assert_eq!(fut.get().unwrap(), 1, "{label}: member result");
}

/// The sweep-side SLO flush works identically across all four
/// transports: a staged small message never outlives `slo_micros` of
/// virtual time even when nothing else fills the accumulator.
#[test]
fn slo_flush_bounds_staged_age_on_every_backend() {
    for kind in [BackendKind::Local]
        .into_iter()
        .chain(BackendKind::FAULT_CAPABLE)
    {
        let o = batched(kind, BatchConfig::adaptive_up_to(64, SLO_US));
        check_sweep_slo_flush(&o, kind.name());
        o.shutdown();
    }
}

/// The SLO bound is independent of the adaptive controller: a static
/// watermark config with only `slo_micros` set gets the same age
/// guarantee.
#[test]
fn slo_flush_works_without_adaptive_controller() {
    let o = batched(
        BackendKind::Local,
        BatchConfig::up_to(64).with_slo_micros(SLO_US),
    );
    check_sweep_slo_flush(&o, "static+slo");
    o.shutdown();
}

/// Negative control: with no SLO configured, an aged accumulator is
/// *not* flushed by sweeps — only watermarks and blocking waits flush.
/// This is the knob-off determinism guarantee: sweeps stay read-only.
#[test]
fn sweep_never_flushes_without_slo_knob() {
    let o = batched(BackendKind::Local, BatchConfig::up_to(64));
    let t = NodeId(1);
    assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    let before = o.backend().metrics().snapshot();
    let fut = o.async_(t, f2f!(whoami)).unwrap();
    o.backend().host_clock().advance(SimTime::from_us(10_000));
    engine::sweep(o.backend().as_ref(), t).unwrap();
    let after = o.backend().metrics().snapshot();
    assert_eq!(
        after.frames_sent - before.frames_sent,
        0,
        "sweep flushed a staged batch with slo_micros=0"
    );
    assert_eq!(after.batch_slo_flushes, 0);
    // The blocking wait still drains it, as ever.
    assert_eq!(fut.get().unwrap(), 1);
    o.shutdown();
}

/// Stage-side trip: when a *new* message lands on an accumulator whose
/// first member is already older than the bound, the post itself
/// flushes — no sweep needed.
#[test]
fn aged_accumulator_flushes_on_next_post() {
    let o = batched(BackendKind::Local, BatchConfig::adaptive_up_to(64, SLO_US));
    let t = NodeId(1);
    assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    let before = o.backend().metrics().snapshot();
    let f1 = o.async_(t, f2f!(whoami)).unwrap();
    o.backend()
        .host_clock()
        .advance(SimTime::from_us(SLO_US * 2));
    let f2 = o.async_(t, f2f!(whoami)).unwrap();
    let after = o.backend().metrics().snapshot();
    assert_eq!(
        after.frames_sent - before.frames_sent,
        1,
        "posting onto an over-age accumulator must flush it inline"
    );
    assert_eq!(after.batch_slo_flushes - before.batch_slo_flushes, 1);
    for r in o.wait_all(vec![f1, f2]) {
        assert_eq!(r.unwrap(), 1);
    }
    o.shutdown();
}

/// Drive the controller through a full narrow → widen cycle with
/// scripted traffic and return the observable counters. Sparse
/// SLO-flushed singles must narrow the watermark; dense full-envelope
/// waves must widen it back to the ceiling.
fn narrow_widen_cycle() -> (u64, u64, u64, usize, usize) {
    let o = batched(BackendKind::Local, BatchConfig::adaptive_up_to(8, SLO_US));
    let t = NodeId(1);
    assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    let chan = o.backend().channel(t).unwrap();
    assert_eq!(chan.effective_watermark(), 8, "controller starts wide");

    // Sparse phase: four lone messages, each flushed by the SLO bound.
    // The controller ticks on the 4th flush and must narrow.
    for _ in 0..4 {
        let fut = o.async_(t, f2f!(whoami)).unwrap();
        o.backend()
            .host_clock()
            .advance(SimTime::from_us(SLO_US + 10));
        engine::sweep(o.backend().as_ref(), t).unwrap();
        assert_eq!(fut.get().unwrap(), 1);
    }
    let chan = o.backend().channel(t).unwrap();
    let narrowed = chan.effective_watermark();
    assert!(
        narrowed < 8,
        "SLO-flushed sparse traffic must narrow the watermark, still at {narrowed}"
    );

    // Dense phase: waves sized to the *current* watermark so every
    // envelope leaves full. Enough waves for several controller ticks
    // (the first dense window still holds the last sparse SLO flush,
    // which costs one more narrow before the climb); with flush latency
    // far under the SLO the controller must widen back past where the
    // sparse phase left it.
    for _ in 0..16 {
        let wave = o.backend().channel(t).unwrap().effective_watermark();
        let futures: Vec<_> = (0..wave)
            .map(|_| o.async_(t, f2f!(whoami)).unwrap())
            .collect();
        for r in o.wait_all(futures) {
            assert_eq!(r.unwrap(), 1);
        }
    }
    let chan = o.backend().channel(t).unwrap();
    let widened = chan.effective_watermark();
    let snap = o.backend().metrics().snapshot();
    let narrows_logged = o
        .backend()
        .metrics()
        .health()
        .events_for(t.0)
        .iter()
        .filter(|e| e.kind == HealthEventKind::BatchNarrow)
        .count();
    assert!(narrows_logged >= 1, "batch_narrow health event missing");
    o.shutdown();
    (
        snap.batch_widens,
        snap.batch_narrows,
        snap.batch_slo_flushes,
        narrowed,
        widened,
    )
}

/// The controller narrows under sparse SLO-flushed traffic and widens
/// back under dense full-envelope traffic, and every transition is
/// observable (counters + health events).
#[test]
fn controller_narrows_then_widens_with_traffic_shape() {
    let (widens, narrows, slo_flushes, narrowed, widened) = narrow_widen_cycle();
    assert!(narrows >= 1, "no narrow recorded");
    assert!(
        widens >= 1,
        "no widen recorded: watermark stuck at {narrowed}"
    );
    assert!(slo_flushes >= 4, "sparse phase must trip the SLO 4 times");
    assert!(
        widened > narrowed,
        "dense traffic must widen back: {narrowed} -> {widened}"
    );
}

/// The controller is a pure function of virtual-time state: two
/// identical scripted runs produce byte-identical counter trajectories.
#[test]
fn controller_decisions_are_deterministic() {
    let a = narrow_widen_cycle();
    let b = narrow_widen_cycle();
    assert_eq!(a, b, "adaptive controller diverged between identical runs");
}

/// Mixed traffic on a poll-driven host: three rounds of two dense
/// 64-deep waves, then eight lone probes separated by idle time. A
/// probe's client has other work, so instead of blocking it steps the
/// virtual clock 10 µs at a time and runs the engine sweep until its
/// message has left the accumulator or an 800 µs poll budget is spent,
/// and only then pays the blocking round trip. The clock is stepped by the host
/// program alone — never while waiting for the device thread — so a
/// probe's latency is a function of the batching config, not of how the
/// OS scheduled that thread. Returns the sorted probe latencies (µs)
/// and the wire frames / messages of the whole run.
fn mixed_traffic(batch: BatchConfig) -> (Vec<f64>, u64, u64) {
    const ROUNDS: usize = 3;
    const BULK: usize = 64;
    const PROBES: usize = 8;
    const STEP_US: u64 = 10;
    const GIVE_UP_US: u64 = 800;
    let o = Offload::new(DmaBackend::spawn(
        machine(),
        0,
        &[0],
        ProtocolConfig {
            recv_slots: 2 * BULK,
            send_slots: 2 * BULK,
            ..Default::default()
        }
        .with_batch(batch),
        aurora_workloads::register_all,
    ));
    let t = NodeId(1);
    let clock = o.backend().host_clock();
    let chan = o.backend().channel(t).unwrap();
    for _ in 0..10 {
        assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    }
    let before = o.backend().metrics().snapshot();
    let mut lat = Vec::new();
    for _ in 0..ROUNDS {
        for _ in 0..2 {
            let futures: Vec<_> = (0..BULK)
                .map(|_| o.async_(t, f2f!(whoami)).unwrap())
                .collect();
            for r in o.wait_all(futures) {
                assert_eq!(r.unwrap(), 1);
            }
        }
        for _ in 0..PROBES {
            clock.advance(SimTime::from_us(50));
            let t0 = clock.now();
            let fut = o.async_(t, f2f!(whoami)).unwrap();
            for _ in 0..GIVE_UP_US / STEP_US {
                if chan.staged_len() == 0 {
                    break;
                }
                clock.advance(SimTime::from_us(STEP_US));
                engine::sweep(o.backend().as_ref(), t).unwrap();
            }
            assert_eq!(fut.get().unwrap(), 1);
            lat.push((clock.now() - t0).as_us_f64());
        }
    }
    let after = o.backend().metrics().snapshot();
    o.shutdown();
    lat.sort_by(f64::total_cmp);
    (
        lat,
        after.frames_sent - before.frames_sent,
        after.msgs_sent - before.msgs_sent,
    )
}

/// Under a static depth-64 watermark a lone probe sits in the
/// accumulator until the client gives up, so every probe burns the
/// whole poll budget (800 µs + one round trip); with a 200 µs SLO armed
/// the sweep flushes it at the bound (200 µs + one round trip). The
/// worst adaptive probe must be at least 2× better than the worst
/// static one, and adaptation must keep the dense waves' ≥ 3× cut in
/// wire frames.
#[test]
fn adaptive_slo_halves_probe_p99_and_keeps_the_frame_cut() {
    // 24 probes per config: the 99th percentile is the maximum.
    let (s_lat, s_frames, s_msgs) = mixed_traffic(BatchConfig::up_to(64));
    let (a_lat, a_frames, a_msgs) = mixed_traffic(BatchConfig::adaptive_up_to(64, 200));
    let (s_p99, a_p99) = (s_lat[s_lat.len() - 1], a_lat[a_lat.len() - 1]);
    println!(
        "static: p50 {:.1} p99 {s_p99:.1} us, {s_frames} frames / {s_msgs} msgs; \
         adaptive: p50 {:.1} p99 {a_p99:.1} us, {a_frames} frames / {a_msgs} msgs",
        s_lat[s_lat.len() / 2 - 1],
        a_lat[a_lat.len() / 2 - 1],
    );
    assert!(
        s_p99 >= 2.0 * a_p99,
        "adaptive probe p99 must be >=2x better: {a_p99:.1} vs {s_p99:.1} us"
    );
    assert!(
        a_frames * 3 <= a_msgs,
        "adaptation must keep the >=3x frame cut: {a_frames} frames for {a_msgs} msgs"
    );
}

static EXECUTIONS: AtomicU64 = AtomicU64::new(0);

ham::ham_kernel! {
    /// Counts every execution: a replayed carrier must not re-run a
    /// member that already executed (dedup watermark), adaptive or not.
    pub fn counted_echo(_ctx, x: u64) -> u64 {
        EXECUTIONS.fetch_add(1, Ordering::SeqCst);
        x
    }
}

/// Watermark movement must never violate the carrier-seq dedup
/// contract: under seeded frame drops with the adaptive controller
/// armed (so effective watermarks shift mid-run), every offload still
/// executes exactly once and nothing times out.
#[test]
fn adaptive_watermarks_preserve_exactly_once_under_faults() {
    let mut any_resend = false;
    for seed in [7u64, 42, 1234, 9001] {
        let plan = FaultPlan::builder(seed).tlp_drop(0.25).build();
        let o = Offload::new(DmaBackend::spawn_with_faults(
            machine(),
            0,
            &[0],
            ProtocolConfig::default().with_batch(BatchConfig::adaptive_up_to(4, 200)),
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
        assert_eq!(
            EXECUTIONS.load(Ordering::SeqCst) - before,
            64,
            "seed {seed}: members re-executed or lost under adaptive watermarks"
        );
        any_resend |= snap.resends >= 1;
        o.shutdown();
    }
    assert!(any_resend, "no seed injected a drop — pick other seeds");
}

static PROP_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

ham::ham_kernel! {
    /// Echo with its own execution counter (separate from
    /// [`counted_echo`]: the two tests run concurrently and deltas on a
    /// shared counter would interleave).
    pub fn prop_echo(_ctx, x: u64) -> u64 {
        PROP_EXECUTIONS.fetch_add(1, Ordering::SeqCst);
        x
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Generalization of the seeded test above: for *any* fault seed,
    /// watermark ceiling, SLO bound and drop rate, adaptive watermark
    /// movement keeps the carrier-seq dedup contract — every member
    /// executes exactly once, nothing times out or leaks, and the
    /// effective watermark never escapes `[1, ceil]`.
    #[test]
    fn prop_adaptive_watermarks_keep_dedup_invariants(
        seed in proptest::prelude::any::<u64>(),
        ceil in 1usize..9,
        slo_us in 50u64..400,
        drop_pct in 0u32..26,
    ) {
        let plan = FaultPlan::builder(seed)
            .tlp_drop(f64::from(drop_pct) / 100.0)
            .build();
        let o = Offload::new(DmaBackend::spawn_with_faults(
            machine(),
            0,
            &[0],
            ProtocolConfig::default().with_batch(BatchConfig::adaptive_up_to(ceil, slo_us)),
            plan,
            Some(RecoveryPolicy {
                retry_after_misses: 64,
                max_retries: 8,
            }),
            |b| {
                b.register::<prop_echo>();
            },
        ));
        let t = NodeId(1);
        let before = PROP_EXECUTIONS.load(Ordering::SeqCst);
        let futures: Vec<_> = (0..32u64)
            .map(|i| o.async_(t, f2f!(prop_echo, i)).unwrap())
            .collect();
        for (i, r) in o.wait_all(futures).into_iter().enumerate() {
            proptest::prop_assert_eq!(r.unwrap(), i as u64, "member {} result", i);
        }
        let wm = o.backend().channel(t).unwrap().effective_watermark();
        proptest::prop_assert!(
            (1..=ceil).contains(&wm),
            "watermark {} escaped [1, {}]", wm, ceil
        );
        let snap = o.backend().metrics().snapshot();
        proptest::prop_assert_eq!(snap.timeouts, 0, "retries must recover");
        proptest::prop_assert_eq!(o.in_flight(t).unwrap(), 0, "leaked entries");
        proptest::prop_assert_eq!(
            PROP_EXECUTIONS.load(Ordering::SeqCst) - before,
            32,
            "members re-executed or lost under adaptive watermarks"
        );
        o.shutdown();
    }
}
