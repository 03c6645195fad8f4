//! Failure injection: the framework must fail loudly and recoverably,
//! never corrupt state.

use aurora_workloads::kernels::{echo, whoami};
use ham::f2f;
use ham_aurora_repro::{
    dma_offload, offload_with, tcp_offload, veo_offload, BackendKind, NodeId, OffloadError,
    OffloadOptions, RecoveryPolicy,
};
use ham_backend_dma::DmaBackend;
use ham_backend_veo::{ProtocolConfig, VeoBackend};
use ham_offload::chan::backoff::SPIN;
use ham_offload::Offload;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use veos_sim::{AuroraMachine, MachineConfig};

/// Run `body` on its own thread; a run longer than `limit` fails as
/// `what` hanging.
fn watchdog(what: &str, limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("test body"),
        // The body panicked: re-raise its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(p) = worker.join() {
                std::panic::resume_unwind(p);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung for more than {limit:?}"),
    }
}

fn tiny_machine() -> Arc<AuroraMachine> {
    AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 2 << 20, // 2 MiB of "HBM"
            vh_bytes: 16 << 20,
            ..Default::default()
        },
    )
}

#[test]
fn device_oom_is_an_error_not_a_crash() {
    let o = Offload::new(DmaBackend::spawn(
        tiny_machine(),
        0,
        &[0],
        ProtocolConfig::default(),
        aurora_workloads::register_all,
    ));
    let t = NodeId(1);
    // The protocol's own buffers already occupy part of the 2 MiB.
    let err = o.allocate::<f64>(t, 1 << 20).unwrap_err();
    assert!(matches!(err, OffloadError::Mem(_)), "{err}");
    // The runtime still works after the failed allocation.
    assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1);
    let ok = o.allocate::<f64>(t, 64).unwrap();
    o.free(ok).unwrap();
    o.shutdown();
}

#[test]
fn oversized_messages_rejected_on_both_protocols() {
    let small_cfg = ProtocolConfig {
        msg_bytes: 256,
        ..Default::default()
    };
    let veo = Offload::new(VeoBackend::spawn(
        tiny_machine(),
        0,
        &[0],
        small_cfg,
        aurora_workloads::register_all,
    ));
    let dma = Offload::new(DmaBackend::spawn(
        tiny_machine(),
        0,
        &[0],
        small_cfg,
        aurora_workloads::register_all,
    ));
    for (name, o) in [("veo", &veo), ("dma", &dma)] {
        let err = o.sync(NodeId(1), f2f!(echo, vec![0u8; 4096])).unwrap_err();
        assert!(
            matches!(&err, OffloadError::Backend(m) if m.contains("exceeds")),
            "{name}: {err}"
        );
        // Small messages still flow afterwards.
        assert_eq!(
            o.sync(NodeId(1), f2f!(echo, vec![7u8; 32])).unwrap(),
            vec![7u8; 32],
            "{name}"
        );
    }
    veo.shutdown();
    dma.shutdown();
}

#[test]
fn oversized_results_become_error_frames_not_hangs() {
    // Regression: a request that fits the slot can produce a result that
    // does not (results carry ~9 bytes of framing on top of the output).
    // The target must answer with an error frame instead of dying.
    let small_cfg = ProtocolConfig {
        msg_bytes: 256,
        ..Default::default()
    };
    for (name, o) in [
        (
            "veo",
            Offload::new(VeoBackend::spawn(
                tiny_machine(),
                0,
                &[0],
                small_cfg,
                aurora_workloads::register_all,
            )),
        ),
        (
            "dma",
            Offload::new(DmaBackend::spawn(
                tiny_machine(),
                0,
                &[0],
                small_cfg,
                aurora_workloads::register_all,
            )),
        ),
    ] {
        // Request: 8 + 248 = 256 bytes (fits exactly). Result frame:
        // 1 + 8 + 248 = 257 bytes (does not fit).
        let blob = vec![9u8; 248];
        let err = o.sync(NodeId(1), f2f!(echo, blob)).unwrap_err();
        assert!(
            matches!(&err, OffloadError::Backend(m) if m.contains("exceeds")),
            "{name}: {err}"
        );
        // The target loop survived and keeps serving.
        assert_eq!(o.sync(NodeId(1), f2f!(whoami)).unwrap(), 1, "{name}");
        o.shutdown();
    }
}

#[test]
fn double_free_is_rejected_everywhere() {
    for o in [
        veo_offload(1, aurora_workloads::register_all),
        dma_offload(1, aurora_workloads::register_all),
        tcp_offload(1, aurora_workloads::register_all),
    ] {
        let b = o.allocate::<u64>(NodeId(1), 8).unwrap();
        o.free(b).unwrap();
        assert!(matches!(o.free(b), Err(OffloadError::Mem(_))));
        o.shutdown();
    }
}

#[test]
fn out_of_bounds_put_is_rejected_everywhere() {
    for o in [
        veo_offload(1, aurora_workloads::register_all),
        dma_offload(1, aurora_workloads::register_all),
        tcp_offload(1, aurora_workloads::register_all),
    ] {
        let b = o.allocate::<f64>(NodeId(1), 4).unwrap();
        // More elements than the buffer: caught at the API layer.
        assert!(o.put(&[0.0; 8], b).is_err());
        // Within bounds still works.
        o.put(&[1.0; 4], b).unwrap();
        o.shutdown();
    }
}

#[test]
fn kernel_panics_do_not_poison_other_backends() {
    // A kernel that errors internally (reads beyond its buffer) returns
    // an error frame; the target loop keeps serving.
    ham::ham_kernel! {
        pub fn reads_too_far(ctx, addr: u64) -> f64 {
            match ctx.mem.read_f64s(addr, 1_000_000_000) {
                Ok(v) => v.iter().sum(),
                Err(_) => f64::NAN, // graceful: report NaN
            }
        }
    }
    let o = Offload::new(DmaBackend::spawn(
        tiny_machine(),
        0,
        &[0],
        ProtocolConfig::default(),
        |b| {
            b.register::<reads_too_far>();
            aurora_workloads::register_all(b);
        },
    ));
    let r = o.sync(NodeId(1), f2f!(reads_too_far, 0)).unwrap();
    assert!(r.is_nan());
    // The loop survived; normal traffic continues.
    assert_eq!(o.sync(NodeId(1), f2f!(whoami)).unwrap(), 1);
    o.shutdown();
}

#[test]
fn a_panicking_kernel_errors_the_future_instead_of_hanging() {
    // A kernel that panics kills the VE worker thread; pending and
    // subsequent operations must turn into errors, not infinite spins.
    ham::ham_kernel! {
        pub fn kernel_panics(_ctx) -> u64 {
            panic!("deliberate kernel crash");
        }
    }
    let o = Offload::new(DmaBackend::spawn(
        tiny_machine(),
        0,
        &[0],
        ProtocolConfig::default(),
        |b| {
            b.register::<kernel_panics>();
            aurora_workloads::register_all(b);
        },
    ));
    let err = o.sync(NodeId(1), f2f!(kernel_panics)).unwrap_err();
    assert!(matches!(err, OffloadError::TargetLost(NodeId(1))), "{err}");
    // The dead target's channel is evicted: posting to it also errors
    // promptly with the latched eviction error, and nothing leaks.
    let err = o.sync(NodeId(1), f2f!(whoami)).unwrap_err();
    assert!(matches!(err, OffloadError::TargetLost(NodeId(1))), "{err}");
    assert_eq!(o.in_flight(NodeId(1)).unwrap(), 0, "leaked pending entry");
    o.shutdown();
}

#[test]
fn tcp_peer_disconnect_mid_offload_is_a_clean_error() {
    // Cut a TCP peer's sockets with offloads in flight: every affected
    // future must settle with a clean `OffloadError` (no hang, no
    // panic), and the same `Offload` handle must keep working for the
    // surviving target.
    let o = tcp_offload(2, aurora_workloads::register_all);
    let dead = NodeId(1);
    let alive = NodeId(2);
    let doomed: Vec<_> = (0..20)
        .map(|_| o.async_(dead, f2f!(whoami)).unwrap())
        .collect();
    let fine: Vec<_> = (0..20)
        .map(|_| o.async_(alive, f2f!(whoami)).unwrap())
        .collect();
    o.kill_target(dead).unwrap();
    // In-flight offloads on the dead peer either completed before the
    // disconnect or fail with TargetLost — nothing hangs.
    for r in o.wait_all(doomed) {
        match r {
            Ok(n) => assert_eq!(n, 1),
            Err(e) => assert!(matches!(e, OffloadError::TargetLost(NodeId(1))), "{e}"),
        }
    }
    // The survivor is untouched; the handle stays usable.
    for r in o.wait_all(fine) {
        assert_eq!(r.unwrap(), 2);
    }
    assert_eq!(o.sync(alive, f2f!(whoami)).unwrap(), 2);
    // The reader thread latches the eviction as soon as it sees EOF;
    // wait for it (bounded) so the fail-fast assertions are race-free.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while o.backend().channel(dead).unwrap().eviction().is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never latched"
        );
        std::thread::yield_now();
    }
    // The dead peer's channel is evicted: posts fail fast, nothing
    // leaks in its pending table.
    let err = o.sync(dead, f2f!(whoami)).unwrap_err();
    assert!(matches!(err, OffloadError::TargetLost(NodeId(1))), "{err}");
    assert_eq!(o.in_flight(dead).unwrap(), 0, "leaked pending entry");
    o.shutdown();
}

#[test]
fn refused_post_to_a_dead_ve_latches_the_eviction() {
    // Kill a VE with nothing in flight: no flag sweep will ever observe
    // the death, so the post path must latch the eviction itself when
    // the transport refuses the frame — or a caller waiting for the
    // eviction (as `TargetPool` users do) would retry forever.
    for o in [
        veo_offload(1, aurora_workloads::register_all),
        dma_offload(1, aurora_workloads::register_all),
    ] {
        let dead = NodeId(1);
        assert_eq!(o.sync(dead, f2f!(whoami)).unwrap(), 1);
        o.kill_target(dead).unwrap();
        // Posts may still ride the dying process (and complete or fail)
        // until the first one is refused.
        let refused = loop {
            match o.async_(dead, f2f!(whoami)) {
                Ok(f) => drop(f.get()),
                Err(e) => break e,
            }
        };
        assert!(matches!(refused, OffloadError::TargetLost(NodeId(1))));
        let latched = o.backend().channel(dead).unwrap().eviction();
        assert_eq!(latched, Some(OffloadError::TargetLost(dead)));
        assert_eq!(o.in_flight(dead).unwrap(), 0, "leaked pending entry");
        o.shutdown();
    }
}

/// A VE that waited on an empty slot for longer than its spin window
/// (it yields on every peek by then) still serves the next `sync`, and
/// so does one caught inside the window.
fn idle_target_serves_the_next_sync(make: fn() -> Offload, what: &'static str) {
    watchdog(what, Duration::from_secs(60), move || {
        let o = make();
        let t = NodeId(1);
        for idle in [SPIN * 20, Duration::ZERO, SPIN / 2, SPIN * 2, SPIN * 20] {
            std::thread::sleep(idle);
            assert_eq!(o.sync(t, f2f!(whoami)).unwrap(), 1, "after {idle:?} idle");
        }
        o.shutdown();
    });
}

#[test]
fn idle_target_serves_the_next_sync_dma() {
    idle_target_serves_the_next_sync(
        || dma_offload(1, aurora_workloads::register_all),
        "a DMA target idle for 20 x SPIN",
    );
}

#[test]
fn idle_target_serves_the_next_sync_veo() {
    idle_target_serves_the_next_sync(
        || veo_offload(1, aurora_workloads::register_all),
        "a VEO target idle for 20 x SPIN",
    );
}

#[test]
fn a_ve_killed_during_its_idle_spin_is_evicted() {
    // Kill the VE right after a `sync`, while it polls its next slot:
    // the poll loop checks the kill on every peek, spinning or not, so
    // the VE dies there and the host evicts the channel.
    for (make, what) in [
        (
            (|| veo_offload(1, aurora_workloads::register_all)) as fn() -> Offload,
            "a VEO target killed while idle",
        ),
        (
            || dma_offload(1, aurora_workloads::register_all),
            "a DMA target killed while idle",
        ),
    ] {
        watchdog(what, Duration::from_secs(60), move || {
            let o = make();
            let dead = NodeId(1);
            assert_eq!(o.sync(dead, f2f!(whoami)).unwrap(), 1);
            o.kill_target(dead).unwrap();
            let err = loop {
                match o.async_(dead, f2f!(whoami)) {
                    Ok(f) => {
                        if let Err(e) = f.get() {
                            break e;
                        }
                    }
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, OffloadError::TargetLost(NodeId(1))), "{err}");
            let latched = o.backend().channel(dead).unwrap().eviction();
            assert_eq!(latched, Some(OffloadError::TargetLost(dead)));
            assert_eq!(o.in_flight(dead).unwrap(), 0, "leaked pending entry");
            o.shutdown();
        });
    }
}

ham::ham_kernel! {
    /// Slow in wall time only: the host sweeps (and re-sends) many times
    /// while the VE is busy with it.
    pub fn dawdle(ctx) -> u16 {
        std::thread::sleep(std::time::Duration::from_micros(300));
        ctx.node
    }
}

/// Regression: the channel kept the *unsent* marker of a failed offload
/// in a set only `TargetPool` ever cleared, so offloads that failed
/// unsent and were claimed through a plain `Future` left their seq
/// behind for the life of the channel. The marker now travels with the
/// parked completion and goes when that is claimed.
#[test]
fn unsent_failures_claimed_by_plain_futures_leave_nothing_behind() {
    use ham_aurora_repro::BatchConfig;
    const N: usize = 5;
    let opts = OffloadOptions {
        batch: BatchConfig::up_to(64),
        ..Default::default()
    };
    let o = offload_with(BackendKind::Local, 1, opts, aurora_workloads::register_all);
    let t = NodeId(1);
    let chan = o.backend().channel(t).unwrap();
    let staged: Vec<_> = (0..N).map(|_| o.async_(t, f2f!(whoami)).unwrap()).collect();
    assert_eq!(chan.staged_len(), N);
    let lost = OffloadError::TargetLost(t);
    assert_eq!(chan.evict(lost.clone()), Some(N));
    for f in staged {
        assert_eq!(f.get().unwrap_err(), lost);
    }
    assert_eq!(chan.tracked_seqs(), 0, "every seq went with its claim");
    o.shutdown();
}

#[test]
fn spurious_resends_do_not_wedge_the_ve_cursor() {
    // A recovery policy that re-sends after one fruitless sweep re-sends
    // frames that are only slow, not lost. A copy sent after the VE took
    // the original stays in its recv slot, flag raised. A full rotation
    // later the VE used to consume it as the next position (the runtime
    // dedups it, so no result shows the damage) and from then on waited
    // one slot ahead of the host: the host's next frame — at the end of
    // a run the Control frame of `shutdown` — was never seen.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for kind in [BackendKind::Veo, BackendKind::Dma] {
            let opts = OffloadOptions {
                recovery: Some(RecoveryPolicy {
                    retry_after_misses: 1,
                    max_retries: 40,
                }),
                ..OffloadOptions::default()
            };
            let o = offload_with(kind, 1, opts, |b| {
                b.register::<dawdle>();
            });
            let t = NodeId(1);
            // Three rotations of the default eight recv slots.
            for _ in 0..24 {
                assert_eq!(o.sync(t, f2f!(dawdle)).unwrap(), 1, "{kind:?}");
            }
            let snap = o.metrics_snapshot();
            assert!(snap.resends >= 1, "{kind:?}: the policy never re-sent");
            assert_eq!(snap.timeouts, 0, "{kind:?}");
            assert_eq!(o.in_flight(t).unwrap(), 0, "{kind:?}: leaked pending entry");
            o.shutdown();
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a spuriously re-sent frame wedged the VE's slot cursor");
}

#[test]
fn shm_segments_survive_no_unwind() {
    // Regression: a panic between spawn and shutdown used to leak the
    // SysV segment (and its key) forever. The RAII guard must IPC_RMID
    // on unwind, and the VE-side detach (after ham_main exits) must let
    // the segment actually disappear.
    let m = tiny_machine();
    let shm = Arc::clone(m.shm());
    let before = shm.segment_count();
    let result = std::panic::catch_unwind(|| {
        let o = Offload::new(DmaBackend::spawn(
            Arc::clone(&m),
            0,
            &[0],
            ProtocolConfig::default(),
            aurora_workloads::register_all,
        ));
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
        panic!("simulated application crash before shutdown");
    });
    assert!(result.is_err(), "the panic must propagate");
    assert_eq!(
        shm.segment_count(),
        before,
        "shm segment leaked across unwind"
    );
}

#[test]
fn shm_keys_are_reclaimed_across_backend_generations() {
    // Spawning and tearing down backends repeatedly must reuse keys from
    // the pool instead of marching through the key space.
    let m = tiny_machine();
    let shm = Arc::clone(m.shm());
    let mut keys = std::collections::HashSet::new();
    for _ in 0..5 {
        let backend = DmaBackend::spawn(
            Arc::clone(&m),
            0,
            &[0],
            ProtocolConfig::default(),
            aurora_workloads::register_all,
        );
        keys.insert(backend.transport(NodeId(1)).unwrap().shm_key());
        let o = Offload::new(backend);
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
        o.shutdown();
    }
    // Exact reuse is covered by the pool's unit test; here we only
    // require that five generations do not burn five fresh keys (other
    // tests share the process-global pool concurrently).
    assert!(keys.len() < 5, "keys not reclaimed: {keys:?}");
    assert_eq!(shm.segment_count(), 0);
}

#[test]
fn concurrent_host_threads_share_one_offload_handle() {
    // Offload is Clone + Send; several host threads posting to the same
    // target must not corrupt slot bookkeeping.
    let o = dma_offload(1, aurora_workloads::register_all);
    std::thread::scope(|s| {
        for t in 0..4 {
            let o = o.clone();
            s.spawn(move || {
                for i in 0..25u64 {
                    let blob = vec![(t * 25 + i) as u8; 100];
                    let r = o.sync(NodeId(1), f2f!(echo, blob.clone())).unwrap();
                    assert_eq!(r, blob);
                }
            });
        }
    });
    o.shutdown();
}

#[test]
fn concurrent_host_threads_on_tcp_backend() {
    let o = tcp_offload(1, aurora_workloads::register_all);
    std::thread::scope(|s| {
        for t in 0..4 {
            let o = o.clone();
            s.spawn(move || {
                for i in 0..10u64 {
                    let blob = vec![(t * 10 + i) as u8; 64];
                    let r = o.sync(NodeId(1), f2f!(echo, blob.clone())).unwrap();
                    assert_eq!(r, blob);
                }
            });
        }
    });
    o.shutdown();
}
