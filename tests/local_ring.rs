//! The in-process slot arrays of `LocalBackend` under shuffled
//! schedules: several host threads posting into one target's rotation,
//! slot buffers that must grow, a target that parks between bursts, and
//! shutdown from every state the target can be in. Each case runs under
//! a watchdog, so a lost wake-up or a wedged rotation fails by name
//! instead of hanging the suite.

use aurora_workloads::kernels::{echo, whoami};
use ham::f2f;
use ham_aurora_repro::offload::chan::backoff::SPIN;
use ham_aurora_repro::offload::local::LocalBackend;
use ham_aurora_repro::sim_core::rng::SplitMix64;
use ham_aurora_repro::{NodeId, Offload, OffloadError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const T: NodeId = NodeId(1);

fn spawn() -> Offload {
    Offload::new(LocalBackend::spawn(1, |b| {
        b.register::<echo>();
        b.register::<whoami>();
    }))
}

/// Run `body` on its own thread; a run longer than `limit` fails as
/// `what` hanging.
fn watchdog(what: &str, limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
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

/// A seeded pause: mostly none, sometimes a yield, now and then a sleep
/// long enough for the target to park.
fn jitter(rng: &mut SplitMix64) {
    match rng.next_below(16) {
        0..=9 => {}
        10..=13 => thread::yield_now(),
        _ => thread::sleep(Duration::from_micros(rng.next_below(120))),
    }
}

#[test]
fn four_hosts_share_one_target_rotation() {
    const HOSTS: u64 = 4;
    const OFFLOADS: usize = 2_000;
    const MAX_LEN: u64 = 16 << 10;
    watchdog(
        "four hosts on one rotation",
        Duration::from_secs(120),
        || {
            let o = spawn();
            thread::scope(|s| {
                for h in 0..HOSTS {
                    let o = &o;
                    s.spawn(move || {
                        let mut rng = SplitMix64::new(0x5107 + h);
                        let mut window = VecDeque::new();
                        for i in 0..OFFLOADS {
                            let len = match rng.next_below(8) {
                                0 => 0,
                                1 => MAX_LEN as usize,
                                _ => rng.next_below(MAX_LEN + 1) as usize,
                            };
                            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                            jitter(&mut rng);
                            let f = o.async_(T, f2f!(echo, data.clone())).expect("post");
                            window.push_back((i, data, f));
                            // Keep a seeded number (0-7) in flight.
                            while window.len() > rng.next_below(8) as usize {
                                jitter(&mut rng);
                                let (i, data, f) = window.pop_front().expect("non-empty");
                                let back = f.get().expect("echo");
                                assert!(back == data, "host {h}, offload {i}: echo differs");
                            }
                        }
                        for (i, data, f) in window {
                            assert!(f.get().expect("echo") == data, "host {h}, offload {i}");
                        }
                    });
                }
            });
            let chan = o.backend().channel(T).expect("target 1");
            assert_eq!(chan.tracked_seqs(), 0, "every seq went with its claim");
            o.shutdown();
        },
    );
}

#[test]
fn syncs_after_the_target_parked_all_complete() {
    watchdog(
        "sync after the spin window",
        Duration::from_secs(60),
        || {
            let o = spawn();
            for round in 0..300 {
                thread::sleep(SPIN * 2);
                assert_eq!(o.sync(T, f2f!(whoami)), Ok(1), "round {round}");
            }
            o.shutdown();
        },
    );
}

#[test]
fn shutdown_joins_a_parked_target() {
    watchdog(
        "shutdown of a parked target",
        Duration::from_secs(30),
        || {
            let o = spawn();
            assert_eq!(o.sync(T, f2f!(whoami)), Ok(1));
            thread::sleep(SPIN * 20);
            let t0 = Instant::now();
            o.shutdown();
            let took = t0.elapsed();
            assert!(took < Duration::from_secs(1), "join took {took:?}");
        },
    );
}

#[test]
fn shutdown_after_eviction_joins() {
    watchdog("shutdown after eviction", Duration::from_secs(30), || {
        let o = spawn();
        assert_eq!(o.sync(T, f2f!(whoami)), Ok(1));
        let chan = o.backend().channel(T).expect("target 1");
        assert_eq!(chan.evict(OffloadError::TargetLost(T)), Some(0));
        assert_eq!(
            o.sync(T, f2f!(whoami)),
            Err(OffloadError::TargetLost(T)),
            "an evicted channel refuses posts"
        );
        o.shutdown();
    });
}
