//! Acceptance matrix for the fault-injection subsystem.
//!
//! Every test here is a [`Scenario`]: a seeded fault plan, a traffic
//! shape, and (optionally) a mid-stream kill — run twice to pin the
//! semantic failure timeline (same seed ⇒ same drops/kills/disconnects)
//! and checked for leaks (`in_flight` must return to zero on every
//! target, dead or alive).
//!
//! The headline matrix kills one of two targets while a wave of
//! offloads is in flight, on **every** fault-capable backend (VEO, DMA,
//! TCP) under **eight** seeds: in-flight offloads on the dead target
//! fail with `TargetLost`, every survivor offload completes correctly,
//! and no in-flight frame record leaks.

use ham_aurora_repro::fault_scenario::{BackendKind, Scenario};
use ham_aurora_repro::sim_core::SimTime;
use ham_aurora_repro::RecoveryPolicy;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 42, 0xA770_57E5];

/// Kill target 1 of 2 while wave 1 of 3 is in flight; target 2 must be
/// completely unaffected and nothing may hang or leak.
fn kill_one_of_two(backend: BackendKind) {
    for seed in SEEDS {
        let r = Scenario::new(backend, 2, seed)
            .waves(3, 4)
            .kill_after_wave(1, 1)
            .assert_deterministic();
        let label = format!("{} seed {seed}", backend.name());

        // Every offload is accounted for, with no stray failure mode.
        assert_eq!(r.total(), 24, "{label}: {:?}", r.outcomes);
        assert_eq!(
            r.ok + r.lost + r.refused,
            24,
            "{label}: unexpected timeouts/failures: {:?}",
            r.outcomes
        );

        // The survivor completes all 12 offloads with correct results.
        let survivor_ok = r
            .outcomes
            .iter()
            .filter(|l| l.contains("t2") && l.ends_with("ok"))
            .count();
        assert_eq!(survivor_ok, 12, "{label}: survivor hit: {:?}", r.outcomes);

        // Wave 0 was collected before the kill: the doomed target still
        // served it.
        assert!(
            r.outcomes
                .iter()
                .filter(|l| l.starts_with("w0 t1"))
                .all(|l| l.ends_with("ok")),
            "{label}: pre-kill wave must complete: {:?}",
            r.outcomes
        );

        // The kill actually cost something on the doomed target.
        assert!(r.lost + r.refused > 0, "{label}: kill had no effect");

        // Recovery bookkeeping: one eviction, no leaked pending
        // entries, and exactly one semantic fault in the timeline (the
        // kill/disconnect itself).
        assert_eq!(r.leaked, 0, "{label}: leaked pending entries");
        assert!(r.evictions >= 1, "{label}: no eviction recorded");
        assert_eq!(r.timeline.len(), 1, "{label}: timeline {:?}", r.timeline);
    }
}

#[test]
fn kill_one_of_two_targets_veo() {
    kill_one_of_two(BackendKind::Veo);
}

#[test]
fn kill_one_of_two_targets_dma() {
    kill_one_of_two(BackendKind::Dma);
}

#[test]
fn kill_one_of_two_targets_tcp() {
    kill_one_of_two(BackendKind::Tcp);
}

/// Moderate frame loss with a retry budget: every offload still
/// completes (the serial outcome list replays exactly), and at least
/// one re-send was needed.
fn drops_recovered_by_retries(backend: BackendKind) {
    for seed in [7u64, 1234] {
        let s = Scenario::new(backend, 1, seed)
            .tlp_drop(0.25)
            .recovery(RecoveryPolicy {
                retry_after_misses: 64,
                max_retries: 4,
            })
            .waves(3, 4);
        let a = s.run();
        let b = s.run();
        let label = format!("{} seed {seed}", backend.name());

        // Single-target serial waves: per-offload outcomes replay.
        assert_eq!(a.outcomes, b.outcomes, "{label}");
        // First-attempt drops are pure functions of (seq, attempt) and
        // must replay too (later attempts can race a slow completion,
        // so only the attempt-0 subset is compared).
        let first_attempts = |r: &ham_aurora_repro::fault_scenario::ScenarioReport| {
            r.timeline
                .iter()
                .filter(|l| l.contains("attempt: 0"))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(first_attempts(&a), first_attempts(&b), "{label}");

        assert_eq!(a.ok, 12, "{label}: lost offloads: {:?}", a.outcomes);
        assert_eq!(a.leaked, 0, "{label}");
        assert!(
            !a.timeline.is_empty(),
            "{label}: seed injected no drops — pick another seed"
        );
        assert!(a.resends >= 1, "{label}: drops never retried");
    }
}

#[test]
fn drops_recovered_by_retries_veo() {
    drops_recovered_by_retries(BackendKind::Veo);
}

#[test]
fn drops_recovered_by_retries_dma() {
    drops_recovered_by_retries(BackendKind::Dma);
}

/// Total frame loss: every attempt of every offload is dropped, so the
/// first offload to exhaust its retry budget fails with `Timeout` and
/// the target is evicted (a definitively lost frame is a hole the
/// target's in-order slot cursor can never pass); the rest fail with
/// `TargetLost` — deterministically, with the full drop timeline
/// replayed.
fn total_loss_times_out(backend: BackendKind) {
    let r = Scenario::new(backend, 1, 99)
        .tlp_drop(1.0)
        .recovery(RecoveryPolicy {
            retry_after_misses: 32,
            max_retries: 2,
        })
        .waves(1, 3)
        .assert_deterministic();
    let label = backend.name();

    assert_eq!(r.timed_out, 1, "{label}: {:?}", r.outcomes);
    assert_eq!(r.lost, 2, "{label}: {:?}", r.outcomes);
    assert_eq!(r.ok, 0, "{label}");
    assert_eq!(r.retry_timeouts, 1, "{label}");
    assert_eq!(r.evictions, 1, "{label}");
    assert_eq!(r.resends, 6, "{label}: 2 re-sends per offload");
    assert_eq!(r.leaked, 0, "{label}");
    // 3 offloads × attempts {0, 1, 2} all dropped.
    assert_eq!(r.timeline.len(), 9, "{label}: {:?}", r.timeline);
}

#[test]
fn total_loss_times_out_veo() {
    total_loss_times_out(BackendKind::Veo);
}

#[test]
fn total_loss_times_out_dma() {
    total_loss_times_out(BackendKind::Dma);
}

/// Timing-only faults (TLP replay, delay spikes, DMA stalls, partial
/// transfers) stretch virtual time but change no outcome: everything
/// completes and the *semantic* timeline stays empty.
fn timing_faults_change_no_outcome(backend: BackendKind) {
    let r = Scenario::new(backend, 1, 5)
        .tlp_dup(0.5)
        .delay_spike(0.5, SimTime::from_us(50))
        .dma_stall(0.5, SimTime::from_us(20))
        .dma_partial(0.5)
        .waves(2, 3)
        .run();
    let label = backend.name();
    assert_eq!(r.ok, 6, "{label}: {:?}", r.outcomes);
    assert_eq!(r.leaked, 0, "{label}");
    assert!(
        r.timeline.is_empty(),
        "{label}: timing faults are not semantic: {:?}",
        r.timeline
    );
    assert_eq!(r.resends + r.retry_timeouts + r.evictions, 0, "{label}");
}

#[test]
fn timing_faults_change_no_outcome_veo() {
    timing_faults_change_no_outcome(BackendKind::Veo);
}

#[test]
fn timing_faults_change_no_outcome_dma() {
    timing_faults_change_no_outcome(BackendKind::Dma);
}

/// A zero plan injects nothing on any backend: all offloads succeed,
/// no recovery machinery fires, the timeline is empty.
#[test]
fn zero_plan_is_inert_everywhere() {
    for backend in BackendKind::FAULT_CAPABLE {
        let r = Scenario::new(backend, 2, 0).waves(2, 3).run();
        let label = backend.name();
        assert_eq!(r.ok, 12, "{label}: {:?}", r.outcomes);
        assert_eq!(r.leaked, 0, "{label}");
        assert!(r.timeline.is_empty(), "{label}");
        assert_eq!(r.resends + r.retry_timeouts + r.evictions, 0, "{label}");
    }
}
