//! Per-target health aggregation and the structured event log.
//!
//! Every backend owns a [`HealthRegistry`]; each target registers at
//! spawn and the runtime records lifecycle events (fault injected,
//! retry, timeout, eviction, failover, reconnect) as they happen. The
//! registry derives a coarse [`TargetState`] per target from those
//! events and keeps a bounded ring of [`HealthEvent`]s for the SLO
//! evaluator.
//!
//! Events carry a *correlation id* (`corr`): the offload id the event
//! belongs to, the same id that rides the wire header's `corr` field
//! and tags flight-recorder spans — so an eviction in the event log can
//! be lined up with the spans of the offload that triggered it.
//!
//! Each event is recorded once: [`HealthRegistry::record`] pushes it
//! onto the ring *and* bumps its kind's count, and those counts are the
//! backend's `resends`/`timeouts`/`evictions`/... counters — so a
//! counter cannot disagree with the log it summarises, and the count
//! survives the ring dropping old events.
//!
//! Times are raw `u64` picoseconds of virtual time, like everything
//! else in this crate. Recording takes two short mutexes (the event log
//! is not on the warm offload completion path — only fault-handling
//! paths, the prober and the batching controller record events).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on retained events; older events are dropped (counted by
/// [`HealthRegistry::dropped`], still counted by
/// [`HealthRegistry::count`]) so a long soak cannot grow without bound.
pub(crate) const MAX_HEALTH_EVENTS: usize = 4096;

/// Coarse per-target health, derived from the event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetState {
    /// Registered, no trouble observed since the last reconnect.
    Healthy,
    /// Saw a fault or retried a frame but is still serving.
    Degraded,
    /// Removed from service; pending work was failed over or failed.
    Evicted,
}

impl TargetState {
    /// Stable lower-case name, used by the exposition surfaces.
    pub fn name(self) -> &'static str {
        match self {
            TargetState::Healthy => "healthy",
            TargetState::Degraded => "degraded",
            TargetState::Evicted => "evicted",
        }
    }
}

/// What happened to a target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEventKind {
    /// A fault was deliberately injected (e.g. `kill_target`).
    FaultInjected,
    /// The recovery policy re-sent a frame.
    Retry,
    /// An offload exhausted its retries.
    Timeout,
    /// The target was evicted; its pending entries were failed.
    Eviction,
    /// The scheduler re-submitted unsent work to a survivor.
    Failover,
    /// The target came back into service.
    Reconnect,
    /// The transport link dropped; the target is degraded but its
    /// session may still resume (reconnect budget permitting).
    Disconnect,
    /// A health probe (ping) answered. A degraded target that answers
    /// probes is reachable again: the probe heals it back to
    /// [`TargetState::Healthy`] (an evicted target stays evicted —
    /// eviction is latched).
    Probe,
    /// A health probe went unanswered: the prober could not complete a
    /// ping round trip. Degrades a healthy target — unanswered probes
    /// are the earliest liveness signal, arriving before any offload
    /// traffic fails on the link.
    ProbeMiss,
    /// The adaptive batching controller widened a channel's watermark;
    /// no state change.
    BatchWiden,
    /// The adaptive batching controller narrowed a channel's watermark;
    /// no state change.
    BatchNarrow,
    /// A staged batch envelope was flushed by the latency-SLO age bound
    /// rather than a count/byte watermark; no state change.
    SloFlush,
}

impl HealthEventKind {
    /// Number of kinds: the length of the registry's per-kind counts.
    const COUNT: usize = HealthEventKind::SloFlush as usize + 1;

    /// Stable lower-case name, used by the exposition surfaces.
    pub fn name(self) -> &'static str {
        match self {
            HealthEventKind::FaultInjected => "fault_injected",
            HealthEventKind::Retry => "retry",
            HealthEventKind::Timeout => "timeout",
            HealthEventKind::Eviction => "eviction",
            HealthEventKind::Failover => "failover",
            HealthEventKind::Reconnect => "reconnect",
            HealthEventKind::Disconnect => "disconnect",
            HealthEventKind::Probe => "probe",
            HealthEventKind::ProbeMiss => "probe_miss",
            HealthEventKind::BatchWiden => "batch_widen",
            HealthEventKind::BatchNarrow => "batch_narrow",
            HealthEventKind::SloFlush => "slo_flush",
        }
    }
}

/// One entry in the structured event log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthEvent {
    /// Position in the registry's total event stream (0-based, counts
    /// dropped events too) — a stable ordering key.
    pub ordinal: u64,
    /// The target the event concerns.
    pub node: u16,
    /// What happened.
    pub kind: HealthEventKind,
    /// Offload correlation id (0 when the event is not tied to one
    /// offload, e.g. an injected kill). Matches the flight recorder's
    /// `OffloadId` and the wire header's `corr` field.
    pub corr: u64,
    /// Virtual time of the event, raw picoseconds.
    pub at_ps: u64,
}

/// Aggregates per-target state, the bounded event log and the per-kind
/// event counts.
///
/// One registry per backend (handed out by `BackendMetrics::health()`
/// in `sim-core`), not process-global: tests and multi-backend
/// processes each see only their own targets.
#[derive(Debug, Default)]
pub struct HealthRegistry {
    // BTreeMap so iteration order — and therefore every report — is
    // sorted by node id, independent of registration order.
    states: Mutex<BTreeMap<u16, TargetState>>,
    log: Mutex<EventLog>,
    /// Events ever recorded, per [`HealthEventKind`] (indexed by
    /// discriminant); not bounded by the ring.
    counts: [AtomicU64; HealthEventKind::COUNT],
}

/// The ring and the ordinal counter, under one lock so ordinals enter
/// the ring in increasing order.
#[derive(Debug, Default)]
struct EventLog {
    ring: VecDeque<HealthEvent>,
    /// Ordinals issued so far — every event ever recorded.
    issued: u64,
}

impl HealthRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `node` as [`TargetState::Healthy`]. Idempotent; called
    /// by every backend at spawn for each of its targets.
    pub fn register(&self, node: u16) {
        self.states
            .lock()
            .unwrap()
            .entry(node)
            .or_insert(TargetState::Healthy);
    }

    /// Record an event: update the target's derived state, append the
    /// event to the log and count it under its kind.
    ///
    /// `Retry`/`Timeout`/`FaultInjected`/`Disconnect`/`ProbeMiss`
    /// degrade a healthy target, `Eviction` evicts it, `Reconnect`
    /// restores a degraded *or evicted* target to healthy (a resumed
    /// session is serving again), an answered `Probe` heals a degraded
    /// target only (eviction stays latched against probes); `Failover`
    /// describes the *survivor* receiving work and, like the batching
    /// kinds, does not change state.
    pub fn record(&self, node: u16, kind: HealthEventKind, corr: u64, at_ps: u64) {
        {
            let mut states = self.states.lock().unwrap();
            let state = states.entry(node).or_insert(TargetState::Healthy);
            match kind {
                HealthEventKind::FaultInjected
                | HealthEventKind::Retry
                | HealthEventKind::Timeout
                | HealthEventKind::Disconnect
                | HealthEventKind::ProbeMiss => {
                    if *state == TargetState::Healthy {
                        *state = TargetState::Degraded;
                    }
                }
                HealthEventKind::Eviction => *state = TargetState::Evicted,
                HealthEventKind::Reconnect => *state = TargetState::Healthy,
                HealthEventKind::Probe => {
                    // An answered probe proves the target reachable;
                    // only eviction is latched.
                    if *state == TargetState::Degraded {
                        *state = TargetState::Healthy;
                    }
                }
                HealthEventKind::Failover
                | HealthEventKind::BatchWiden
                | HealthEventKind::BatchNarrow
                | HealthEventKind::SloFlush => {}
            }
        }
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        let mut log = self.log.lock().unwrap();
        if log.ring.len() == MAX_HEALTH_EVENTS {
            log.ring.pop_front();
        }
        let ordinal = log.issued;
        log.issued += 1;
        log.ring.push_back(HealthEvent {
            ordinal,
            node,
            kind,
            corr,
            at_ps,
        });
    }

    /// Events of `kind` ever recorded, including those the ring has
    /// since dropped.
    pub fn count(&self, kind: HealthEventKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Current state of `node`, if registered (or mentioned by an
    /// event).
    pub fn state(&self, node: u16) -> Option<TargetState> {
        self.states.lock().unwrap().get(&node).copied()
    }

    /// The retained event log, oldest first.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.log.lock().unwrap().ring.iter().copied().collect()
    }

    /// Retained events concerning `node`, oldest first.
    pub fn events_for(&self, node: u16) -> Vec<HealthEvent> {
        let log = self.log.lock().unwrap();
        log.ring
            .iter()
            .filter(|e| e.node == node)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_degrade_evict_reconnect() {
        let r = HealthRegistry::new();
        r.register(1);
        r.register(2);
        assert_eq!(r.state(1), Some(TargetState::Healthy));

        r.record(1, HealthEventKind::Retry, 7, 100);
        assert_eq!(r.state(1), Some(TargetState::Degraded));
        r.record(1, HealthEventKind::Eviction, 7, 200);
        assert_eq!(r.state(1), Some(TargetState::Evicted));
        // Once evicted, a retry does not un-evict.
        r.record(1, HealthEventKind::Retry, 8, 250);
        assert_eq!(r.state(1), Some(TargetState::Evicted));
        r.record(1, HealthEventKind::Reconnect, 0, 300);
        assert_eq!(r.state(1), Some(TargetState::Healthy));
        // Node 2 was never touched.
        assert_eq!(r.state(2), Some(TargetState::Healthy));

        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, HealthEventKind::Retry);
        assert_eq!(evs[0].corr, 7);
        assert!(evs.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        assert_eq!(r.events_for(2), vec![]);
    }

    #[test]
    fn failover_event_leaves_survivor_state_alone() {
        let r = HealthRegistry::new();
        r.register(2);
        r.record(2, HealthEventKind::Failover, 9, 500);
        assert_eq!(r.state(2), Some(TargetState::Healthy));
        assert_eq!(r.events_for(2).len(), 1);
    }

    #[test]
    fn disconnect_degrades_and_answered_probe_heals() {
        let r = HealthRegistry::new();
        r.register(4);
        r.record(4, HealthEventKind::Probe, 0, 50);
        assert_eq!(r.state(4), Some(TargetState::Healthy));
        r.record(4, HealthEventKind::Disconnect, 0, 100);
        assert_eq!(r.state(4), Some(TargetState::Degraded));
        // An answered probe proves the target reachable again — the
        // background prober drives the degraded→healed edge without
        // waiting for a caller to touch the channel.
        r.record(4, HealthEventKind::Probe, 0, 150);
        assert_eq!(r.state(4), Some(TargetState::Healthy));
        assert_eq!(HealthEventKind::Disconnect.name(), "disconnect");
        assert_eq!(HealthEventKind::Probe.name(), "probe");
    }

    #[test]
    fn probe_miss_degrades_but_never_unevicts() {
        let r = HealthRegistry::new();
        r.register(5);
        r.record(5, HealthEventKind::ProbeMiss, 0, 100);
        assert_eq!(r.state(5), Some(TargetState::Degraded));
        // A miss streak keeps it degraded; an answered probe heals.
        r.record(5, HealthEventKind::ProbeMiss, 0, 200);
        assert_eq!(r.state(5), Some(TargetState::Degraded));
        r.record(5, HealthEventKind::Probe, 0, 300);
        assert_eq!(r.state(5), Some(TargetState::Healthy));
        // Eviction is latched: neither probes nor misses move it.
        r.record(5, HealthEventKind::Eviction, 0, 400);
        r.record(5, HealthEventKind::Probe, 0, 500);
        assert_eq!(r.state(5), Some(TargetState::Evicted));
        assert_eq!(HealthEventKind::ProbeMiss.name(), "probe_miss");
    }

    #[test]
    fn event_ring_is_bounded() {
        let r = HealthRegistry::new();
        for i in 0..(MAX_HEALTH_EVENTS as u64 + 10) {
            r.record(1, HealthEventKind::Retry, i, i);
        }
        let evs = r.events();
        assert_eq!(evs.len(), MAX_HEALTH_EVENTS);
        // Oldest retained event is the 11th ever recorded.
        assert_eq!(evs[0].ordinal, 10);
        // The count covers dropped events too.
        assert_eq!(r.count(HealthEventKind::Retry), 4106);
        assert_eq!(r.count(HealthEventKind::Timeout), 0);
    }

    /// A stress test, not a proof: with the ordinal issued outside the
    /// log lock, two recorders could enter the ring out of ordinal
    /// order. The barrier starts all four at once to maximise overlap.
    #[test]
    fn concurrent_recorders_keep_ordinals_in_ring_order() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let r = HealthRegistry::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        r.record(t as u16, HealthEventKind::Probe, i, i);
                    }
                });
            }
        });
        let evs = r.events();
        assert!(
            evs.windows(2).all(|w| w[0].ordinal < w[1].ordinal),
            "ordinals must strictly increase along the ring"
        );
        let total = THREADS * PER_THREAD;
        assert_eq!(r.count(HealthEventKind::Probe), total);
        // Every record drew an ordinal; the newest one is retained.
        assert_eq!(evs.last().unwrap().ordinal + 1, total);
    }

    #[test]
    fn registered_nodes_have_a_state() {
        let r = HealthRegistry::new();
        r.register(3);
        r.register(1);
        assert!(r.state(1).is_some() && r.state(3).is_some());
        assert_eq!(r.state(2), None);
    }
}
