//! Virtual-time event tracing — `SimTime`-typed recording facade over
//! the [`aurora_telemetry`] flight recorder.
//!
//! Simulated hardware components call [`record`] for every costed
//! operation (engine reservations, wire occupancy, framework overheads).
//! A [`TraceSession`] collects those spans; the returned [`Trace`] keeps
//! raw picoseconds (compare them against [`SimTime::as_ps`]) and exports
//! text, JSONL, and Chrome trace-event JSON (see
//! `aurora_telemetry::export`). The `repro_trace` harness renders the
//! per-offload timeline — the measured counterpart of the §V-A cost
//! breakdown.
//!
//! Recording state is process-global but guarded: sessions are RAII
//! ([`TraceSession`]) and mutually exclusive, so concurrently running
//! traced tests serialize instead of polluting each other. When no
//! session is active, [`record`] costs a single relaxed atomic load.

use crate::time::SimTime;

pub use aurora_telemetry::{
    current_offload, enabled, mark, next_offload_id, node_scope, offload_scope, retag_since,
    ContextGuard, Mark, OffloadId, Trace, TraceSession, NODE_UNKNOWN,
};

/// Record one operation (no-op unless a session is active). Attribution
/// comes from the calling thread's [`offload_scope`] / [`node_scope`].
#[inline]
pub fn record(category: &'static str, bytes: u64, start: SimTime, end: SimTime) {
    aurora_telemetry::record(category, bytes, start.as_ps(), end.as_ps());
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests each hold a TraceSession; the session lock serializes
    // them, so — unlike the pre-session-guard implementation, which needed
    // one monolithic lifecycle test — they can run as independent tests.

    #[test]
    fn pre_session_events_are_dropped() {
        record("facade.ignored", 0, SimTime::ZERO, SimTime::from_ns(1));
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(!trace.events.iter().any(|e| e.category == "facade.ignored"));
    }

    #[test]
    fn capture_is_sorted_and_timed() {
        let session = TraceSession::start();
        record("facade.late", 8, SimTime::from_ns(10), SimTime::from_ns(20));
        record("facade.early", 64, SimTime::from_ns(5), SimTime::from_ns(9));
        let trace = session.finish();
        let own: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.category.starts_with("facade."))
            .collect();
        assert_eq!(own.len(), 2);
        assert_eq!(own[0].category, "facade.early", "sorted by start");
        assert_eq!(own[0].start_ps, SimTime::from_ns(5).as_ps());
        assert_eq!(own[1].duration_ps(), SimTime::from_ns(10).as_ps());
    }

    /// The binary's tests run concurrently and one of them deliberately
    /// records outside any session; restrict assertions to a test's own
    /// categories so a stray drop-in can't break exact counts.
    fn own(trace: &Trace, prefix: &str) -> usize {
        trace
            .events
            .iter()
            .filter(|e| e.category.starts_with(prefix))
            .count()
    }

    #[test]
    fn sessions_drain_completely() {
        let s1 = TraceSession::start();
        record("drain.first", 0, SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(own(&s1.finish(), "drain."), 1);
        // Buffer drained; a new session sees none of them.
        let s2 = TraceSession::start();
        assert_eq!(own(&s2.finish(), "drain."), 0);
    }

    #[test]
    fn render_includes_attribution() {
        let session = TraceSession::start();
        let id = next_offload_id();
        {
            let _node = node_scope(2);
            let _of = offload_scope(id);
            record("facade.span", 96, SimTime::from_ns(5), SimTime::from_ns(15));
        }
        let rendered = session.finish().render();
        assert!(rendered.contains("facade.span"));
        assert!(rendered.contains(&format!("of{}", id.0)));
        assert!(
            rendered.contains("10.000ns"),
            "duration column:\n{rendered}"
        );
    }

    #[test]
    fn dropped_session_discards_events() {
        let s1 = TraceSession::start();
        record("lost.span", 0, SimTime::ZERO, SimTime::from_ns(1));
        drop(s1);
        let s2 = TraceSession::start();
        assert_eq!(own(&s2.finish(), "lost."), 0);
    }
}
