//! Observability for the simulation stack: the flight recorder, the
//! per-backend metric registers with their snapshots and expositions,
//! the health registry, and service-level objectives.
//!
//! Every communication backend owns a [`BackendMetrics`] (relaxed atomic
//! counters, [`AtomicHistogram`] latency registers, per-target and
//! per-lane registers) and a [`HealthRegistry`].
//! [`BackendMetrics::snapshot`] reads them into a [`MetricsSnapshot`],
//! which renders as text, Prometheus exposition or JSON, and which an
//! [`SloSpec`] checks.
//!
//! Every simulated hardware component records *spans* — costed windows of
//! virtual time such as a uDMA descriptor, a PCIe wire occupancy, or the
//! HAM framework overhead — tagged with the offload they belong to and the
//! node they ran on. A [`TraceSession`] collects those spans and exports
//! them as a text timeline, JSONL, or a Chrome trace-event file loadable
//! in Perfetto (`ui.perfetto.dev`), one track per simulated engine.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** When no session is active, [`record`] is a
//!    single relaxed atomic load — no allocation, no lock, no branch on
//!    thread-local state. Simulation timing tests rely on tracing having
//!    zero *virtual*-time cost either way; this keeps the *wall-clock*
//!    cost negligible too.
//! 2. **Contention-free hot path.** Each recording thread appends to its
//!    own shard; threads never share an event buffer. The old
//!    implementation funnelled every event through one global mutex.
//! 3. **Sessions are serialized.** Recording state is process-global, so
//!    [`TraceSession::start`] holds a lock for the session's lifetime:
//!    concurrent tests queue up instead of polluting each other's traces.
//!    Events recorded outside any session are dropped; events from a
//!    previous session are never visible to the next one.
//!
//! Times are raw `u64` picoseconds: this crate depends on no other crate
//! of the workspace, so it cannot see `sim-core`'s `SimTime`
//! (`aurora_sim_core::trace::record` is the `SimTime`-typed facade).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod backend;
mod export;
mod health;
pub mod json;
mod metrics;
mod slo;

pub use backend::{
    BackendMetrics, LaneMetricsSnapshot, LaneStats, MetricsSnapshot, NodeMetricsSnapshot, WaitPhase,
};
pub use export::{fmt_ps, Trace};
pub use health::{HealthEvent, HealthEventKind, HealthRegistry, TargetState};
pub use metrics::{AtomicHistogram, Histogram, Summary};
pub use slo::{SloReport, SloSpec};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Node id used when a span is recorded outside any [`node_scope`].
pub(crate) const NODE_UNKNOWN: u16 = u16::MAX;

/// Correlation id of one offload (an `async_`/`sync` call), unique within
/// the process. Id 0 means "no offload" and is never handed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OffloadId(pub u64);

impl core::fmt::Display for OffloadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "of{}", self.0)
    }
}

static NEXT_OFFLOAD: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh offload correlation id (monotonic, never 0).
pub fn next_offload_id() -> OffloadId {
    OffloadId(NEXT_OFFLOAD.fetch_add(1, Ordering::Relaxed))
}

/// One recorded span on the virtual timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Component category, `"<engine>.<phase>"` (e.g. `"udma.read"`).
    pub category: &'static str,
    /// Correlation id of the offload this span served (0 = unattributed).
    pub offload: u64,
    /// Node the work ran on (`u16::MAX` if outside a [`node_scope`]).
    pub node: u16,
    /// Operation size in bytes (0 when not applicable).
    pub(crate) bytes: u64,
    /// Virtual start time in picoseconds.
    pub start_ps: u64,
    /// Virtual end time in picoseconds.
    pub end_ps: u64,
}

impl Event {
    /// Span duration in picoseconds.
    pub fn duration_ps(&self) -> u64 {
        self.end_ps.saturating_sub(self.start_ps)
    }

    /// The engine: the category up to the first `'.'` (`"udma.read"` →
    /// `"udma"`). Engines map to Perfetto tracks.
    pub fn engine(&self) -> &'static str {
        match self.category.split_once('.') {
            Some((engine, _)) => engine,
            None => self.category,
        }
    }

    /// The phase: the category after the first `'.'` (`"udma.read"` →
    /// `"read"`).
    pub(crate) fn phase(&self) -> &'static str {
        match self.category.split_once('.') {
            Some((_, phase)) => phase,
            None => self.category,
        }
    }
}

// --- recording state -------------------------------------------------------

/// Active session id; 0 = tracing off. The *only* state the disabled
/// [`record`] path touches.
static ACTIVE: AtomicU64 = AtomicU64::new(0);
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
/// Serializes sessions: held for the lifetime of each [`TraceSession`].
static SESSION_LOCK: Mutex<()> = Mutex::new(());
/// Registry of every thread's shard, for end-of-session draining.
static SHARDS: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());

struct Shard {
    /// `(session, event)` pairs; the session tag lets a drain pick out
    /// exactly its own events even if stale ones linger from a session
    /// that was dropped without `finish()`.
    events: Mutex<Vec<(u64, Event)>>,
}

thread_local! {
    static LOCAL: Arc<Shard> = {
        let shard = Arc::new(Shard {
            events: Mutex::new(Vec::new()),
        });
        SHARDS.lock().unwrap().push(Arc::clone(&shard));
        shard
    };
    /// `(offload, node)` attribution for spans recorded by this thread.
    static CONTEXT: Cell<(u64, u16)> = const { Cell::new((0, NODE_UNKNOWN)) };
}

/// True while a trace session is active.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Record one span (no-op unless a session is active). Offload and node
/// attribution come from the calling thread's [`offload_scope`] /
/// [`node_scope`].
#[inline]
pub fn record(category: &'static str, bytes: u64, start_ps: u64, end_ps: u64) {
    let session = ACTIVE.load(Ordering::Relaxed);
    if session == 0 {
        return;
    }
    record_slow(session, category, bytes, start_ps, end_ps);
}

#[cold]
fn record_slow(session: u64, category: &'static str, bytes: u64, start_ps: u64, end_ps: u64) {
    let (offload, node) = CONTEXT.with(Cell::get);
    let event = Event {
        category,
        offload,
        node,
        bytes,
        start_ps,
        end_ps,
    };
    LOCAL.with(|shard| shard.events.lock().unwrap().push((session, event)));
}

fn drain_session(session: u64) -> Vec<Event> {
    let mut out = Vec::new();
    for shard in SHARDS.lock().unwrap().iter() {
        let mut events = shard.events.lock().unwrap();
        // Session ids are monotonic: anything tagged differently is stale
        // leftovers from an abandoned session — discard it all.
        for (tag, event) in events.drain(..) {
            if tag == session {
                out.push(event);
            }
        }
    }
    out
}

// --- sessions --------------------------------------------------------------

/// RAII recording session. Only one session can exist at a time;
/// [`TraceSession::start`] blocks until the previous one ends, which makes
/// traced tests safe to run concurrently. Dropping the session without
/// [`TraceSession::finish`] discards its events.
pub struct TraceSession {
    session: u64,
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Begin recording (waits for any other live session to end).
    pub fn start() -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap();
        let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        ACTIVE.store(session, Ordering::SeqCst);
        TraceSession {
            session,
            _guard: guard,
        }
    }

    /// Stop recording and return the captured spans sorted by
    /// `(start, end)`.
    pub fn finish(mut self) -> Trace {
        ACTIVE.store(0, Ordering::SeqCst);
        let mut events = drain_session(self.session);
        self.session = 0; // Drop must not re-drain
        events.sort_by_key(|e| (e.start_ps, e.end_ps, e.category));
        Trace { events }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ACTIVE.store(0, Ordering::SeqCst);
        if self.session != 0 {
            drop(drain_session(self.session));
        }
    }
}

// --- thread attribution ----------------------------------------------------

/// Restores the previous `(offload, node)` attribution on drop.
pub struct ContextGuard {
    prev: (u64, u16),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Attribute spans recorded by this thread to `id` until the guard drops.
pub fn offload_scope(id: OffloadId) -> ContextGuard {
    CONTEXT.with(|c| {
        let prev = c.get();
        c.set((id.0, prev.1));
        ContextGuard { prev }
    })
}

/// Attribute spans recorded by this thread to node `node` until the guard
/// drops (target main loops pin this once at startup).
pub fn node_scope(node: u16) -> ContextGuard {
    CONTEXT.with(|c| {
        let prev = c.get();
        c.set((prev.0, node));
        ContextGuard { prev }
    })
}

/// The offload id spans on this thread are currently attributed to
/// (0 if none).
pub fn current_offload() -> u64 {
    CONTEXT.with(|c| c.get().0)
}

// --- late attribution ------------------------------------------------------

/// A position in the calling thread's recording shard; see [`mark`].
pub struct Mark {
    len: usize,
}

/// Remember the current position of this thread's shard. A receiver that
/// learns the offload id only after decoding a message header records the
/// decode-side spans first, then back-fills attribution with
/// [`retag_since`].
pub fn mark() -> Mark {
    if !enabled() {
        return Mark { len: 0 };
    }
    Mark {
        len: LOCAL.with(|shard| shard.events.lock().unwrap().len()),
    }
}

/// Attribute every span this thread recorded since `mark` that has no
/// offload id yet to `id`.
pub fn retag_since(mark: &Mark, id: OffloadId) {
    if !enabled() {
        return;
    }
    LOCAL.with(|shard| {
        let mut events = shard.events.lock().unwrap();
        let start = mark.len.min(events.len());
        for (_, event) in &mut events[start..] {
            if event.offload == 0 {
                event.offload = id.0;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this binary run concurrently, and a `record` call made
    /// outside any session (deliberately, in `disabled_recording_is_dropped`)
    /// can land in whichever session happens to be active. Each test
    /// therefore filters the trace to its own category prefix.
    fn own(trace: &Trace, prefix: &str) -> Vec<Event> {
        trace
            .events
            .iter()
            .filter(|e| e.category.starts_with(prefix))
            .cloned()
            .collect()
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_offload_id();
        let b = next_offload_id();
        assert_ne!(a.0, 0);
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), format!("of{}", a.0));
    }

    #[test]
    fn engine_and_phase_split() {
        let e = Event {
            category: "udma.read",
            offload: 0,
            node: 1,
            bytes: 64,
            start_ps: 0,
            end_ps: 10,
        };
        assert_eq!(e.engine(), "udma");
        assert_eq!(e.phase(), "read");
        let bare = Event {
            category: "compute",
            ..e
        };
        assert_eq!(bare.engine(), "compute");
        assert_eq!(bare.phase(), "compute");
    }

    #[test]
    fn disabled_recording_is_dropped() {
        record("dropped.span", 1, 0, 10);
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(own(&trace, "dropped.").is_empty());
    }

    #[test]
    fn session_captures_and_sorts() {
        let session = TraceSession::start();
        record("sorted.second", 8, 100, 200);
        record("sorted.first", 8, 50, 90);
        let events = own(&session.finish(), "sorted.");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].category, "sorted.first");
        assert_eq!(events[1].duration_ps(), 100);
    }

    #[test]
    fn sessions_do_not_leak_into_each_other() {
        let s1 = TraceSession::start();
        record("leak.one", 0, 0, 1);
        drop(s1); // abandoned: events discarded
        let s2 = TraceSession::start();
        record("leak.two", 0, 0, 1);
        let events = own(&s2.finish(), "leak.");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "leak.two");
    }

    #[test]
    fn scopes_attribute_and_restore() {
        let session = TraceSession::start();
        let id = next_offload_id();
        {
            let _node = node_scope(3);
            let _of = offload_scope(id);
            assert_eq!(current_offload(), id.0);
            record("scope.inner", 0, 0, 1);
        }
        assert_eq!(current_offload(), 0);
        record("scope.outer", 0, 2, 3);
        let events = own(&session.finish(), "scope.");
        assert_eq!(events[0].offload, id.0);
        assert_eq!(events[0].node, 3);
        assert_eq!(events[1].offload, 0);
        assert_eq!(events[1].node, NODE_UNKNOWN);
    }

    #[test]
    fn retag_backfills_only_untagged() {
        let session = TraceSession::start();
        let m = mark();
        record("retag.early", 0, 0, 1);
        let other = next_offload_id();
        {
            let _of = offload_scope(other);
            record("retag.tagged", 0, 1, 2);
        }
        let id = next_offload_id();
        retag_since(&m, id);
        let events = own(&session.finish(), "retag.");
        assert_eq!(events[0].offload, id.0, "untagged span back-filled");
        assert_eq!(events[1].offload, other.0, "tagged span untouched");
    }

    #[test]
    fn cross_thread_events_are_collected() {
        let session = TraceSession::start();
        record("xthread.host", 0, 0, 1);
        std::thread::spawn(|| {
            let _node = node_scope(7);
            record("xthread.worker", 0, 1, 2);
        })
        .join()
        .unwrap();
        let events = own(&session.finish(), "xthread.");
        let cats: Vec<_> = events.iter().map(|e| e.category).collect();
        assert_eq!(cats, vec!["xthread.host", "xthread.worker"]);
        assert_eq!(events[1].node, 7);
    }
}
