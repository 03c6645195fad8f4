//! Per-backend metric registers.
//!
//! Every communication backend owns a [`BackendMetrics`]; the offload
//! runtime bumps it on the paper's API operations (post, poll, put/get,
//! allocate/free), so all four backends are measured identically and for
//! free — counters are single relaxed atomics and stay on even when no
//! trace session is recording. No register takes a lock on the offload
//! path: a sample is one relaxed RMW per word it feeds, and extremes are
//! a relaxed load that writes only on a new extreme.
//!
//! The latency registers are lock-free log-linear histograms
//! ([`AtomicHistogram`], 12.5 % resolution): batch flush latency,
//! retry/backoff delay and — per target only — offload completion
//! latency, all in virtual-time picoseconds. The aggregate completion
//! histogram, its count and mean are derived at snapshot time by summing
//! the per-target registers. Each backend also owns a [`HealthRegistry`]
//! its targets register with; the counters that count target events
//! (resends, timeouts, evictions, reconnects, probes, probe misses and
//! the batching controller's decisions) are that registry's per-kind
//! event counts, read at snapshot time — an event is recorded once.
//!
//! [`BackendMetrics::snapshot`] returns a plain-data [`MetricsSnapshot`]
//! with derived statistics, renderable as text ([`MetricsSnapshot::render`]),
//! Prometheus exposition text ([`MetricsSnapshot::to_prometheus_text`]) or
//! JSON ([`MetricsSnapshot::to_json`]). Both expositions read one table
//! row per counter, gauge and histogram: its JSON key and an accessor.

use crate::metrics::{bucket_ceil, AtomicHistogram, Counter, Gauge, Histogram, MinMax, Summary};
use crate::{fmt_ps, HealthEventKind, HealthRegistry};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Targets that get their own completion-latency register. Node ids at
/// or past the cap share the last register — harmless for this
/// simulation (at most 8 VEs + the host) and it keeps the hot path a
/// bounds-checked array index instead of a map lookup.
pub(crate) const MAX_TRACKED_NODES: usize = 64;

/// Device worker lanes that get their own occupancy register. Lane ids
/// at or past the cap share the last register (the VE has 8 cores, so
/// this never triggers in practice).
pub(crate) const MAX_TRACKED_LANES: usize = 16;

/// Smoothing factor of the per-node latency EWMA: each completion moves
/// the estimate 20% toward the new sample.
const LATENCY_EWMA_ALPHA: f64 = 0.2;

/// Sentinel bit pattern for "no EWMA sample yet". The pattern is a NaN,
/// which an EWMA of finite samples can never produce.
const EWMA_UNSET: u64 = u64::MAX;

/// Per-target completion-latency register — the only place a completion
/// is recorded. Log-linear histogram, latency sum and extremes, and the
/// EWMA the scheduler reads; all lock-free and preallocated so the warm
/// completion path never touches the heap. The completion count is the
/// histogram's sum.
#[derive(Debug)]
struct NodeRegister {
    /// `f64` bits of the EWMA in ns; [`EWMA_UNSET`] before the first
    /// sample.
    ewma_bits: AtomicU64,
    sum_ps: Counter,
    extremes_ps: MinMax,
    hist: AtomicHistogram,
}

impl NodeRegister {
    const fn new() -> Self {
        NodeRegister {
            ewma_bits: AtomicU64::new(EWMA_UNSET),
            sum_ps: Counter::new(),
            extremes_ps: MinMax::new(),
            hist: AtomicHistogram::new(),
        }
    }

    #[inline]
    fn record(&self, ps: u64) {
        self.hist.record_ps(ps);
        self.sum_ps.add(ps);
        self.extremes_ps.record(ps);
        // A load and a plain store, not a CAS loop: two completions on
        // one target racing here keep one of their updates, which moves
        // a smoothed estimate by one sample's weight at most.
        let sample = ps as f64 / 1e3;
        let next = match self.ewma() {
            None => sample, // first sample seeds the estimate
            Some(e) => e + LATENCY_EWMA_ALPHA * (sample - e),
        };
        self.ewma_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    fn ewma(&self) -> Option<f64> {
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        (bits != EWMA_UNSET).then(|| f64::from_bits(bits))
    }
}

/// Per-lane occupancy registers of the device runtimes behind one
/// backend: work items executed and virtual busy time per lane, plus
/// the cross-lane steal count. Shared with the target side via `Arc`
/// (the same pattern as the health registry) because device loops run
/// on their own threads.
#[derive(Debug)]
pub struct LaneStats {
    tasks: Vec<Counter>,
    busy_ps: Vec<Counter>,
    steals: Counter,
}

impl Default for LaneStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneStats {
    /// Zeroed lane registers.
    pub fn new() -> Self {
        LaneStats {
            tasks: (0..MAX_TRACKED_LANES).map(|_| Counter::new()).collect(),
            busy_ps: (0..MAX_TRACKED_LANES).map(|_| Counter::new()).collect(),
            steals: Counter::new(),
        }
    }

    #[inline]
    fn idx(lane: usize) -> usize {
        lane.min(MAX_TRACKED_LANES - 1)
    }

    /// `lane` executed one work item of `busy_ps` virtual compute.
    #[inline]
    pub fn on_task(&self, lane: usize, busy_ps: u64) {
        let i = Self::idx(lane);
        self.tasks[i].incr();
        self.busy_ps[i].add(busy_ps);
    }

    /// An idle lane took a work item from another lane's queue.
    #[inline]
    pub fn on_steal(&self) {
        self.steals.incr();
    }

    /// Total cross-lane steals.
    pub fn steals(&self) -> u64 {
        self.steals.get()
    }

    /// Work items executed by `lane`.
    pub fn tasks(&self, lane: usize) -> u64 {
        self.tasks[Self::idx(lane)].get()
    }

    /// Per-lane `(tasks, busy_ps)`, trimmed to the last active lane.
    pub fn per_lane(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .tasks
            .iter()
            .zip(&self.busy_ps)
            .map(|(t, b)| (t.get(), b.get()))
            .collect();
        while v.last() == Some(&(0, 0)) {
            v.pop();
        }
        v
    }
}

/// The phase of its pacing a blocking host wait ended in: the phase of
/// its last pause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitPhase {
    /// Spin hints only: the CPU was never given up.
    Spin = 0,
    /// `yield_now`: the CPU was offered to another thread.
    Yield = 1,
    /// A timed sleep.
    Sleep = 2,
}

/// Live metric registers of one backend instance.
#[derive(Debug)]
pub struct BackendMetrics {
    posts: Counter,
    frames: Counter,
    msgs: Counter,
    polls: Counter,
    retries: Counter,
    reconnect_attempts: Counter,
    replayed: Counter,
    /// Targets added to a running pool's membership.
    member_joins: Counter,
    /// Targets removed (drained) from a running pool's membership.
    member_leaves: Counter,
    /// Blocking waits that paused, by the [`WaitPhase`] they ended in.
    waits: [Counter; 3],
    puts: Counter,
    gets: Counter,
    bytes_put: Counter,
    bytes_get: Counter,
    allocs: Counter,
    frees: Counter,
    /// Highest `posts − completions` seen at post time.
    inflight_peak: AtomicI64,
    /// Bytes currently allocated on targets via `allocate`.
    alloc_live: Gauge,
    payload_sum: Counter,
    payload_extremes: MinMax,
    /// Batch flush latency: first stage → frame handed to the
    /// transport.
    flush_hist: AtomicHistogram,
    /// Post → recovery-policy re-send delay, one sample per re-sent
    /// frame.
    retry_hist: AtomicHistogram,
    /// Per-target completion-latency registers — the single source of
    /// truth for completion latency: the snapshot's aggregate and the
    /// pool's rebalance cost both read them.
    nodes: Vec<NodeRegister>,
    /// Per-target health state, structured event log and per-kind
    /// event counts (the event-backed counters).
    health: Arc<HealthRegistry>,
    /// Device-lane occupancy + steal registers, shared with the
    /// target-side runtimes.
    lanes: Arc<LaneStats>,
}

impl Default for BackendMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl BackendMetrics {
    /// Zeroed registers.
    pub fn new() -> Self {
        BackendMetrics {
            posts: Counter::new(),
            frames: Counter::new(),
            msgs: Counter::new(),
            polls: Counter::new(),
            retries: Counter::new(),
            reconnect_attempts: Counter::new(),
            replayed: Counter::new(),
            member_joins: Counter::new(),
            member_leaves: Counter::new(),
            waits: [Counter::new(), Counter::new(), Counter::new()],
            puts: Counter::new(),
            gets: Counter::new(),
            bytes_put: Counter::new(),
            bytes_get: Counter::new(),
            allocs: Counter::new(),
            frees: Counter::new(),
            inflight_peak: AtomicI64::new(0),
            alloc_live: Gauge::new(),
            payload_sum: Counter::new(),
            payload_extremes: MinMax::new(),
            flush_hist: AtomicHistogram::new(),
            retry_hist: AtomicHistogram::new(),
            nodes: (0..MAX_TRACKED_NODES)
                .map(|_| NodeRegister::new())
                .collect(),
            health: Arc::new(HealthRegistry::new()),
            lanes: Arc::new(LaneStats::new()),
        }
    }

    #[inline]
    fn node_register(&self, node: u16) -> &NodeRegister {
        &self.nodes[(node as usize).min(MAX_TRACKED_NODES - 1)]
    }

    /// The backend's health registry: per-target state, the structured
    /// event log and the per-kind counts. Backends register their
    /// targets here at spawn; fault paths, the prober and the batching
    /// controller record events — once, here, which also counts them.
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// The backend's device-lane registers. Backends hand a clone to
    /// each target's `DeviceRuntime` at spawn.
    pub fn lane_stats(&self) -> &Arc<LaneStats> {
        &self.lanes
    }

    /// An offload message of `payload_bytes` was posted.
    ///
    /// The in-flight level is `posts − completions`. Here, completions
    /// are counted as hit polls (`polls − retries`): the runtime makes
    /// exactly one hit poll per completion, so the check needs no
    /// completion counter of its own. Raising the peak is relaxed loads
    /// unless this post sets a new one.
    pub fn on_post(&self, payload_bytes: u64) {
        let posts = self.posts.incr();
        self.payload_sum.add(payload_bytes);
        self.payload_extremes.record(payload_bytes);
        // This post's own count first, then `retries` before `polls`: a
        // poll racing these reads can only add to the hits, so a race
        // reads the level low, never high.
        let misses = self.retries.get();
        let hits = self.polls.get().saturating_sub(misses);
        let level = posts as i64 - hits as i64;
        if level > self.inflight_peak.load(Ordering::Relaxed) {
            self.inflight_peak.fetch_max(level, Ordering::Relaxed);
        }
    }

    /// One wire frame carrying `msgs` offload messages went onto the
    /// transport (`msgs == 1` for an unbatched post, the batch size for
    /// a coalesced envelope). The frames/msgs ratio is the transport
    /// transaction saving batching buys.
    pub fn on_frame(&self, msgs: u64) {
        self.frames.incr();
        self.msgs.add(msgs);
    }

    /// The host polled a future; `ready` tells whether the result had
    /// arrived (a miss counts as a retry).
    pub fn on_poll(&self, ready: bool) {
        self.polls.incr();
        if !ready {
            self.retries.incr();
        }
    }

    /// The transport tried to re-establish a dropped connection (one
    /// count per attempt, successful or not).
    pub fn on_reconnect_attempt(&self) {
        self.reconnect_attempts.incr();
    }

    /// A session resume replayed `frames` provably-unexecuted in-flight
    /// frames onto the fresh connection.
    pub fn on_replay(&self, frames: u64) {
        self.replayed.add(frames);
    }

    /// A target joined a running pool's membership.
    pub fn on_member_join(&self) {
        self.member_joins.incr();
    }

    /// A target was removed (drained) from a running pool's membership.
    pub fn on_member_leave(&self) {
        self.member_leaves.incr();
    }

    /// A blocking wait that paused at least once ended in `phase`.
    pub fn on_wait(&self, phase: WaitPhase) {
        self.waits[phase as usize].incr();
    }

    /// A batch (or single-message frame) was flushed `delay_ps` of
    /// virtual time after its first member was staged.
    pub fn on_flush(&self, delay_ps: u64) {
        self.flush_hist.record_ps(delay_ps);
    }

    /// A recovery re-send fired `delay_ps` of virtual time after the
    /// offload was posted (the retry/backoff delay distribution).
    pub fn on_retry_delay(&self, delay_ps: u64) {
        self.retry_hist.record_ps(delay_ps);
    }

    /// An offload served by target `node` completed after `latency_ps`
    /// of virtual time post→result. Recorded into that target's register
    /// only: histogram, sum, extremes, and the EWMA the scheduler's
    /// latency-weighted policy reads.
    pub fn on_complete_on(&self, node: u16, latency_ps: u64) {
        self.node_register(node).record(latency_ps);
    }

    /// The EWMA completion latency (ns) of offloads served by `node`,
    /// or `None` before its first completion. Derived from the same
    /// per-target register as [`MetricsSnapshot::per_node`], and
    /// lock-free.
    pub fn latency_ewma(&self, node: u16) -> Option<f64> {
        self.node_register(node).ewma()
    }

    /// `put` moved `bytes` host → target.
    pub fn on_put(&self, bytes: u64) {
        self.puts.incr();
        self.bytes_put.add(bytes);
    }

    /// `get` moved `bytes` target → host.
    pub fn on_get(&self, bytes: u64) {
        self.gets.incr();
        self.bytes_get.add(bytes);
    }

    /// `allocate` reserved a buffer of `bytes` bytes.
    pub fn on_alloc(&self, bytes: u64) {
        self.allocs.incr();
        self.alloc_live.add(bytes as i64);
    }

    /// `free` released a buffer of `bytes` bytes.
    pub fn on_free(&self, bytes: u64) {
        self.frees.incr();
        self.alloc_live.add(-(bytes as i64));
    }

    /// Copy the registers into a plain-data snapshot. The aggregate
    /// completion histogram, count and mean are the per-target registers
    /// summed here, off the offload path; the event-backed counters are
    /// the health registry's per-kind counts.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut per_node = Vec::new();
        let mut latency_hist = Histogram::new();
        let (mut sum_ps, mut extremes) = (0u128, None::<(u64, u64)>);
        for (n, r) in self.nodes.iter().enumerate() {
            let hist = r.hist.snapshot();
            if hist.count() == 0 {
                continue;
            }
            latency_hist.merge(&hist);
            sum_ps += r.sum_ps.get() as u128;
            if let Some((lo, hi)) = r.extremes_ps.get() {
                extremes = Some(extremes.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
            per_node.push(NodeMetricsSnapshot {
                node: n as u16,
                completions: hist.count(),
                ewma_ns: r.ewma().unwrap_or(0.0),
                latency_hist: hist,
            });
        }
        let ns = |ps: u64| ps as f64 / 1e3;
        let posts = self.posts.get();
        let completions = latency_hist.count();
        let events = |kind| self.health.count(kind);
        MetricsSnapshot {
            posts,
            frames_sent: self.frames.get(),
            msgs_sent: self.msgs.get(),
            polls: self.polls.get(),
            retries: self.retries.get(),
            resends: events(HealthEventKind::Retry),
            timeouts: events(HealthEventKind::Timeout),
            evictions: events(HealthEventKind::Eviction),
            reconnect_attempts: self.reconnect_attempts.get(),
            reconnects: events(HealthEventKind::Reconnect),
            replayed_frames: self.replayed.get(),
            probes: events(HealthEventKind::Probe),
            probe_misses: events(HealthEventKind::ProbeMiss),
            member_joins: self.member_joins.get(),
            member_leaves: self.member_leaves.get(),
            waits_spin: self.waits[WaitPhase::Spin as usize].get(),
            waits_yield: self.waits[WaitPhase::Yield as usize].get(),
            waits_sleep: self.waits[WaitPhase::Sleep as usize].get(),
            completions,
            puts: self.puts.get(),
            gets: self.gets.get(),
            bytes_put: self.bytes_put.get(),
            bytes_get: self.bytes_get.get(),
            allocs: self.allocs.get(),
            frees: self.frees.get(),
            batch_widens: events(HealthEventKind::BatchWiden),
            batch_narrows: events(HealthEventKind::BatchNarrow),
            batch_slo_flushes: events(HealthEventKind::SloFlush),
            inflight: posts as i64 - completions as i64,
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            alloc_bytes_live: self.alloc_live.get(),
            alloc_bytes_peak: self.alloc_live.peak(),
            payload_bytes: Summary::new(
                posts,
                self.payload_sum.get() as f64,
                self.payload_extremes
                    .get()
                    .map(|(lo, hi)| (lo as f64, hi as f64)),
            ),
            latency: Summary::new(
                completions,
                sum_ps as f64 / 1e3,
                extremes.map(|(lo, hi)| (ns(lo), ns(hi))),
            ),
            latency_hist,
            flush_hist: self.flush_hist.snapshot(),
            retry_hist: self.retry_hist.snapshot(),
            per_node,
            lanes: self
                .lanes
                .per_lane()
                .into_iter()
                .enumerate()
                .map(|(i, (tasks, busy_ps))| LaneMetricsSnapshot {
                    lane: i as u16,
                    tasks,
                    busy_ps,
                })
                .collect(),
            steals: self.lanes.steals(),
        }
    }
}

/// One device lane's slice of a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct LaneMetricsSnapshot {
    /// The lane index (0-based simulated VE core).
    pub lane: u16,
    /// Work items this lane executed.
    pub tasks: u64,
    /// Virtual compute time this lane accumulated (ps).
    pub busy_ps: u64,
}

/// One target's slice of a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct NodeMetricsSnapshot {
    /// The target node.
    pub node: u16,
    /// Offloads this target completed.
    pub completions: u64,
    /// EWMA completion latency (ns).
    pub(crate) ewma_ns: f64,
    /// Log-linear histogram of this target's completion latencies.
    pub latency_hist: Histogram,
}

/// Point-in-time copy of a backend's metrics.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Offload messages posted.
    pub posts: u64,
    /// Wire frames put on the transport (batch envelopes count once).
    pub frames_sent: u64,
    /// Offload messages those frames carried (`== frames_sent` with
    /// batching off; the `msgs_sent / frames_sent` ratio is the
    /// transaction saving with it on).
    pub msgs_sent: u64,
    /// Future polls (`test()` calls reaching the backend).
    pub polls: u64,
    /// Polls that found no result yet.
    pub retries: u64,
    /// Frames re-sent by the recovery policy (deadline passed).
    pub resends: u64,
    /// Offloads failed with `Timeout` (bounded retries exhausted).
    pub timeouts: u64,
    /// Targets evicted after transport death.
    pub evictions: u64,
    /// Connection re-establishment attempts (successful or not).
    pub reconnect_attempts: u64,
    /// Dropped connections re-established with their session resumed.
    pub reconnects: u64,
    /// In-flight frames replayed onto a fresh connection at resume.
    pub replayed_frames: u64,
    /// Background liveness probes answered.
    pub probes: u64,
    /// Background liveness probes unanswered.
    pub probe_misses: u64,
    /// Targets added to a running pool's membership.
    pub member_joins: u64,
    /// Targets removed (drained) from a running pool's membership.
    pub member_leaves: u64,
    /// Blocking waits whose last pause was a spin.
    pub waits_spin: u64,
    /// Blocking waits whose last pause was a yield.
    pub waits_yield: u64,
    /// Blocking waits whose last pause was a sleep.
    pub waits_sleep: u64,
    /// Offloads whose result was consumed (the per-target registers'
    /// sum).
    pub completions: u64,
    /// `put` operations.
    pub puts: u64,
    /// `get` operations.
    pub gets: u64,
    /// Total bytes moved host → target by `put`.
    pub bytes_put: u64,
    /// Total bytes moved target → host by `get`.
    pub bytes_get: u64,
    /// `allocate` calls.
    pub allocs: u64,
    /// `free` calls.
    pub frees: u64,
    /// Adaptive-controller widen decisions across all channels.
    pub batch_widens: u64,
    /// Adaptive-controller narrow decisions across all channels.
    pub batch_narrows: u64,
    /// Envelope flushes forced by the `slo_micros` age bound.
    pub batch_slo_flushes: u64,
    /// Offloads currently in flight: `posts − completions`.
    pub inflight: i64,
    /// Highest in-flight count seen at post time.
    pub inflight_peak: i64,
    /// Bytes currently allocated on targets.
    pub alloc_bytes_live: i64,
    /// Highest live allocation level observed.
    pub alloc_bytes_peak: i64,
    /// Posted payload sizes (bytes): count, mean and extremes.
    pub(crate) payload_bytes: Summary,
    /// Offload completion latency (ns): count, mean and extremes.
    pub latency: Summary,
    /// Histogram of offload completion latencies (ps buckets), the sum
    /// of the per-target ones.
    pub latency_hist: Histogram,
    /// Histogram of batch flush latencies (first stage → send).
    pub(crate) flush_hist: Histogram,
    /// Histogram of retry/backoff delays (post → re-send).
    pub(crate) retry_hist: Histogram,
    /// Per-target registers, sorted by node id (only targets with at
    /// least one completion appear).
    pub per_node: Vec<NodeMetricsSnapshot>,
    /// Per-lane occupancy registers, trimmed to the last active lane
    /// (empty when no device runtime recorded lane work).
    pub lanes: Vec<LaneMetricsSnapshot>,
    /// Work items an idle lane took from another lane's queue.
    pub steals: u64,
}

/// One exposed metric: its JSON key and its reading in a snapshot.
type Row<T> = (&'static str, fn(&MetricsSnapshot) -> T);

/// A [`Row`] whose reading borrows a histogram from the snapshot.
type HistRow = (&'static str, fn(&MetricsSnapshot) -> &Histogram);

/// Every exposed counter. The Prometheus name is `aurora_<key>_total`.
/// Both expositions list the rows in this order.
const COUNTERS: [Row<u64>; 29] = [
    ("posts", |s| s.posts),
    ("frames_sent", |s| s.frames_sent),
    ("msgs_sent", |s| s.msgs_sent),
    ("polls", |s| s.polls),
    ("poll_misses", |s| s.retries),
    ("resends", |s| s.resends),
    ("timeouts", |s| s.timeouts),
    ("evictions", |s| s.evictions),
    ("reconnect_attempts", |s| s.reconnect_attempts),
    ("reconnects", |s| s.reconnects),
    ("replayed_frames", |s| s.replayed_frames),
    ("probes", |s| s.probes),
    ("probe_misses", |s| s.probe_misses),
    ("membership_joins", |s| s.member_joins),
    ("membership_leaves", |s| s.member_leaves),
    ("completions", |s| s.completions),
    ("puts", |s| s.puts),
    ("gets", |s| s.gets),
    ("bytes_put", |s| s.bytes_put),
    ("bytes_get", |s| s.bytes_get),
    ("allocs", |s| s.allocs),
    ("frees", |s| s.frees),
    ("lane_steals", |s| s.steals),
    ("batch_widens", |s| s.batch_widens),
    ("batch_narrows", |s| s.batch_narrows),
    ("batch_slo_flushes", |s| s.batch_slo_flushes),
    ("waits_spin", |s| s.waits_spin),
    ("waits_yield", |s| s.waits_yield),
    ("waits_sleep", |s| s.waits_sleep),
];

/// Every exposed gauge; the Prometheus name is `aurora_<key>`.
const GAUGES: [Row<i64>; 4] = [
    ("inflight", |s| s.inflight),
    ("inflight_peak", |s| s.inflight_peak),
    ("alloc_bytes_live", |s| s.alloc_bytes_live),
    ("alloc_bytes_peak", |s| s.alloc_bytes_peak),
];

/// Every exposed backend-wide histogram; the Prometheus name is
/// `aurora_<key>`.
const HISTOGRAMS: [HistRow; 3] = [
    ("completion_latency_ps", |s| &s.latency_hist),
    ("flush_latency_ps", |s| &s.flush_hist),
    ("retry_delay_ps", |s| &s.retry_hist),
];

/// Append a histogram as cumulative `_bucket` samples. Bucket `i`'s `le`
/// bound is its exclusive upper edge, the next bucket's floor in ps
/// (eight edges per octave in the sub-bucketed range, powers of two
/// outside it); buckets past the last non-empty one collapse into
/// `+Inf`.
fn prom_hist(out: &mut String, name: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    if let Some(last) = h.buckets().iter().rposition(|&c| c > 0) {
        let mut cum = 0u64;
        for (i, &c) in h.buckets().iter().enumerate().take(last + 1) {
            cum += c;
            let le = bucket_ceil(i);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
    }
    let n = h.count();
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {n}\n{name}_count {n}\n"
    ));
}

/// Append a histogram as a JSON array of `[bucket_floor_ps, count]`
/// pairs (non-empty buckets only).
fn json_hist(out: &mut String, h: &Histogram) {
    out.push('[');
    for (i, (floor, count)) in h.nonzero().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{floor},{count}]"));
    }
    out.push(']');
}

/// Append `rows` read from `snap` as a JSON object of `"key": value`
/// members.
fn json_object<T: std::fmt::Display>(out: &mut String, rows: &[Row<T>], snap: &MetricsSnapshot) {
    out.push('{');
    for (i, (key, get)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\": {}", get(snap)));
    }
    out.push('}');
}

impl MetricsSnapshot {
    /// Aligned text rendering for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| out.push_str(&format!("{k:<22} {v}\n"));
        line("posts", self.posts.to_string());
        // Only interesting when batching actually coalesced something;
        // keeping quiet otherwise preserves the unbatched reports
        // byte-for-byte.
        if self.msgs_sent > self.frames_sent {
            line(
                "frames (msgs/frame)",
                format!(
                    "{} ({:.2})",
                    self.frames_sent,
                    self.msgs_sent as f64 / self.frames_sent as f64
                ),
            );
        }
        line("polls", self.polls.to_string());
        line("retries", self.retries.to_string());
        if self.resends + self.timeouts + self.evictions > 0 {
            line(
                "recovery (resend/timeout/evict)",
                format!("{}/{}/{}", self.resends, self.timeouts, self.evictions),
            );
        }
        if self.reconnect_attempts + self.reconnects + self.replayed_frames > 0 {
            line(
                "reconnect (attempt/ok/replayed)",
                format!(
                    "{}/{}/{}",
                    self.reconnect_attempts, self.reconnects, self.replayed_frames
                ),
            );
        }
        if self.probes + self.probe_misses > 0 {
            line(
                "probes (ok/miss)",
                format!("{}/{}", self.probes, self.probe_misses),
            );
        }
        if self.member_joins + self.member_leaves > 0 {
            line(
                "membership (join/leave)",
                format!("{}/{}", self.member_joins, self.member_leaves),
            );
        }
        line("completions", self.completions.to_string());
        line(
            "inflight (now/peak)",
            format!("{}/{}", self.inflight, self.inflight_peak),
        );
        line("puts", format!("{} ({} bytes)", self.puts, self.bytes_put));
        line("gets", format!("{} ({} bytes)", self.gets, self.bytes_get));
        line("allocs/frees", format!("{}/{}", self.allocs, self.frees));
        line(
            "alloc bytes (now/peak)",
            format!("{}/{}", self.alloc_bytes_live, self.alloc_bytes_peak),
        );
        if self.payload_bytes.count() > 0 {
            line(
                "payload bytes",
                format!(
                    "mean {:.1} min {:.0} max {:.0}",
                    self.payload_bytes.mean(),
                    self.payload_bytes.min(),
                    self.payload_bytes.max()
                ),
            );
        }
        if self.latency.count() > 0 {
            line(
                "offload latency",
                format!(
                    "mean {:.3} us (min {:.3}, max {:.3})",
                    self.latency.mean() / 1e3,
                    self.latency.min() / 1e3,
                    self.latency.max() / 1e3
                ),
            );
            for (floor, count) in self.latency_hist.nonzero() {
                line(&format!("  latency ≥ {}", fmt_ps(floor)), count.to_string());
            }
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4) of every register.
    ///
    /// Counters end in `_total`, latency histograms are cumulative
    /// `_bucket` series with `le` bounds in **picoseconds** (the
    /// registers' log-linear bucket edges), per-target series carry a
    /// `node="N"` label. Every unlabelled series is one row of the
    /// `COUNTERS`, `GAUGES` or `HISTOGRAMS` table that [`Self::to_json`]
    /// reads too: a new metric is one row. The format is pinned by
    /// `tests/exposition_golden.rs`; extend it, don't reshape it.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (key, get) in COUNTERS {
            let name = format!("aurora_{key}_total");
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", get(self)));
        }
        for (key, get) in GAUGES {
            let name = format!("aurora_{key}");
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", get(self)));
        }
        for (key, get) in HISTOGRAMS {
            prom_hist(&mut out, &format!("aurora_{key}"), get(self));
        }
        if !self.lanes.is_empty() {
            out.push_str("# TYPE aurora_lane_tasks_total counter\n");
            for l in &self.lanes {
                out.push_str(&format!(
                    "aurora_lane_tasks_total{{lane=\"{}\"}} {}\n",
                    l.lane, l.tasks
                ));
            }
            out.push_str("# TYPE aurora_lane_busy_ps_total counter\n");
            for l in &self.lanes {
                out.push_str(&format!(
                    "aurora_lane_busy_ps_total{{lane=\"{}\"}} {}\n",
                    l.lane, l.busy_ps
                ));
            }
        }
        if !self.per_node.is_empty() {
            out.push_str("# TYPE aurora_target_completions_total counter\n");
            for n in &self.per_node {
                out.push_str(&format!(
                    "aurora_target_completions_total{{node=\"{}\"}} {}\n",
                    n.node, n.completions
                ));
            }
            out.push_str("# TYPE aurora_target_latency_ewma_ns gauge\n");
            for n in &self.per_node {
                out.push_str(&format!(
                    "aurora_target_latency_ewma_ns{{node=\"{}\"}} {:.3}\n",
                    n.node, n.ewma_ns
                ));
            }
            for (name, p) in [
                ("aurora_target_latency_p50_ps", 50.0),
                ("aurora_target_latency_p99_ps", 99.0),
            ] {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                for n in &self.per_node {
                    let v = n.latency_hist.percentile(p).unwrap_or(0);
                    out.push_str(&format!("{name}{{node=\"{}\"}} {v}\n", n.node));
                }
            }
        }
        out
    }

    /// JSON exposition of every register. Histograms are arrays of
    /// `[bucket_floor_ps, count]` pairs; floats are fixed to three
    /// decimals so the output is byte-stable for golden tests.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": ");
        json_object(&mut out, &COUNTERS, self);
        out.push_str(",\n  \"gauges\": ");
        json_object(&mut out, &GAUGES, self);
        let (mean, min, max) = if self.latency.count() == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (self.latency.mean(), self.latency.min(), self.latency.max())
        };
        out.push_str(&format!(
            ",\n  \"latency_ns\": {{\"count\": {}, \"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}},\n",
            self.latency.count(),
            mean,
            min,
            max
        ));
        for (key, get) in HISTOGRAMS {
            out.push_str(&format!("  \"{key}\": "));
            json_hist(&mut out, get(self));
            out.push_str(",\n");
        }
        out.push_str("  \"lanes\": [");
        for (i, l) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{}]", l.lane, l.tasks, l.busy_ps));
        }
        out.push(']');
        out.push_str(",\n  \"targets\": [");
        for (i, n) in self.per_node.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"node\": {}, \"completions\": {}, \"ewma_ns\": {:.3}, \"latency_ps\": ",
                n.node, n.completions, n.ewma_ns
            ));
            json_hist(&mut out, &n.latency_hist);
            out.push('}');
        }
        if !self.per_node.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1_000;
    const US: u64 = 1_000_000;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = BackendMetrics::new();
        m.on_post(100);
        m.on_post(300);
        m.on_poll(false);
        m.on_poll(true);
        m.on_complete_on(1, 6 * US);
        let s = m.snapshot();
        assert_eq!(s.posts, 2);
        assert_eq!(s.polls, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.completions, 1);
        assert_eq!(s.inflight, 1);
        assert_eq!(s.inflight_peak, 2);
        assert_eq!(s.payload_bytes.count(), 2);
        assert!((s.payload_bytes.mean() - 200.0).abs() < 1e-9);
        assert_eq!(
            (s.payload_bytes.min(), s.payload_bytes.max()),
            (100.0, 300.0)
        );
        assert_eq!(s.latency_hist.count(), 1);
        assert_eq!(s.latency.count(), 1);
        assert_eq!((s.latency.min(), s.latency.max()), (6_000.0, 6_000.0));
    }

    #[test]
    fn inflight_peak_is_checked_at_post_time() {
        let m = BackendMetrics::new();
        for round in 0..3u64 {
            for _ in 0..=round {
                m.on_post(8);
            }
            for _ in 0..=round {
                m.on_poll(true);
                m.on_complete_on(1, 5 * US);
            }
        }
        let s = m.snapshot();
        assert_eq!((s.inflight, s.inflight_peak), (0, 3));
    }

    #[test]
    fn allocation_gauge_credits_frees() {
        let m = BackendMetrics::new();
        m.on_alloc(512);
        m.on_alloc(256);
        m.on_free(512);
        let s = m.snapshot();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.alloc_bytes_live, 256);
        assert_eq!(s.alloc_bytes_peak, 768);
    }

    #[test]
    fn transfer_bytes_totalled() {
        let m = BackendMetrics::new();
        m.on_put(1024);
        m.on_put(1024);
        m.on_get(64);
        let s = m.snapshot();
        assert_eq!(s.puts, 2);
        assert_eq!(s.bytes_put, 2048);
        assert_eq!(s.gets, 1);
        assert_eq!(s.bytes_get, 64);
    }

    #[test]
    fn frame_counters_track_batching() {
        let m = BackendMetrics::new();
        m.on_frame(1);
        // Unbatched traffic: frames == msgs, render stays silent.
        let s = m.snapshot();
        assert_eq!((s.frames_sent, s.msgs_sent), (1, 1));
        assert!(!s.render().contains("frames"), "{}", s.render());
        // A coalesced envelope of 8 shows up.
        m.on_frame(8);
        let s = m.snapshot();
        assert_eq!((s.frames_sent, s.msgs_sent), (2, 9));
        assert!(s.render().contains("frames (msgs/frame)"), "{}", s.render());
        assert!(s.render().contains("2 (4.50)"), "{}", s.render());
    }

    #[test]
    fn node_latency_ewma_converges_per_target() {
        let m = BackendMetrics::new();
        assert_eq!(m.latency_ewma(1), None, "no completions yet");
        m.on_post(8);
        m.on_complete_on(1, 10 * US);
        assert!(
            (m.latency_ewma(1).unwrap() - 10_000.0).abs() < 1e-9,
            "first sample seeds"
        );
        m.on_post(8);
        m.on_complete_on(1, 20 * US);
        // 10000 + 0.2·(20000 − 10000) = 12000.
        assert!((m.latency_ewma(1).unwrap() - 12_000.0).abs() < 1e-9);
        m.on_post(8);
        m.on_complete_on(2, 5 * US);
        assert!((m.latency_ewma(2).unwrap() - 5_000.0).abs() < 1e-9);
        let s = m.snapshot();
        assert_eq!(s.completions, 3, "the registers sum to the total");
        let nodes: Vec<u16> = s.per_node.iter().map(|n| n.node).collect();
        assert_eq!(nodes, vec![1, 2]);
        assert!((s.per_node[0].ewma_ns - 12_000.0).abs() < 1e-9);
        assert!((s.per_node[1].ewma_ns - 5_000.0).abs() < 1e-9);
        // The per-node EWMA is scheduler food, not report noise.
        assert!(!s.render().contains("ewma"));
    }

    #[test]
    fn per_node_registers_sum_to_aggregate() {
        let m = BackendMetrics::new();
        for (node, us) in [(1, 10), (1, 20), (2, 5), (2, 40)] {
            m.on_post(8);
            m.on_complete_on(node, us * US);
        }
        let s = m.snapshot();
        assert_eq!(s.per_node.len(), 2);
        let summed: u64 = s.per_node.iter().map(|n| n.completions).sum();
        assert_eq!(summed, s.completions);
        let mut merged = Histogram::new();
        for n in &s.per_node {
            merged.merge(&n.latency_hist);
        }
        assert_eq!(merged.buckets(), s.latency_hist.buckets());
        // Per-node percentiles come from the same buckets: node 1's
        // median lands in the 10 µs sample's bucket.
        let ten = AtomicHistogram::new();
        ten.record_ps(10 * US);
        assert_eq!(
            s.per_node[0].latency_hist.percentile(50.0),
            ten.snapshot().percentile(50.0)
        );
        // 10, 20, 5 and 40 µs: the mean and extremes are exact.
        assert_eq!(s.latency.mean(), 18_750.0);
        assert_eq!((s.latency.min(), s.latency.max()), (5_000.0, 40_000.0));
    }

    #[test]
    fn concurrent_recording_is_exact() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let m = BackendMetrics::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        m.on_post(64);
                        m.on_poll(false);
                        m.on_poll(true);
                        let node = ((t + i) % 3) as u16 + 1;
                        m.on_complete_on(node, (1_000 + i % 1_000) * NS);
                    }
                });
            }
        });
        let s = m.snapshot();
        let total = THREADS * PER_THREAD;
        assert_eq!(s.posts, total);
        assert_eq!(s.completions, total);
        assert_eq!((s.polls, s.retries), (2 * total, total));
        assert_eq!(s.inflight, 0);
        assert!((1..=THREADS as i64).contains(&s.inflight_peak));
        // Each thread sends i to node (t + i) % 3 + 1: count per node
        // exactly.
        let mut want = [0u64; 3];
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                want[((t + i) % 3) as usize] += 1;
            }
        }
        let got: Vec<(u16, u64)> = s.per_node.iter().map(|n| (n.node, n.completions)).collect();
        assert_eq!(got, vec![(1, want[0]), (2, want[1]), (3, want[2])]);
        let mut merged = Histogram::new();
        for n in &s.per_node {
            merged.merge(&n.latency_hist);
        }
        assert_eq!(merged.buckets(), s.latency_hist.buckets());
        assert_eq!(s.latency.count(), total);
        // Every thread records 1000..2000 ns five times over: mean 1499.5.
        assert_eq!(s.latency.mean(), 1_499.5);
        assert_eq!((s.latency.min(), s.latency.max()), (1_000.0, 1_999.0));
        assert_eq!(s.payload_bytes.mean(), 64.0);
    }

    #[test]
    fn flush_and_retry_histograms_record() {
        let m = BackendMetrics::new();
        m.on_flush(100 * NS);
        m.on_flush(3 * US);
        m.on_retry_delay(50 * US);
        let s = m.snapshot();
        assert_eq!(s.flush_hist.count(), 2);
        assert_eq!(s.retry_hist.count(), 1);
    }

    #[test]
    fn prometheus_text_is_parseable_shape() {
        let m = BackendMetrics::new();
        m.on_post(64);
        m.on_complete_on(1, 6 * US);
        let text = m.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE aurora_posts_total counter"));
        assert!(text.contains("aurora_posts_total 1"));
        assert!(text.contains("aurora_completion_latency_ps_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("aurora_target_completions_total{node=\"1\"} 1"));
        assert!(text.contains("aurora_target_latency_ewma_ns{node=\"1\"} 6000.000"));
        // Every sample line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn json_is_valid_and_carries_registers() {
        let m = BackendMetrics::new();
        m.on_post(64);
        m.on_complete_on(1, 6 * US);
        let doc = m.snapshot().to_json();
        let v = crate::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("counters").unwrap().get("posts").unwrap().as_u64(),
            Some(1)
        );
        let targets = v.get("targets").unwrap().as_array().unwrap();
        assert_eq!(targets[0].get("node").unwrap().as_u64(), Some(1));
        assert_eq!(targets[0].get("ewma_ns").unwrap().as_f64(), Some(6000.0));
    }

    #[test]
    fn lane_registers_accumulate_and_trim() {
        let m = BackendMetrics::new();
        let s = m.snapshot();
        assert!(s.lanes.is_empty(), "no lane work → no lane rows");
        assert_eq!(s.steals, 0);
        let lanes = m.lane_stats();
        lanes.on_task(0, 100);
        lanes.on_task(2, 50);
        lanes.on_task(2, 50);
        lanes.on_steal();
        let s = m.snapshot();
        assert_eq!(s.lanes.len(), 3, "trimmed past lane 2");
        assert_eq!((s.lanes[0].tasks, s.lanes[0].busy_ps), (1, 100));
        assert_eq!((s.lanes[1].tasks, s.lanes[1].busy_ps), (0, 0));
        assert_eq!((s.lanes[2].tasks, s.lanes[2].busy_ps), (2, 100));
        assert_eq!(s.steals, 1);
        let text = s.to_prometheus_text();
        assert!(text.contains("aurora_lane_steals_total 1"));
        assert!(text.contains("aurora_lane_tasks_total{lane=\"2\"} 2"));
        assert!(text.contains("aurora_lane_busy_ps_total{lane=\"0\"} 100"));
        let v = crate::json::parse(&s.to_json()).expect("valid json");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("lane_steals")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Out-of-range lanes fold into the last register, never panic.
        lanes.on_task(MAX_TRACKED_LANES + 5, 1);
        assert_eq!(lanes.tasks(MAX_TRACKED_LANES - 1), 1);
    }

    #[test]
    fn event_backed_counters_are_the_health_counts() {
        let m = BackendMetrics::new();
        // A distinct count per kind, so a swapped mapping cannot pass.
        let kinds = [
            HealthEventKind::Retry,
            HealthEventKind::Timeout,
            HealthEventKind::Eviction,
            HealthEventKind::Reconnect,
            HealthEventKind::Probe,
            HealthEventKind::ProbeMiss,
            HealthEventKind::BatchWiden,
            HealthEventKind::BatchNarrow,
            HealthEventKind::SloFlush,
        ];
        for (n, &kind) in kinds.iter().enumerate() {
            for _ in 0..=n {
                m.health().record(1, kind, 0, 0);
            }
        }
        // Kinds without a counter of their own change none of them.
        m.health().record(1, HealthEventKind::Failover, 0, 0);
        let s = m.snapshot();
        let got = [
            s.resends,
            s.timeouts,
            s.evictions,
            s.reconnects,
            s.probes,
            s.probe_misses,
            s.batch_widens,
            s.batch_narrows,
            s.batch_slo_flushes,
        ];
        assert_eq!(got, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn health_registry_is_per_backend() {
        use crate::TargetState;
        let a = BackendMetrics::new();
        let b = BackendMetrics::new();
        a.health().register(1);
        a.health().record(1, HealthEventKind::Eviction, 0, 0);
        assert_eq!(a.health().state(1), Some(TargetState::Evicted));
        assert_eq!(b.health().state(1), None, "registries are independent");
    }
}
