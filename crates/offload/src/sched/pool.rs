//! The multi-target pool: placement, admission control, failover.

use super::policy::SchedPolicy;
use crate::chan::{engine, Backoff, ChannelCore, FramePool, PooledFrame};
use crate::future::{self, Future};
use crate::runtime::{decode_output, Offload};
use crate::types::NodeId;
use crate::OffloadError;
use aurora_sim_core::SimTime;
use aurora_telemetry::{HealthEventKind, NodeMetricsSnapshot};
use ham::registry::HandlerKey;
use ham::ActiveMessage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One queued message's worth of wire bytes: the divisor that folds
/// the channel's bytes-in-flight gauge into "equivalent queued
/// messages", so a target digesting a few large frames is not mistaken
/// for an idle one.
const WEIGHT_BYTES_PER_MSG: f64 = 4096.0;

/// The expected-service-delay score [`TargetPool::rebalance`] compares
/// donors and recipients in: the messages a probe-class newcomer would
/// queue behind (in flight, plus itself, plus bytes in flight as
/// equivalent messages, plus every member staged in the accumulator —
/// the envelope must fill or age out before the newcomer flies), scaled
/// by the target's EWMA latency.
fn rebalance_cost(chan: &ChannelCore, ewma: f64) -> f64 {
    let queued =
        chan.in_flight() as f64 + 1.0 + chan.bytes_in_flight() as f64 / WEIGHT_BYTES_PER_MSG;
    (queued + chan.staged_len() as f64) * ewma
}

fn pool_empty() -> OffloadError {
    OffloadError::Backend("target pool: no healthy targets remain".into())
}

/// One pool member: its node and what the background prober has seen
/// of it. Liveness is not kept here: every scan reads it from the
/// member's channel, so a target is out of the running exactly while
/// its channel is missing or evicted.
struct Member {
    node: NodeId,
    /// Consecutive probe misses (0 = clean). A non-zero streak
    /// deprioritizes the target in `select` — flapping targets lose
    /// placements *before* they hard-fail — and decays as probes answer
    /// again.
    streak: u32,
    /// Last [`ChannelCore::resumes`] epoch the prober saw. An advance
    /// between probe rounds means the session healed: the miss streak
    /// is cleared immediately instead of decaying over future rounds.
    resumes: u64,
}

impl Member {
    fn new(node: NodeId) -> Self {
        Self {
            node,
            streak: 0,
            resumes: 0,
        }
    }
}

/// Mutable pool state under one lock.
struct PoolState {
    /// Every current member, sorted by node id, so strict-`<` scans
    /// tie-break to the lowest node id. An evicted target stays here so
    /// reports cover lost targets; only [`TargetPool::remove_target`]
    /// deletes from the roster.
    members: Vec<Member>,
    /// The target placed on last ([`NodeId::HOST`] before the first
    /// pick). Round-robin resumes at the next member above it, so
    /// joins, leaves and evictions need no cursor bookkeeping.
    last: NodeId,
}

impl PoolState {
    fn nodes(&self) -> Vec<NodeId> {
        self.members.iter().map(|m| m.node).collect()
    }

    fn member(&mut self, node: NodeId) -> Option<&mut Member> {
        let pos = self.members.binary_search_by_key(&node, |m| m.node).ok()?;
        Some(&mut self.members[pos])
    }
}

/// Virtual-time cadence between background probe rounds. Rounds are
/// keyed to *virtual* time: one fires when `now / PROBE_EVERY` crosses a
/// tick boundary, so two runs over the same deterministic timeline
/// probe at the same virtual instants.
const PROBE_EVERY: SimTime = SimTime::from_us(200);

/// Wall-clock granularity at which the prober re-checks the virtual
/// clock.
const PROBE_POLL: Duration = Duration::from_micros(200);

/// Consecutive tickless wall polls before a round fires anyway. Virtual
/// time only advances while operations advance it — a pool whose
/// targets are all down would freeze the clock and starve the prober of
/// the very rounds that detect the healing.
const PROBE_IDLE_GRACE: u32 = 4;

/// Handle to a running background prober thread.
struct Prober {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

/// A set of targets submitted to as one logical compute resource.
/// Built with [`Offload::pool`] / [`Offload::pool_with`].
///
/// Placement, credit-based admission and eviction failover are
/// described on [`crate::sched`]. A pool holds no queue of its own:
/// offloads it admits live in the per-target channels, and offloads it
/// cannot admit block the submitter — backpressure, not buffering.
pub struct TargetPool {
    offload: Offload,
    policy: SchedPolicy,
    /// Where each placed offload's kept payload is checked out.
    frames: Arc<FramePool>,
    /// Shared with the background prober thread, which holds its own
    /// `Arc` so membership survives while the pool handle is in use.
    state: Arc<Mutex<PoolState>>,
    prober: Mutex<Option<Prober>>,
}

/// A [`MetricsSnapshot`](aurora_telemetry::MetricsSnapshot) scoped to
/// one pool: the per-target breakdown restricted to the pool's targets.
/// Produced by [`TargetPool::metrics_snapshot`].
#[derive(Clone, Debug)]
pub struct PoolMetricsSnapshot {
    /// Per-target registers for the pool's targets, sorted by node id.
    /// Their histogram buckets and completion counts sum to the
    /// aggregate when the pool covers every target the backend serves.
    pub targets: Vec<NodeMetricsSnapshot>,
}

/// Handle to an offload placed by a [`TargetPool`]. Unlike a plain
/// [`Future`], the pool keeps the encoded message so an offload whose
/// frame verifiably never reached a lost target can be resubmitted to a
/// survivor; claim results with [`TargetPool::get`] /
/// [`TargetPool::wait_any`] / [`TargetPool::wait_all`].
pub struct PoolFuture<T> {
    /// The offload's current attempt; the result stays inside it until
    /// claimed.
    inner: Future<T>,
    key: HandlerKey,
    payload: PooledFrame,
    resubmits: u32,
    /// Affinity submissions ([`TargetPool::submit_to`]) are pinned to
    /// their target (their data lives there) and never fail over.
    pinned: bool,
}

impl<T> PoolFuture<T> {
    /// The target currently serving (or having served) this offload.
    pub fn target(&self) -> NodeId {
        self.inner.target()
    }

    /// How many times the offload was resubmitted to a survivor after
    /// its target was lost before the frame reached the transport.
    pub fn resubmits(&self) -> u32 {
        self.resubmits
    }
}

impl<T> core::fmt::Debug for PoolFuture<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PoolFuture({:?}, {} resubmits)",
            self.inner, self.resubmits
        )
    }
}

impl TargetPool {
    /// Build a pool over `targets` (validated, deduplicated). Errors on
    /// an empty or invalid target list.
    pub fn new(
        offload: Offload,
        targets: &[NodeId],
        policy: SchedPolicy,
    ) -> Result<Self, OffloadError> {
        if targets.is_empty() {
            return Err(OffloadError::Backend(
                "target pool: no targets given".into(),
            ));
        }
        let mut nodes = Vec::with_capacity(targets.len());
        for &t in targets {
            offload.check_target(t)?;
            nodes.push(t);
        }
        nodes.sort_unstable();
        nodes.dedup();
        // Seed the health registry so reports cover targets that never
        // see an event (a target absent from the registry would read as
        // "unknown" rather than healthy-but-idle).
        let health = offload.backend().metrics().health().clone();
        for &t in &nodes {
            health.register(t.0);
        }
        Ok(Self {
            offload,
            policy,
            frames: FramePool::new(),
            state: Arc::new(Mutex::new(PoolState {
                members: nodes.into_iter().map(Member::new).collect(),
                last: NodeId::HOST,
            })),
            prober: Mutex::new(None),
        })
    }

    /// Every current member of the pool, evicted-but-not-removed ones
    /// included (reports cover lost targets until
    /// [`TargetPool::remove_target`] deletes them from the roster).
    pub fn targets(&self) -> Vec<NodeId> {
        self.state.lock().unwrap().nodes()
    }

    /// Snapshot the backend's metric registers scoped to this pool: a
    /// per-target breakdown covering all configured targets (evicted
    /// ones keep their final registers).
    pub fn metrics_snapshot(&self) -> PoolMetricsSnapshot {
        let members = self.targets();
        let targets = self
            .offload
            .backend()
            .metrics()
            .snapshot()
            .per_node
            .into_iter()
            .filter(|n| members.iter().any(|t| t.0 == n.node))
            .collect();
        PoolMetricsSnapshot { targets }
    }

    /// Members still in the running: those whose channel exists and
    /// is not evicted (a degraded one counts — it may heal).
    pub fn healthy(&self) -> Vec<NodeId> {
        let st = self.state.lock().unwrap();
        st.members
            .iter()
            .map(|m| m.node)
            .filter(|&t| self.live(t).is_some())
            .collect()
    }

    /// Number of healthy targets. Counts under the lock without
    /// collecting them — this sits on the admission path.
    pub fn len(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.members
            .iter()
            .filter(|m| self.live(m.node).is_some())
            .count()
    }

    /// True when every target has been lost.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `t`'s channel while `t` is in the running: present and not
    /// evicted.
    fn live(&self, t: NodeId) -> Option<&ChannelCore> {
        let chan = self.offload.backend().channel(t).ok()?;
        chan.eviction().is_none().then_some(chan)
    }

    /// Did `err`, returned by work placed on `target`, evict it? Only
    /// then does an offload move to another target. The engine latches
    /// an eviction for every [`OffloadError::TargetLost`] it sees; the
    /// error is matched too, so a failed batch member claimed between
    /// its failure and that latch still counts.
    fn evicted_by(&self, target: NodeId, err: &OffloadError) -> bool {
        matches!(err, OffloadError::TargetLost(_)) || self.live(target).is_none()
    }

    /// Admit `target` into the running pool. The target must exist on
    /// the backend (for cluster TCP that means its discovery handshake
    /// already completed — see `TcpBackend::join_target`) and must not
    /// be evicted; it starts receiving placements on the very next
    /// `select`. Idempotent: re-adding a current member is a no-op
    /// (`Ok(false)`). Returns `Ok(true)` when the roster actually grew.
    pub fn add_target(&self, target: NodeId) -> Result<bool, OffloadError> {
        self.offload.check_target(target)?;
        let backend = self.offload.backend();
        let chan = backend.channel(target)?;
        if let Some(e) = chan.eviction() {
            return Err(e);
        }
        let grew = {
            let mut st = self.state.lock().unwrap();
            match st.members.binary_search_by_key(&target, |m| m.node) {
                Ok(_) => false,
                Err(pos) => {
                    st.members.insert(pos, Member::new(target));
                    true
                }
            }
        };
        if grew {
            backend.metrics().health().register(target.0);
            backend.metrics().on_member_join();
        }
        Ok(grew)
    }

    /// Retire `target` from the pool: it stops receiving placements
    /// immediately, staged-but-unflushed members are reclaimed (they
    /// fail over to survivors on their next settle — provably unsent,
    /// so exactly-once holds), and work already on the wire is drained
    /// in place before the call returns (the target keeps serving what
    /// it accepted; results stay claimable through their futures).
    /// Errors with [`OffloadError::BadNode`] when `target` is not a
    /// member. Returns how many staged members were reclaimed.
    pub fn remove_target(&self, target: NodeId) -> Result<usize, OffloadError> {
        {
            let mut st = self.state.lock().unwrap();
            let Ok(pos) = st.members.binary_search_by_key(&target, |m| m.node) else {
                return Err(OffloadError::BadNode(target));
            };
            st.members.remove(pos);
        }
        let backend = self.offload.backend();
        let mut reclaimed = 0;
        if let Ok(chan) = backend.channel(target) {
            reclaimed = chan.take_staged_tail(chan.staged_len());
            // Bounded in-place drain of wire traffic: a live target
            // finishes what it accepted; a dying one exits through
            // degradation/eviction (its futures fail over or surface
            // the loss) rather than pinning this call.
            let mut backoff = Backoff::new();
            let deadline = Instant::now() + Duration::from_secs(30);
            while chan.in_flight() > 0
                && chan.eviction().is_none()
                && !chan.is_degraded()
                && !chan.is_shutdown()
                && Instant::now() < deadline
            {
                let _ = engine::drain(backend.as_ref(), target);
                backoff.snooze();
            }
            backoff.record(backend.metrics());
        }
        backend.metrics().on_member_leave();
        Ok(reclaimed)
    }

    /// Start the background prober: a supervisor thread that issues one
    /// `probe()` round trip per member every `PROBE_EVERY` of virtual
    /// time, maintaining the per-target miss streaks `select`
    /// deprioritizes by and recording `Probe`/`ProbeMiss` health events
    /// — so the `Degraded → healed` edge is driven without any caller
    /// touching the channel. Idempotent while a prober is already running.
    pub fn start_prober(&self) {
        let mut guard = self.prober.lock().unwrap();
        if guard.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            let offload = self.offload.clone();
            let state = self.state.clone();
            std::thread::Builder::new()
                .name("pool-prober".into())
                .spawn(move || prober_main(&offload, &state, &stop))
                .expect("spawn pool prober thread")
        };
        *guard = Some(Prober { stop, handle });
    }

    /// Stop and join the background prober. Returns how many probe
    /// rounds it ran, or `None` if none was running. Also called by
    /// `Drop`, so an exiting pool never leaks the thread.
    pub fn stop_prober(&self) -> Option<u64> {
        let p = self.prober.lock().unwrap().take()?;
        p.stop.store(true, Ordering::SeqCst);
        p.handle.join().ok()
    }

    /// Non-blocking placement: `Ok(Some(target))` when a healthy target
    /// has spare credits, `Ok(None)` when all are at their limit (the
    /// caller can do other work — e.g. run a task on the host — instead
    /// of blocking), `Err` when no healthy target remains.
    pub fn try_pick(&self) -> Result<Option<NodeId>, OffloadError> {
        self.select(&mut self.state.lock().unwrap(), true)
    }

    /// Blocking placement: flush staged batches (a full accumulator
    /// holds credits without being on the wire) and back off until a
    /// credit frees up.
    ///
    /// Credit exhaustion waits indefinitely (the work in flight *will*
    /// retire), but an **all-degraded** pool must not: every link is
    /// down and nothing this loop does can complete anything. That wait
    /// is bounded by the targets' reconnect budgets — a session resume
    /// ([`ChannelCore::resumes`] advancing) restarts the budget, an
    /// eviction exits through `pool_empty`, and budget expiry surfaces
    /// [`OffloadError::Timeout`] instead of hanging forever.
    fn pick(&self) -> Result<NodeId, OffloadError> {
        let mut backoff = Backoff::new();
        let picked = self.pick_paced(&mut backoff);
        backoff.record(self.offload.backend().metrics());
        picked
    }

    /// [`Self::pick`]'s loop, pausing on `backoff`.
    fn pick_paced(&self, backoff: &mut Backoff) -> Result<NodeId, OffloadError> {
        // `(deadline, resume_epoch)` while every healthy target is
        // degraded; `None` otherwise.
        let mut stall: Option<(Instant, u64)> = None;
        loop {
            {
                let mut st = self.state.lock().unwrap();
                if let Some(t) = self.select(&mut st, true)? {
                    return Ok(t);
                }
                match self.degraded_wait_budget(&st) {
                    None => stall = None,
                    Some((budget, epoch)) => match stall {
                        Some((deadline, e)) if e == epoch => {
                            if Instant::now() >= deadline {
                                return Err(OffloadError::Timeout);
                            }
                        }
                        // First all-degraded observation, or a resume
                        // made progress since: (re)arm the deadline.
                        _ => stall = Some((Instant::now() + budget, epoch)),
                    },
                }
            }
            // Credit exhaustion integrates with batching: staged
            // envelopes go on the wire now, and the drain sweep lets
            // polled transports retire completions.
            self.drain_all();
            backoff.snooze();
        }
    }

    /// When *every* healthy target is degraded, how long placement is
    /// worth waiting for a resume — the widest member's reconnect
    /// budget (~25 ms per budgeted attempt: the transport's capped
    /// backoff) plus slack — together with the summed resume epochs
    /// (progress detector). `None` while any healthy target is still
    /// connected (its credits will free up; wait indefinitely).
    fn degraded_wait_budget(&self, st: &PoolState) -> Option<(Duration, u64)> {
        let mut epoch = 0u64;
        let mut budget_ms = 0u64;
        for m in &st.members {
            let Some(chan) = self.live(m.node) else {
                continue;
            };
            if !chan.is_degraded() {
                return None;
            }
            epoch = epoch.wrapping_add(chan.resumes());
            let retries = u64::from(chan.recovery_budget().unwrap_or(0));
            budget_ms = budget_ms.max(25 * retries + 500);
        }
        Some((Duration::from_millis(budget_ms.min(60_000)), epoch))
    }

    /// Policy dispatch over the roster: one ascending scan that skips
    /// members whose channel is missing, evicted or degraded (a degraded
    /// target stays pooled — its link is reconnecting and it may heal —
    /// but takes no new placements while down) and keeps the candidate
    /// with the smallest key; strict `<` tie-breaks to the lowest node
    /// id. `Err` when no member is live, `Ok(None)` when every live one
    /// is degraded or (with `respect_credit`) out of credits.
    /// `respect_credit = false` (failover resubmission) still
    /// load-balances but never refuses: blocking on our own in-flight
    /// work mid-wait would deadlock, and the engine's slot backpressure
    /// bounds the overshoot.
    ///
    /// Both policies fold in the prober's liveness signal: a target
    /// with a probe-miss streak is considered only after all clean
    /// targets, so a flapping link sheds placements before it
    /// hard-fails. With no prober running all streaks are zero.
    fn select(
        &self,
        st: &mut PoolState,
        respect_credit: bool,
    ) -> Result<Option<NodeId>, OffloadError> {
        let mut any_live = false;
        let mut best: Option<((u32, usize), NodeId)> = None;
        for m in &st.members {
            let Some(chan) = self.live(m.node) else {
                continue;
            };
            any_live = true;
            if chan.is_degraded() {
                continue;
            }
            let load = chan.in_flight();
            if respect_credit && load >= chan.credit_limit() {
                continue;
            }
            let key = match self.policy {
                SchedPolicy::LeastLoaded => (m.streak, load),
                // Clean targets first, each tier in node order starting
                // after the last pick: a flaky target still serves when
                // it is all that's left.
                SchedPolicy::RoundRobin => (
                    u32::from(m.streak > 0),
                    usize::from(m.node.0.wrapping_sub(st.last.0).wrapping_sub(1)),
                ),
            };
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, m.node));
            }
        }
        if !any_live {
            return Err(pool_empty());
        }
        let picked = best.map(|(_, t)| t);
        if let Some(t) = picked {
            st.last = t;
        }
        Ok(picked)
    }

    /// The smallest completion-latency EWMA among `targets` (1.0 when
    /// none has completed anything): what a cold target scores with, so
    /// it is tried rather than starved.
    fn ewma_floor(&self, targets: impl Iterator<Item = NodeId>) -> f64 {
        let metrics = self.offload.backend().metrics();
        let min = targets
            .filter_map(|t| metrics.latency_ewma(t.0))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            1.0
        }
    }

    /// `t`'s completion-latency EWMA, `floor` while it has none.
    fn ewma(&self, t: NodeId, floor: f64) -> f64 {
        let metrics = self.offload.backend().metrics();
        metrics.latency_ewma(t.0).unwrap_or(floor)
    }

    /// Flush every healthy target's staged batch and sweep its
    /// completion flags once.
    pub(crate) fn drain_all(&self) {
        for t in self.healthy() {
            let backend = self.offload.backend().as_ref();
            // A degraded target's flush parks until its link heals;
            // don't let it stall draining of the healthy targets.
            if backend.channel(t).is_ok_and(|c| c.is_degraded()) {
                continue;
            }
            let _ = engine::drain(backend, t);
        }
    }

    /// Place `msg` on a target chosen by the pool's policy. Blocks
    /// (flushing + backing off) while every healthy target is at its
    /// credit limit; fails over to a survivor if the chosen target dies
    /// before the post lands.
    pub fn submit<M: ActiveMessage>(&self, msg: M) -> Result<PoolFuture<M::Output>, OffloadError> {
        self.place(msg, None)
    }

    /// Affinity submission: place `msg` on `target` specifically — the
    /// caller has already staged its data there with
    /// [`Offload::put`]. Pinned offloads never fail over (their data
    /// died with the target); a lost target surfaces its error
    /// unchanged.
    pub fn submit_to<M: ActiveMessage>(
        &self,
        target: NodeId,
        msg: M,
    ) -> Result<PoolFuture<M::Output>, OffloadError> {
        self.place(msg, Some(target))
    }

    fn place<M: ActiveMessage>(
        &self,
        msg: M,
        fixed: Option<NodeId>,
    ) -> Result<PoolFuture<M::Output>, OffloadError> {
        // Encode into a pooled buffer the future keeps: failover replays
        // these bytes on a survivor without re-owning the functor, and
        // the claimed future hands the buffer back to the pool.
        let mut payload = self.frames.checkout();
        let key = self
            .offload
            .backend()
            .host_registry()
            .encode_message_into(&msg, &mut payload)?;
        let mut last_err: Option<OffloadError> = None;
        loop {
            let target = match fixed {
                Some(t) => t,
                None => match self.pick() {
                    Ok(t) => t,
                    // Prefer the error that emptied the pool over the
                    // generic "no targets" one.
                    Err(e) => return Err(last_err.unwrap_or(e)),
                },
            };
            match self
                .offload
                .submit_raw(target, key, &payload, decode_output::<M>)
            {
                Ok(inner) => {
                    return Ok(PoolFuture {
                        inner,
                        key,
                        payload,
                        resubmits: 0,
                        pinned: fixed.is_some(),
                    });
                }
                // The post evicted its target before anything reached
                // the wire: try a survivor. Any other error (a message
                // too large for the slots, shutdown) is the caller's.
                Err(e) if fixed.is_none() && self.evicted_by(target, &e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
    }

    /// Put `fut`'s kept message on `target` again; on success the new
    /// attempt replaces the settled one.
    fn resubmit<T>(&self, fut: &mut PoolFuture<T>, target: NodeId) -> Result<(), OffloadError> {
        fut.inner = self
            .offload
            .submit_raw(target, fut.key, &fut.payload, fut.inner.decoder())?;
        fut.resubmits += 1;
        Ok(())
    }

    /// Resubmit a failed-but-unsent offload to a survivor.
    fn repost<T>(&self, fut: &mut PoolFuture<T>) -> Result<(), OffloadError> {
        loop {
            let target = self
                .select(&mut self.state.lock().unwrap(), false)?
                .ok_or_else(pool_empty)?;
            match self.resubmit(fut, target) {
                Ok(()) => {
                    // Record the failover in the health log with the
                    // *new* attempt's correlation id, so the event links
                    // to the span tree of the resubmission that landed.
                    let backend = self.offload.backend();
                    backend.metrics().health().record(
                        target.0,
                        HealthEventKind::Failover,
                        fut.inner.offload_id().0,
                        backend.host_clock().now().as_ps(),
                    );
                    return Ok(());
                }
                Err(e) if self.evicted_by(target, &e) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Settle `fut` from its channel's parked completions (no transport
    /// sweep; `swept` says whether one just ran, so a miss counts). `true`
    /// once the result is in (it stays inside the future); a failure
    /// whose frame verifiably never reached the transport is
    /// resubmitted here instead and stays pending on its new target.
    fn settle<T>(&self, fut: &mut PoolFuture<T>, swept: bool) -> bool {
        if !fut.inner.poll(swept) {
            return false;
        }
        let Some(err) = fut.inner.take_unsent() else {
            return true;
        };
        let target = fut.inner.target();
        let migrated = matches!(err, OffloadError::Migrated);
        if fut.pinned {
            if migrated {
                // A rebalance reclaimed this member from its pinned
                // target's accumulator; the target is alive, so the
                // message goes straight back.
                if let Err(e) = self.resubmit(fut, target) {
                    fut.inner = Future::ready(target, Err(e));
                }
            }
            return !fut.inner.is_pending();
        }
        // A migration donor is merely slow; otherwise the offload moves
        // only when its failure evicted the target, and any other error
        // stays the caller's.
        if !migrated && !self.evicted_by(target, &err) {
            return true;
        }
        // Pending again on a survivor — or, with no survivors, the
        // *original* error stays where it is.
        self.repost(fut).is_err()
    }

    /// Migrate staged-but-unflushed batch members off slow targets onto
    /// idle peers. A *donor* is a healthy target holding staged members
    /// behind frames already on the wire (`in_flight() != staged_len()`
    /// — a purely-staged target just needs a flush, not a migration);
    /// migration runs only while some healthy peer is completely idle
    /// with spare credit, so the reclaimed members land somewhere that
    /// serves them now — and only from donors whose `rebalance_cost`
    /// exceeds that recipient's, so members never migrate *onto* a worse
    /// target. Half the donor's staged tail (rounded up) is reclaimed
    /// via `ChannelCore::take_staged_tail` — provably unsent, so the
    /// failover replay is exact — and each member's [`PoolFuture`]
    /// resubmits itself on its next settle.
    /// Runs automatically inside [`TargetPool::wait_any`] /
    /// [`TargetPool::wait_all`] rounds; returns how many members were
    /// reclaimed.
    pub fn rebalance(&self) -> usize {
        // Walk the roster under the pool lock (the order `healthy` takes
        // too: pool, then channels) instead of collecting it: this runs
        // on every unsettled wait sweep and must not allocate.
        let st = self.state.lock().unwrap();
        let healthy = || {
            st.members
                .iter()
                .filter_map(|m| Some((m.node, self.live(m.node)?)))
        };
        if healthy().nth(1).is_none() {
            return 0;
        }
        let floor = self.ewma_floor(healthy().map(|(t, _)| t));
        // The cheapest completely idle recipient.
        let mut recipient = f64::INFINITY;
        for (t, chan) in healthy() {
            if chan.is_degraded() || chan.in_flight() != 0 || !chan.has_credit() {
                continue;
            }
            recipient = recipient.min(rebalance_cost(chan, self.ewma(t, floor)));
        }
        if !recipient.is_finite() {
            return 0;
        }
        let mut moved = 0;
        for (t, chan) in healthy() {
            let staged = chan.staged_len();
            if staged == 0 || chan.in_flight() == staged {
                continue;
            }
            // Migrate only when the move wins under the cost model: a
            // donor cheaper than the best idle recipient (e.g. a fast
            // target briefly holding a shallow accumulator) keeps its
            // members.
            if rebalance_cost(chan, self.ewma(t, floor)) <= recipient {
                continue;
            }
            moved += chan.take_staged_tail(staged.div_ceil(2));
        }
        moved
    }

    /// Block until at least one future is ready and return its index
    /// (claim the result with [`TargetPool::get`]). `None` when nothing
    /// is pending or ready.
    pub fn wait_any<T>(&self, futures: &mut [PoolFuture<T>]) -> Option<usize> {
        future::wait(
            futures,
            |f| &f.inner,
            |futures, swept| {
                if futures.is_empty() {
                    return Some(None);
                }
                let ready = futures.iter_mut().position(|f| self.settle(f, swept));
                if ready.is_none() {
                    self.rebalance();
                }
                ready.map(Some)
            },
        )
    }

    /// Block until every future is ready and return the results in
    /// order.
    pub fn wait_all<T>(&self, futures: Vec<PoolFuture<T>>) -> Vec<Result<T, OffloadError>> {
        let mut futures = futures;
        future::wait(
            &mut futures,
            |f| &f.inner,
            |futures, swept| {
                let mut settled = true;
                for f in futures.iter_mut() {
                    settled &= self.settle(f, swept);
                }
                if !settled {
                    self.rebalance();
                }
                settled.then_some(())
            },
        );
        futures.into_iter().map(|f| f.inner.get()).collect()
    }

    /// Blocking accessor: poll (and fail over) until the result is in.
    pub fn get<T>(&self, mut fut: PoolFuture<T>) -> Result<T, OffloadError> {
        future::wait(
            core::slice::from_mut(&mut fut),
            |f| &f.inner,
            |f, swept| self.settle(&mut f[0], swept).then_some(()),
        );
        fut.inner.get()
    }
}

impl Drop for TargetPool {
    fn drop(&mut self) {
        let _ = self.stop_prober();
    }
}

/// One probe round over the pool roster: per member, clear the miss
/// streak if its session resumed since the last round, then run one
/// [`engine::probe`] round trip — success halves the streak, a miss
/// increments it. Shut-down and evicted channels are skipped (eviction
/// is latched; probing it tells us nothing new). Returns
/// `(answered, missed)`.
fn probe_round(offload: &Offload, state: &Mutex<PoolState>) -> (usize, usize) {
    let backend = offload.backend();
    let members = state.lock().unwrap().nodes();
    let (mut answered, mut missed) = (0, 0);
    for t in members {
        let Ok(chan) = backend.channel(t) else {
            continue;
        };
        if chan.is_shutdown() || chan.eviction().is_some() {
            continue;
        }
        let epoch = chan.resumes();
        if let Some(m) = state.lock().unwrap().member(t) {
            if core::mem::replace(&mut m.resumes, epoch) != epoch {
                // The transport resumed the session between rounds:
                // that is the heal notification — forgive the streak
                // now, don't make the target earn placements back one
                // halving at a time.
                m.streak = 0;
            }
        }
        let ok = engine::probe(backend.as_ref(), t).is_ok();
        if ok {
            answered += 1;
        } else {
            missed += 1;
        }
        if let Some(m) = state.lock().unwrap().member(t) {
            m.streak = if ok {
                m.streak / 2
            } else {
                m.streak.saturating_add(1)
            };
        }
    }
    (answered, missed)
}

/// Body of the prober supervisor thread: wall-poll the virtual clock
/// and run [`probe_round`] once per virtual tick (deterministic while
/// traffic advances the clock), with the [`PROBE_IDLE_GRACE`] wall
/// fallback keeping liveness when virtual time is frozen. Returns the
/// number of rounds run.
fn prober_main(offload: &Offload, state: &Mutex<PoolState>, stop: &AtomicBool) -> u64 {
    let every = PROBE_EVERY.as_ps();
    let mut last_tick = offload.backend().host_clock().now().as_ps() / every;
    let mut frozen = 0u32;
    let mut rounds = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(PROBE_POLL);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let tick = offload.backend().host_clock().now().as_ps() / every;
        let due = if tick != last_tick {
            last_tick = tick;
            frozen = 0;
            true
        } else {
            frozen += 1;
            if frozen >= PROBE_IDLE_GRACE {
                frozen = 0;
                true
            } else {
                false
            }
        };
        if due {
            rounds += 1;
            probe_round(offload, state);
        }
    }
    rounds
}

impl core::fmt::Debug for TargetPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "TargetPool({:?}, {} healthy)", self.policy, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::Reserve;
    use crate::local::LocalBackend;
    use ham::{f2f, ham_kernel};
    use proptest::prelude::*;
    use std::collections::HashMap;

    ham_kernel! {
        pub fn pool_probe(ctx, x: u64) -> u64 { x * 1000 + ctx.node as u64 }
    }

    fn pooled(targets: u16, policy: SchedPolicy) -> (Offload, TargetPool) {
        let o = Offload::new(LocalBackend::spawn(targets, |b| {
            b.register::<pool_probe>();
        }));
        let nodes: Vec<NodeId> = (1..=targets).map(NodeId).collect();
        let p = o.pool_with(&nodes, policy).unwrap();
        (o, p)
    }

    #[test]
    fn empty_and_invalid_pools_are_rejected() {
        let o = Offload::new(LocalBackend::spawn(2, |b| {
            b.register::<pool_probe>();
        }));
        assert!(o.pool(&[]).is_err());
        assert!(o.pool(&[NodeId(9)]).is_err(), "out of range");
        assert!(o.pool(&[NodeId::HOST]).is_err(), "host is not a target");
        let p = o.pool(&[NodeId(2), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.healthy(), vec![NodeId(1), NodeId(2)], "sorted, deduped");
    }

    #[test]
    fn submit_round_trips_through_the_pool() {
        let (_o, p) = pooled(4, SchedPolicy::LeastLoaded);
        let futs: Vec<_> = (0..16)
            .map(|i| p.submit(f2f!(pool_probe, i as u64)).unwrap())
            .collect();
        let got = p.wait_all(futs);
        for (i, r) in got.into_iter().enumerate() {
            let v = r.unwrap();
            assert_eq!(v / 1000, i as u64);
            assert!((1..=4).contains(&(v % 1000)), "served by a pool target");
        }
    }

    #[test]
    fn least_loaded_picks_fewest_in_flight_with_low_tie_break() {
        use aurora_sim_core::SimTime;
        let (o, p) = pooled(3, SchedPolicy::LeastLoaded);
        // All channels idle → all loads equal → lowest node id wins.
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(1)));
        // Pin synthetic load (reservations that never complete, so the
        // counters cannot race the targets): placement must follow the
        // observable in-flight counts.
        let b = o.backend();
        let load = |n: u16| {
            b.channel(NodeId(n))
                .unwrap()
                .try_reserve(false, 0, SimTime::ZERO, 0)
        };
        load(1);
        load(1);
        load(2);
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(3)), "idle target wins");
        load(3);
        // Nodes 2 and 3 tie at one in flight → lowest id.
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(2)));
    }

    #[test]
    fn round_robin_rotates_regardless_of_load() {
        let (_o, p) = pooled(3, SchedPolicy::RoundRobin);
        let targets: Vec<NodeId> = (0..6)
            .map(|i| p.submit(f2f!(pool_probe, i as u64)).unwrap())
            .map(|f| {
                let t = f.target();
                p.get(f).unwrap();
                t
            })
            .collect();
        assert_eq!(
            targets,
            [1, 2, 3, 1, 2, 3].map(NodeId).to_vec(),
            "strict rotation"
        );
    }

    #[test]
    fn rebalance_migrates_staged_members_off_a_slow_target() {
        use crate::chan::BatchConfig;
        use aurora_sim_core::SimTime;
        let o = Offload::new(LocalBackend::spawn_batched(
            3,
            BatchConfig::up_to(64),
            |b| {
                b.register::<pool_probe>();
            },
        ));
        let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let p = o.pool_with(&nodes, SchedPolicy::RoundRobin).unwrap();
        // A synthetic wire frame that never completes makes target 1
        // *slow*: anything staged behind it would wait forever.
        let b = o.backend();
        b.channel(NodeId(1))
            .unwrap()
            .try_reserve(false, 0, SimTime::ZERO, 0);
        // Round-robin staging: one member on target 1 (behind the stuck
        // frame), one on target 2; target 3 stays idle.
        let futs = vec![
            p.submit(f2f!(pool_probe, 10)).unwrap(),
            p.submit(f2f!(pool_probe, 20)).unwrap(),
        ];
        assert_eq!(futs[0].target(), NodeId(1));
        let c1 = b.channel(NodeId(1)).unwrap();
        assert_eq!(c1.staged_len(), 1);
        // Target 1 qualifies as donor (staged work behind a wire
        // frame), target 3 as the idle recipient.
        assert_eq!(p.rebalance(), 1);
        assert_eq!(c1.staged_len(), 0);
        assert_eq!(p.rebalance(), 0, "nothing staged behind wire frames now");
        // Both offloads complete; the migrated member lands on a peer
        // and the donor is *not* evicted from the pool.
        for r in p.wait_all(futs) {
            let v = r.unwrap();
            assert_ne!(v % 1000, 1, "no result can come from stuck target 1");
        }
        assert_eq!(p.healthy(), nodes, "a slow donor stays in the pool");
    }

    #[test]
    fn placement_cost_charges_probes_for_staged_depth() {
        use crate::chan::BatchConfig;
        use ham::registry::HandlerKey;
        let chan = ChannelCore::unbounded().with_batching(BatchConfig::up_to(64));
        // The size-blind base: queued messages plus the newcomer, with
        // bytes in flight folded in as equivalent messages.
        let blind = |chan: &ChannelCore| {
            chan.in_flight() as f64 + 1.0 + chan.bytes_in_flight() as f64 / WEIGHT_BYTES_PER_MSG
        };
        // Empty channel: nothing staged, nothing to pay on top.
        assert!(rebalance_cost(&chan, 1.0) - blind(&chan) < 0.01);
        for i in 0..4 {
            chan.stage(HandlerKey(7), &[0u8; 16], i, SimTime::ZERO);
        }
        // A probe-class newcomer pays one unit per staged member on top
        // of the blind score.
        let (cost, base) = (rebalance_cost(&chan, 1.0), blind(&chan));
        assert!(
            cost - base >= 4.0,
            "probe must pay staged depth: {cost} vs {base}"
        );
        // EWMA scales the whole score.
        assert_eq!(rebalance_cost(&chan, 3.0), 3.0 * rebalance_cost(&chan, 1.0));
    }

    #[test]
    fn rebalance_keeps_members_when_recipient_is_no_better() {
        use crate::chan::BatchConfig;
        use aurora_sim_core::SimTime;
        let o = Offload::new(LocalBackend::spawn_batched(
            2,
            BatchConfig::up_to(64),
            |b| {
                b.register::<pool_probe>();
            },
        ));
        let nodes: Vec<NodeId> = (1..=2).map(NodeId).collect();
        let p = o.pool_with(&nodes, SchedPolicy::RoundRobin).unwrap();
        let b = o.backend();
        // Target 1: one stuck wire frame with one member staged behind
        // it — structurally a donor. Target 2 is idle — structurally a
        // recipient.
        b.channel(NodeId(1))
            .unwrap()
            .try_reserve(false, 0, SimTime::ZERO, 0);
        let futs = vec![p.submit(f2f!(pool_probe, 10)).unwrap()];
        assert_eq!(futs[0].target(), NodeId(1));
        assert_eq!(b.channel(NodeId(1)).unwrap().staged_len(), 1);
        // But the recipient's completion EWMA is a thousand times the
        // donor's: under the size-aware cost model the stuck-but-fast
        // donor (~4 x 1us) still beats the idle-but-slow recipient
        // (1 x 1ms), so the gate keeps the member where it is.
        let m = b.metrics();
        m.on_complete_on(1, SimTime::from_us(1).as_ps());
        m.on_complete_on(2, SimTime::from_ms(1).as_ps());
        assert_eq!(
            p.rebalance(),
            0,
            "a slow recipient is not a win over a fast donor"
        );
        assert_eq!(b.channel(NodeId(1)).unwrap().staged_len(), 1);
        // A run of fast completions converges the recipient's EWMA
        // down; the same gate now favours migration.
        for _ in 0..400 {
            m.on_complete_on(2, SimTime::from_us(1).as_ps());
        }
        assert_eq!(p.rebalance(), 1, "fast idle recipient attracts the member");
        assert_eq!(b.channel(NodeId(1)).unwrap().staged_len(), 0);
        for r in p.wait_all(futs) {
            assert_eq!(r.unwrap() % 1000, 2, "member served by the fast peer");
        }
    }

    /// Regression: an all-degraded pool used to spin `pick()` forever —
    /// every target skipped by `select`, none evicted, so the loop had
    /// no exit. The wait must be bounded by the reconnect budget and
    /// surface `Timeout`.
    #[test]
    fn all_degraded_pool_surfaces_timeout_instead_of_hanging() {
        let (o, p) = pooled(2, SchedPolicy::LeastLoaded);
        let b = o.backend();
        for n in 1..=2u16 {
            b.channel(NodeId(n))
                .unwrap()
                .degrade(OffloadError::TargetLost(NodeId(n)));
        }
        // No recovery armed → no reconnect budget → the minimum 500 ms
        // stall budget applies; well inside the test deadline.
        let deadline = Instant::now() + Duration::from_secs(60);
        let err = p.submit(f2f!(pool_probe, 1)).unwrap_err();
        assert!(matches!(err, OffloadError::Timeout), "got {err:?}");
        assert!(Instant::now() < deadline, "wait must be bounded");
    }

    /// A resume while the placement loop is stalled re-arms the budget
    /// and placement proceeds on the healed target instead of timing
    /// out.
    #[test]
    fn degraded_pool_resumes_placement_after_heal() {
        let (o, p) = pooled(1, SchedPolicy::LeastLoaded);
        let chan = o.backend().channel(NodeId(1)).unwrap();
        chan.degrade(OffloadError::TargetLost(NodeId(1)));
        assert_eq!(p.try_pick().unwrap(), None, "degraded target takes none");
        chan.resume(None, OffloadError::TargetLost(NodeId(1)));
        assert_eq!(chan.resumes(), 1, "resume epoch advanced");
        let f = p.submit(f2f!(pool_probe, 5)).unwrap();
        assert_eq!(p.get(f).unwrap(), 5001);
    }

    /// Regression: pruning an evicted target used to reset the
    /// round-robin cursor to 0, biasing placement toward the lowest
    /// surviving id. Rotation must continue after the last pick.
    #[test]
    fn round_robin_rotation_survives_eviction_without_reset() {
        let (o, p) = pooled(3, SchedPolicy::RoundRobin);
        // Advance the rotation so the cursor points at target 3.
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(1)));
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(2)));
        o.backend()
            .channel(NodeId(1))
            .unwrap()
            .evict(OffloadError::TargetLost(NodeId(1)));
        // Next pick is still target 3 — not a snap-back to target 2.
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(3)));
        // And the survivors keep strictly alternating.
        let mut counts = HashMap::new();
        for _ in 0..10 {
            let t = p.try_pick().unwrap().unwrap();
            *counts.entry(t.0).or_insert(0u32) += 1;
        }
        assert_eq!(counts.get(&2), Some(&5), "{counts:?}");
        assert_eq!(counts.get(&3), Some(&5), "{counts:?}");
    }

    #[test]
    fn add_and_remove_target_on_a_running_pool() {
        let o = Offload::new(LocalBackend::spawn(3, |b| {
            b.register::<pool_probe>();
        }));
        let p = o
            .pool_with(&[NodeId(1), NodeId(2)], SchedPolicy::RoundRobin)
            .unwrap();
        // Work in flight across the membership change.
        let futs: Vec<_> = (0..4)
            .map(|i| p.submit(f2f!(pool_probe, i as u64)).unwrap())
            .collect();
        assert!(p.add_target(NodeId(3)).unwrap(), "roster grew");
        assert!(!p.add_target(NodeId(3)).unwrap(), "re-add is a no-op");
        assert!(p.add_target(NodeId(9)).is_err(), "unknown node refused");
        assert_eq!(p.healthy(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // The joiner takes placements on the next rotation.
        let served: Vec<NodeId> = (0..3)
            .map(|i| {
                let f = p.submit(f2f!(pool_probe, 100 + i as u64)).unwrap();
                let t = f.target();
                p.get(f).unwrap();
                t
            })
            .collect();
        assert!(served.contains(&NodeId(3)), "joiner got work: {served:?}");
        // Retiring a member drains it and stops new placements on it;
        // earlier results stay claimable.
        probe_round(&p.offload, &p.state);
        let resumes = o.backend().channel(NodeId(2)).unwrap().resumes();
        assert_eq!(
            p.state.lock().unwrap().member(NodeId(2)).map(|m| m.resumes),
            Some(resumes)
        );
        p.remove_target(NodeId(2)).unwrap();
        assert_eq!(p.healthy(), vec![NodeId(1), NodeId(3)]);
        assert!(
            p.state.lock().unwrap().member(NodeId(2)).is_none(),
            "a removed target leaves no prober state behind"
        );
        assert!(
            matches!(p.remove_target(NodeId(2)), Err(OffloadError::BadNode(_))),
            "double remove refused"
        );
        for r in p.wait_all(futs) {
            r.unwrap();
        }
        for _ in 0..4 {
            assert_ne!(p.try_pick().unwrap(), Some(NodeId(2)));
        }
        let m = o.backend().metrics().snapshot();
        assert_eq!((m.member_joins, m.member_leaves), (1, 1));
    }

    /// Probe rounds: misses build a streak that deprioritizes the
    /// target in `select`; a session resume (epoch advance) forgives
    /// the streak at once and the registry heals on the next answered
    /// probe.
    #[test]
    fn probe_misses_deprioritize_then_resume_forgives() {
        use aurora_telemetry::TargetState;
        let (o, p) = pooled(2, SchedPolicy::RoundRobin);
        assert_eq!(probe_round(&p.offload, &p.state), (2, 0), "all clean");
        let chan = o.backend().channel(NodeId(1)).unwrap();
        chan.degrade(OffloadError::TargetLost(NodeId(1)));
        assert_eq!(probe_round(&p.offload, &p.state), (1, 1));
        assert_eq!(probe_round(&p.offload, &p.state), (1, 1));
        let health = o.backend().metrics().health();
        assert_eq!(health.state(1), Some(TargetState::Degraded));
        // The link heals. Before the next probe round the streak still
        // stands, so the clean peer is preferred even though rotation
        // would reach target 1 first...
        chan.resume(None, OffloadError::TargetLost(NodeId(1)));
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(2)));
        // ...and the next round sees the resume epoch advance, forgives
        // the streak, and the answered probe heals the registry.
        assert_eq!(probe_round(&p.offload, &p.state), (2, 0));
        assert_eq!(health.state(1), Some(TargetState::Healthy));
        assert_eq!(p.try_pick().unwrap(), Some(NodeId(1)), "back in rotation");
        let m = o.backend().metrics().snapshot();
        assert_eq!(m.probes, 6);
        assert_eq!(m.probe_misses, 2);
    }

    /// The background prober drives rounds by itself: no submissions,
    /// no caller polling — the wall-clock fallback paces rounds while
    /// virtual time is frozen.
    #[test]
    fn background_prober_runs_rounds_without_traffic() {
        let (o, p) = pooled(2, SchedPolicy::LeastLoaded);
        p.start_prober();
        p.start_prober(); // idempotent
        let deadline = Instant::now() + Duration::from_secs(30);
        while o.backend().metrics().snapshot().probes < 3 {
            assert!(Instant::now() < deadline, "prober must make rounds");
            std::thread::sleep(Duration::from_millis(1));
        }
        let rounds = p.stop_prober().expect("prober was running");
        assert!(rounds >= 2, "got {rounds}");
        assert!(p.stop_prober().is_none(), "already stopped");
    }

    /// A pool at its credit limit holds a `submit` in `pick` until a
    /// completion frees a credit, and that placement stall is counted
    /// in the wait-phase counters.
    #[test]
    fn a_submit_at_the_credit_limit_waits_and_is_counted() {
        let (o, p) = pooled(1, SchedPolicy::RoundRobin);
        let chan = o.backend().channel(NodeId(1)).unwrap();
        let limit = chan.credit_limit();
        let mut futs: Vec<_> = (0..limit)
            .map(|i| p.submit(f2f!(pool_probe, i as u64)).unwrap())
            .collect();
        // Nothing sweeps the polled slots between posts, so every
        // credit is still taken, however fast the target ran.
        assert!(!chan.has_credit());
        let waits = |o: &Offload| {
            let s = o.metrics_snapshot();
            s.waits_spin + s.waits_yield + s.waits_sleep
        };
        let before = waits(&o);
        futs.push(p.submit(f2f!(pool_probe, limit as u64)).unwrap());
        assert!(chan.in_flight() <= limit, "placed once a credit freed");
        assert!(waits(&o) > before, "the placement stall is counted");
        let got = p.wait_all(futs);
        assert!(got.iter().all(Result::is_ok));
    }

    #[test]
    fn wait_any_hands_back_ready_futures_one_by_one() {
        let (_o, p) = pooled(2, SchedPolicy::LeastLoaded);
        let mut futs: Vec<_> = (0..6)
            .map(|i| p.submit(f2f!(pool_probe, i as u64)).unwrap())
            .collect();
        let mut seen = 0;
        while !futs.is_empty() {
            let i = p.wait_any(&mut futs).expect("something pending");
            let f = futs.swap_remove(i);
            p.get(f).unwrap();
            seen += 1;
        }
        assert_eq!(seen, 6);
        assert!(p.wait_any::<u64>(&mut []).is_none());
    }

    /// Test-only reference for the one-scan `select`: the parent's
    /// prune (members whose channel is missing or evicted drop out),
    /// then the two hand-written loops it replaced — round-robin's
    /// "clean first, then flaky" rotation, starting at the first live
    /// member above the last pick, and least-loaded's lexicographic
    /// `(streak, load)` scan.
    fn two_loop_select(
        p: &TargetPool,
        st: &mut PoolState,
        respect_credit: bool,
    ) -> Result<Option<NodeId>, OffloadError> {
        let backend = p.offload.backend();
        let live: Vec<(NodeId, u32)> = st
            .members
            .iter()
            .filter(|m| {
                backend
                    .channel(m.node)
                    .is_ok_and(|c| c.eviction().is_none())
            })
            .map(|m| (m.node, m.streak))
            .collect();
        if live.is_empty() {
            return Err(pool_empty());
        }
        let picked = match p.policy {
            SchedPolicy::RoundRobin => {
                let n = live.len();
                let cursor = live.iter().position(|&(t, _)| t > st.last).unwrap_or(0);
                let mut picked = None;
                'scan: for pass in 0..2 {
                    for i in 0..n {
                        let (t, streak) = live[(cursor + i) % n];
                        if pass == 0 && streak > 0 {
                            continue;
                        }
                        let chan = backend.channel(t).unwrap();
                        if chan.is_degraded() {
                            continue;
                        }
                        if !respect_credit || chan.has_credit() {
                            picked = Some(t);
                            break 'scan;
                        }
                    }
                }
                picked
            }
            SchedPolicy::LeastLoaded => {
                let mut best: Option<((u32, f64), NodeId)> = None;
                for &(t, streak) in &live {
                    let chan = backend.channel(t).unwrap();
                    if chan.is_degraded() {
                        continue;
                    }
                    let load = chan.in_flight();
                    if respect_credit && load >= chan.credit_limit() {
                        continue;
                    }
                    let key = (streak, load as f64);
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, t));
                    }
                }
                best.map(|(_, t)| t)
            }
        };
        if let Some(t) = picked {
            st.last = t;
        }
        Ok(picked)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-scan `select` returns the same target (or the same
        /// pool-empty error) and leaves the same last pick as the two
        /// loops it replaced, under both policies, from every last pick
        /// in `0..=n+1`, with and without credit admission — over random
        /// synthetic loads up to the credit limit, degraded channels,
        /// evicted channels, probe-miss streaks, and (`ghost`) a member
        /// the backend has no channel for.
        #[test]
        fn one_scan_select_places_like_the_two_loops(
            targets in proptest::collection::vec((0usize..6, 0u8..4, 0u8..4, 0u32..3), 1..7),
            ghost: bool,
        ) {
            let n = targets.len() as u16;
            let o = Offload::new(LocalBackend::spawn(n, |b| {
                b.register::<pool_probe>();
            }));
            let nodes: Vec<NodeId> = (1..=n).map(NodeId).collect();
            let pools = [SchedPolicy::LeastLoaded, SchedPolicy::RoundRobin]
                .map(|policy| o.pool_with(&nodes, policy).unwrap());
            let b = o.backend();
            for (&t, &(load, degraded, evicted, streak)) in nodes.iter().zip(&targets) {
                let chan = b.channel(t).unwrap();
                let limit = chan.credit_limit();
                // 0..=3 in flight, one short of the limit, or at it.
                let load = match load {
                    4 => limit - 1,
                    5 => limit,
                    l => l,
                };
                for _ in 0..load {
                    let r = chan.try_reserve(false, 0, SimTime::ZERO, 0);
                    prop_assert!(matches!(r, Reserve::Reserved(_)));
                }
                if degraded == 0 {
                    chan.degrade(OffloadError::TargetLost(t));
                }
                if evicted == 0 {
                    chan.evict(OffloadError::TargetLost(t));
                }
                for p in &pools {
                    p.state.lock().unwrap().member(t).unwrap().streak = streak;
                }
            }
            for p in &pools {
                let mut st = p.state.lock().unwrap();
                if ghost {
                    st.members.push(Member::new(NodeId(n + 1)));
                }
                for last in (0..=n + 1).map(NodeId) {
                    for respect_credit in [false, true] {
                        st.last = last;
                        let want = two_loop_select(p, &mut st, respect_credit);
                        let want_last = st.last;
                        st.last = last;
                        let got = p.select(&mut st, respect_credit);
                        prop_assert_eq!(
                            (got, st.last),
                            (want, want_last),
                            "{:?} after last pick {:?} (credit {})",
                            p.policy,
                            last,
                            respect_credit
                        );
                    }
                }
            }
        }
    }
}
