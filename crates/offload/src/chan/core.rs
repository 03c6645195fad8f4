//! The per-target channel state machine.

use super::adaptive::{AdaptiveDecision, AdaptivePolicy, AdaptiveState};
use super::batch::{self, BatchConfig};
use super::pending::{FrameRecord, InFlight, PendingEntry, SeqTable};
use super::pool::{FramePool, PooledFrame};
use super::recovery::{MissVerdict, RecoveryPolicy, StoredFrame};
use super::ring::SlotRing;
use crate::OffloadError;
use aurora_sim_core::SimTime;
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Credit limit of channels whose slot rings set none: the unbounded
/// rings of TCP, the one push transport. The Local backend also sets it
/// on its 128-slot rings, which would allow 128. Other bounded channels
/// derive their limit from the slot arrays.
pub const DEFAULT_PUSH_CREDITS: usize = 64;

/// A claimed pair of slots plus the sequence number minted for them —
/// what a backend needs to address its transport writes.
#[derive(Clone, Copy, Debug)]
pub struct Reservation {
    /// Sequence number of the offload (also its wire `seq`).
    pub seq: u64,
    /// Receive slot the message goes into.
    pub recv_slot: usize,
    /// Send slot the result will come back in (wire `reply_slot`).
    pub send_slot: usize,
    /// Send attempt (0 = original post, `n` = n-th recovery re-send);
    /// fault injection keys frame-drop decisions on `(seq, attempt)`.
    pub attempt: u32,
}

/// Outcome of [`ChannelCore::try_reserve`].
#[derive(Debug)]
pub enum Reserve {
    /// Slots claimed; post the frame.
    Reserved(Reservation),
    /// No slot free right now — drain completions and retry.
    Full,
    /// The channel is shut down; nothing may be posted.
    Shutdown,
    /// The target was evicted; the error says why it is gone.
    Lost(OffloadError),
}

/// Outcome of [`ChannelCore::stage`] (batching enabled only).
#[derive(Debug)]
pub enum Stage {
    /// The message joined the staged envelope under its own seq. When
    /// `flush` is set a watermark tripped — send the envelope now.
    Staged {
        /// Seq the member's result will be claimable under.
        seq: u64,
        /// A count/byte watermark tripped: flush before returning.
        flush: bool,
        /// The flush was forced by the `slo_micros` age bound rather
        /// than a count/byte watermark (the engine surfaces these as
        /// SLO-flush metrics and health events).
        slo: bool,
    },
    /// The message does not fit next to what is already staged — flush,
    /// then stage again.
    FlushFirst,
    /// The message alone overflows an envelope — flush what is staged,
    /// then post it as a plain frame.
    TooBig,
    /// The channel is shut down.
    Shutdown,
    /// The target was evicted.
    Lost(OffloadError),
}

/// Outcome of [`ChannelCore::take_flush`].
#[derive(Debug)]
pub enum FlushPrep {
    /// Nothing staged.
    Empty,
    /// Slots exhausted — sweep completions and retry.
    Full,
    /// An envelope frame ready to hand to the transport.
    Ready(FlushFrame),
}

/// A batch envelope claimed out of the accumulator, with its slot
/// reservation, ready for [`crate::CommBackend::send_frame`].
#[derive(Debug)]
pub struct FlushFrame {
    /// Slot pair + carrier seq for the transport write.
    pub res: Reservation,
    /// The carrier header (also encoded at `frame[..32]`).
    pub header: MsgHeader,
    /// Full wire bytes: carrier header ‖ count ‖ sub-messages.
    pub frame: PooledFrame,
    /// Number of coalesced messages.
    pub(crate) msgs: usize,
    /// When the first member was staged — the flush-latency metric
    /// measures from here to the envelope reaching the transport.
    pub(crate) posted_at: SimTime,
}

/// One in-flight frame the transport must re-send after a session
/// resume: its wire image is still stored with its record and the
/// device-side watermark proves the target never executed it.
#[derive(Debug)]
pub struct ReplayFrame {
    /// Wire seq — unchanged; the in-flight record stays keyed by it and
    /// the eventual result deposits under it as usual.
    pub seq: u64,
    /// Full wire bytes (header ‖ payload), cloned from the stored wire
    /// image (replays are cold).
    pub frame: Vec<u8>,
    /// Which send attempt this is (1 = first replay).
    pub attempt: u32,
}

/// Outcome of [`ChannelCore::resume`]: which in-flight frames the
/// transport must re-send, and how many offloads were conservatively
/// failed because the target may already have executed them.
#[derive(Debug)]
pub struct ResumeReport {
    /// Frames to re-send in seq order; their offloads stay pending and
    /// complete through the normal deposit path.
    pub replay: Vec<ReplayFrame>,
    /// Offloads failed as possibly-executed (their seq is at or below
    /// the device watermark, or no wire image was stored). Batch
    /// carriers count every member.
    pub lost: usize,
}

/// The staged-but-unflushed envelope of one channel. `frame` is laid
/// out as `[32 zero bytes][4 zero bytes][subs…]` and patched into a
/// finished envelope at flush time.
struct BatchAccum {
    frame: Option<PooledFrame>,
    seqs: Vec<u64>,
    first_offload: u64,
    first_posted: SimTime,
}

impl BatchAccum {
    fn new() -> Self {
        Self {
            frame: None,
            seqs: Vec::new(),
            first_offload: 0,
            first_posted: SimTime::ZERO,
        }
    }
}

/// A finished offload's result frame (or the error that ended it),
/// parked until its future claims it.
struct Parked {
    result: Result<PooledFrame, OffloadError>,
    /// The offload failed *before its frame reached the transport*
    /// (staged at eviction, reclaimed by a rebalance, member of an
    /// envelope whose send failed). The scheduler distinguishes these —
    /// safe to resubmit elsewhere — from offloads the target may already
    /// have executed. Travels with the result, so it goes when the
    /// completion is claimed.
    unsent: bool,
}

/// Everything guarded by the channel lock.
struct ChanState {
    recv: SlotRing,
    send: SlotRing,
    /// Frames on the wire, by seq.
    frames: InFlight,
    /// Completed-but-unclaimed results, by seq. One flag sweep (or one
    /// deposit) parks *every* ready completion here, so sibling futures
    /// settle without touching the transport; transport errors park the
    /// same way, so a dead target errors every outstanding future
    /// instead of hanging them. Parking a seq again replaces its entry.
    parked: SeqTable<Parked>,
    seq: u64,
    shutdown: bool,
    /// `Some(why)` once the target was evicted: every in-flight offload
    /// was failed and new reservations are refused with this error.
    evicted: Option<OffloadError>,
    /// `Some(why)` while the transport is disconnected but a resume is
    /// still possible: in-flight offloads stay pending, new reservations
    /// park with [`Reserve::Full`] until [`ChannelCore::resume`] or
    /// [`ChannelCore::evict`] settles the session.
    degraded: Option<OffloadError>,
    /// Staged messages awaiting flush (batching enabled only).
    accum: BatchAccum,
    /// Recycled member-seq vectors (keeps settling allocation-free).
    seq_pool: Vec<Vec<u64>>,
    /// The adaptive watermark controller (`BatchConfig::adaptive` only).
    adaptive: Option<AdaptiveState>,
}

impl ChanState {
    /// Claim a receive/send slot pair, or neither.
    fn acquire_slots(&mut self) -> Option<(usize, usize)> {
        let recv_slot = self.recv.acquire()?;
        let Some(send_slot) = self.send.acquire() else {
            // Rewind, don't release: the rotation must re-offer this
            // recv slot, since the target never saw it claimed.
            self.recv.unacquire(recv_slot);
            return None;
        };
        Some((recv_slot, send_slot))
    }

    /// The one way an in-flight frame leaves the channel: out of the
    /// table, both slots back to their rings, and whatever the record
    /// owned (stored wire image, counters) dropped with it. `claimed`
    /// says who is asking — the sweeper that took the completion with
    /// [`ChannelCore::take_pending`], or anybody else; a frame only
    /// retires for the side that owns it.
    fn retire(&mut self, seq: u64, claimed: bool) -> Option<FrameRecord> {
        let rec = self.frames.remove(seq, claimed)?;
        self.recv.release(rec.entry.recv_slot);
        self.send.release(rec.entry.send_slot);
        Some(rec)
    }

    fn park(&mut self, seq: u64, result: Result<PooledFrame, OffloadError>, unsent: bool) {
        self.parked.insert(seq, Parked { result, unsent });
    }

    /// Park `err` for every seq in `seqs`.
    fn fail_all(&mut self, seqs: &[u64], err: &OffloadError, unsent: bool) {
        for &m in seqs {
            self.park(m, Err(err.clone()), unsent);
        }
    }

    fn recycle_seqs(&mut self, mut seqs: Vec<u64>) {
        seqs.clear();
        if self.seq_pool.len() < 8 {
            self.seq_pool.push(seqs);
        }
    }

    /// In-flight *messages*: what the frames on the wire carry plus
    /// whatever is staged awaiting flush.
    fn in_flight(&self) -> usize {
        self.frames.msgs() + self.accum.seqs.len()
    }
}

/// The host-side state of one target's channel: slot rings, the
/// in-flight frame table and the parked completions under a single
/// lock, plus the message-size limit the engine enforces before
/// reserving.
///
/// Backends own one per target and expose it through
/// [`crate::CommBackend::channel`]; all transitions are driven by
/// [`crate::chan::engine`]. The state machine per frame:
///
/// ```text
///                                   ┌ deposit_frame (push transports) ────────┐
///  try_reserve ──────────┐          ├ take_pending → fetch → finish (polled) ─┤
///                        ▼          ├ note_miss: deadline, budget gone ───────┤
///  stage ─► accumulator ─► IN FLIGHT┼ evict · resume (seq ≤ watermark) ───────┼─► retire ─► PARKED ─► claim ─► Future
///    │      (take_flush)   ▲  │     ├ fail_batch (envelope send failed) ──────┤     │
///    │                     └──┘     └ cancel (plain send failed) ─────────────┘     └ cancel parks nothing
///    │        note_miss: deadline, budget left — re-send, same seq and slots
///    └─ evict · take_staged_tail: parked as unsent failures, never in flight
/// ```
///
/// Every edge out of *in flight* is the same transition (`retire`: the
/// record leaves the table, both slots return); the edges differ only
/// in what is parked for the future. With batching enabled
/// ([`ChannelCore::with_batching`]) `stage` mints a seq per message and
/// `take_flush` claims **one** slot pair for the whole envelope (the
/// record is keyed by the *carrier* seq — the last member's); retiring
/// a carrier fans its result out to every member seq.
///
/// The retry/timeout edges exist only when a [`RecoveryPolicy`] is
/// armed; eviction ([`ChannelCore::evict`]) retires every in-flight
/// frame at once and latches the channel so later reservations refuse
/// with the eviction error ([`Reserve::Lost`]).
pub struct ChannelCore {
    state: Mutex<ChanState>,
    max_msg_bytes: usize,
    pool: Arc<FramePool>,
    batch: BatchConfig,
    /// Armed timeout/retry policy (fault-tolerant channels only; `None`
    /// keeps the historical always-wait behavior and stores no frames).
    recovery: Option<RecoveryPolicy>,
    /// Scheduler admission limit, fixed by the builders: ring
    /// capacities never change after construction.
    credits: usize,
    /// Count of settled [`Self::resume`] transitions — a lock-free
    /// "session healed" epoch. Pool probers watch it to clear liveness
    /// penalties the moment a transport reconnects, without waiting for
    /// the next probe round trip.
    resumes: AtomicU64,
}

impl ChannelCore {
    fn new(recv: SlotRing, send: SlotRing, max_msg_bytes: usize) -> Self {
        let credits = Self::ring_credits(&recv, &send);
        Self {
            state: Mutex::new(ChanState {
                recv,
                send,
                frames: InFlight::default(),
                parked: SeqTable::default(),
                seq: 0,
                shutdown: false,
                evicted: None,
                degraded: None,
                accum: BatchAccum::new(),
                seq_pool: Vec::new(),
                adaptive: None,
            }),
            max_msg_bytes,
            pool: FramePool::new(),
            batch: BatchConfig::default(),
            recovery: None,
            credits,
            resumes: AtomicU64::new(0),
        }
    }

    /// Frames the slot rings can carry at once; unbounded rings fall
    /// back to [`DEFAULT_PUSH_CREDITS`].
    fn ring_credits(recv: &SlotRing, send: &SlotRing) -> usize {
        match (recv.capacity(), send.capacity()) {
            (Some(r), Some(s)) => r.min(s),
            _ => DEFAULT_PUSH_CREDITS,
        }
    }

    /// A channel over real slot arrays: `recv_slots` round-robin receive
    /// slots, `send_slots` first-free send slots, payloads capped at
    /// `max_msg_bytes`.
    pub fn bounded(recv_slots: usize, send_slots: usize, max_msg_bytes: usize) -> Self {
        Self::new(
            SlotRing::round_robin(recv_slots),
            SlotRing::first_free(send_slots),
            max_msg_bytes,
        )
    }

    /// A channel for transports without slot arrays (TCP streams):
    /// reservations never refuse and payloads are unlimited.
    pub fn unbounded() -> Self {
        Self::new(SlotRing::unbounded(), SlotRing::unbounded(), usize::MAX)
    }

    /// Arm a timeout/retry policy on this channel (builder style — used
    /// by fault-tolerant backend constructors). Without this, in-flight
    /// offloads wait forever, exactly as before.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Set the batching watermarks (builder style). The default config
    /// (`max_msgs == 1`) keeps batching off and the wire traffic
    /// byte-identical to the unbatched protocol. `batch.adaptive` arms
    /// the adaptive controller (`chan::adaptive`) with the config as its
    /// ceiling. The credit limit becomes as many *messages* as the slot
    /// rings carry frames times the batch watermark.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        let st = self.state.get_mut().unwrap();
        st.adaptive = (batch.adaptive && batch.enabled())
            .then(|| AdaptiveState::new(AdaptivePolicy::from_batch(&batch)));
        self.credits = Self::ring_credits(&st.recv, &st.send) * batch.max_msgs.max(1);
        self
    }

    /// Whether offload posts go through the staging path. Lock-free —
    /// the disabled check on the default post path costs nothing.
    pub(crate) fn batch_enabled(&self) -> bool {
        self.batch.enabled()
    }

    /// This channel's frame-buffer pool (shared with the runtime's
    /// encode path so message payloads are built in recycled buffers).
    pub fn pool(&self) -> &Arc<FramePool> {
        &self.pool
    }

    /// Largest payload the transport's slots can carry.
    pub fn max_msg_bytes(&self) -> usize {
        self.max_msg_bytes
    }

    /// Override the scheduler's per-target credit limit (builder style;
    /// call it after [`Self::with_batching`], which derives the limit
    /// afresh). Floored at 1.
    pub fn with_credit_limit(mut self, credits: usize) -> Self {
        self.credits = credits.max(1);
        self
    }

    /// The scheduler's admission limit for this channel: how many
    /// in-flight messages ([`Self::in_flight`]) a target pool tolerates
    /// before [`crate::sched::TargetPool::submit`] stops placing work
    /// here.
    pub fn credit_limit(&self) -> usize {
        self.credits
    }

    /// Whether the scheduler may place another message here right now.
    pub(crate) fn has_credit(&self) -> bool {
        self.in_flight() < self.credits
    }

    /// Claim a slot pair and mint a sequence number. Control frames
    /// (`control = true`) may be posted into a shut-down channel — that
    /// is how shutdown itself is delivered. `bytes` is the wire size the
    /// message will occupy (header + payload), fed into
    /// `Self::bytes_in_flight`.
    pub fn try_reserve(
        &self,
        control: bool,
        offload: u64,
        posted_at: SimTime,
        bytes: u64,
    ) -> Reserve {
        let mut st = self.state.lock().unwrap();
        if st.shutdown && !control {
            return Reserve::Shutdown;
        }
        // An evicted target is gone for control frames too — there is
        // nobody left to deliver them to.
        if let Some(err) = &st.evicted {
            return Reserve::Lost(err.clone());
        }
        // A degraded channel holds new work back without failing it:
        // the engine's backoff loop retries `Full` until the transport
        // resumes (posts proceed) or gives up and evicts (posts fail).
        // Control frames slip through — shutdown must stay deliverable.
        if st.degraded.is_some() && !control {
            return Reserve::Full;
        }
        let Some((recv_slot, send_slot)) = st.acquire_slots() else {
            return Reserve::Full;
        };
        let seq = st.seq;
        st.seq += 1;
        let entry = PendingEntry {
            recv_slot,
            send_slot,
            offload,
            posted_at,
            bytes,
        };
        st.frames.insert(seq, FrameRecord::new(entry, Vec::new()));
        Reserve::Reserved(Reservation {
            seq,
            recv_slot,
            send_slot,
            attempt: 0,
        })
    }

    /// Stage one offload message into the batch envelope, minting its
    /// seq. Only meaningful with batching enabled; no slots are claimed
    /// until [`Self::take_flush`].
    pub fn stage(
        &self,
        key: HandlerKey,
        payload: &[u8],
        offload: u64,
        posted_at: SimTime,
    ) -> Stage {
        // The byte budget of one envelope payload (count field + subs)
        // is what fits the transport's slots.
        let cap = self.max_msg_bytes;
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Stage::Shutdown;
        }
        if let Some(err) = &st.evicted {
            return Stage::Lost(err.clone());
        }
        let need = HEADER_BYTES + payload.len();
        if batch::COUNT_BYTES.saturating_add(need) > cap {
            return Stage::TooBig;
        }
        if !st.accum.seqs.is_empty() {
            let staged = st
                .accum
                .frame
                .as_ref()
                .map_or(0, |f| f.len() - HEADER_BYTES);
            if staged.saturating_add(need) > cap {
                return Stage::FlushFirst;
            }
        }
        let seq = st.seq;
        st.seq += 1;
        if st.accum.seqs.is_empty() {
            st.accum.first_offload = offload;
            st.accum.first_posted = posted_at;
        }
        if st.accum.frame.is_none() {
            let mut f = self.pool.checkout();
            // Placeholder for the carrier header + count, patched at
            // flush time.
            f.resize(HEADER_BYTES + batch::COUNT_BYTES, 0);
            st.accum.frame = Some(f);
        }
        let sub = MsgHeader {
            handler_key: key,
            payload_len: payload.len() as u32,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: offload,
            seq,
        };
        // The *effective* watermarks: the adaptive controller's current
        // values when armed, the static config otherwise. Adaptation
        // only ever trips flushes earlier — the fit checks above always
        // use the static cap, so no envelope the static config would
        // reject is ever admitted.
        let (wm_msgs, wm_bytes) = match st.adaptive.as_ref() {
            Some(a) => a.effective(cap),
            None => (self.batch.max_msgs, cap),
        };
        let frame = st.accum.frame.as_mut().expect("staged frame");
        batch::append_sub(frame, &sub, payload);
        let bytes_full = frame.len() - HEADER_BYTES >= wm_bytes;
        st.accum.seqs.push(seq);
        let count_full = st.accum.seqs.len() >= wm_msgs;
        // The SLO age bound: staging into an accumulator whose first
        // member is older than `slo_micros` closes the envelope now.
        let aged = self.slo_ps() > 0
            && posted_at.saturating_sub(st.accum.first_posted) >= SimTime(self.slo_ps());
        Stage::Staged {
            seq,
            flush: count_full || bytes_full || aged,
            slo: aged && !count_full && !bytes_full,
        }
    }

    /// `slo_micros` in picoseconds (0 = unbounded). Lock-free.
    fn slo_ps(&self) -> u64 {
        self.batch.slo_micros.saturating_mul(1_000_000)
    }

    /// Virtual-time SLO check for the engine's flag sweep: `true` when
    /// a staged envelope's first member is older than
    /// `BatchConfig::slo_micros`. The disabled path (the default) is a
    /// lock-free field compare, so sweeping channels without the knob
    /// costs nothing.
    pub fn slo_flush_due(&self, now: SimTime) -> bool {
        if self.slo_ps() == 0 || !self.batch.enabled() {
            return false;
        }
        let st = self.state.lock().unwrap();
        !st.accum.seqs.is_empty()
            && st.degraded.is_none()
            && now.saturating_sub(st.accum.first_posted) >= SimTime(self.slo_ps())
    }

    /// Record an SLO-forced flush with the controller (the engine calls
    /// this when it sends an envelope the age bound closed, whether
    /// [`Self::stage`] or [`Self::slo_flush_due`] noticed).
    pub(crate) fn note_slo_trip(&self) {
        if let Some(a) = self.state.lock().unwrap().adaptive.as_mut() {
            a.note_slo();
        }
    }

    /// Account a successful envelope flush of `msgs` members, sent
    /// `flush_ps` after its first member was staged, with the adaptive
    /// controller and, when its tick window is full, run one controller
    /// tick on this channel's window. Returns a non-`Hold` decision for
    /// the engine to surface as health events; `None` when the
    /// controller is off, the window is still filling, or the tick held.
    pub fn adaptive_tick(&self, msgs: usize, flush_ps: u64) -> Option<AdaptiveDecision> {
        let mut st = self.state.lock().unwrap();
        let a = st.adaptive.as_mut()?;
        if !a.note_flush(msgs, flush_ps) {
            return None;
        }
        let d = a.tick();
        (d.decision != super::adaptive::Decision::Hold).then_some(d)
    }

    /// The controller's current effective message watermark (the static
    /// `max_msgs` when adaptation is off) — observability and tests.
    pub fn effective_watermark(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .adaptive
            .as_ref()
            .map_or(self.batch.max_msgs, |a| a.watermark())
    }

    /// Claim the staged envelope for sending: one slot pair for the
    /// whole batch, the in-flight record keyed by the carrier seq (the
    /// last member's). Works during shutdown — staged messages predate
    /// it and must still drain.
    pub fn take_flush(&self) -> FlushPrep {
        let mut st = self.state.lock().unwrap();
        if st.accum.seqs.is_empty() {
            // Eviction clears the accumulator, so an evicted channel
            // always lands here.
            return FlushPrep::Empty;
        }
        // Degraded: the envelope stays staged until the session resumes
        // (it flushes then) or the channel is evicted (it fails then).
        if st.degraded.is_some() {
            return FlushPrep::Full;
        }
        let Some((recv_slot, send_slot)) = st.acquire_slots() else {
            return FlushPrep::Full;
        };
        let mut frame = st.accum.frame.take().expect("staged frame");
        let recycled = st.seq_pool.pop().unwrap_or_default();
        let seqs = core::mem::replace(&mut st.accum.seqs, recycled);
        let (first_offload, first_posted) = (st.accum.first_offload, st.accum.first_posted);
        let carrier_seq = *seqs.last().expect("non-empty batch");
        let msgs = seqs.len();
        let header = batch::carrier_header(
            carrier_seq,
            frame.len() - HEADER_BYTES,
            send_slot as u16,
            first_offload,
        );
        batch::patch_envelope(&mut frame, &header, msgs as u32);
        let entry = PendingEntry {
            recv_slot,
            send_slot,
            offload: first_offload,
            posted_at: first_posted,
            bytes: frame.len() as u64,
        };
        st.frames.insert(carrier_seq, FrameRecord::new(entry, seqs));
        FlushPrep::Ready(FlushFrame {
            res: Reservation {
                seq: carrier_seq,
                recv_slot,
                send_slot,
                attempt: 0,
            },
            header,
            frame,
            msgs,
            posted_at: first_posted,
        })
    }

    /// Retire in-flight frame `seq` (unless a sweeper has claimed it)
    /// and park `result` for its future. Returns how many offloads that
    /// settled: a carrier counts every member, a frame that already
    /// left counts none.
    fn complete(
        &self,
        st: &mut ChanState,
        seq: u64,
        result: Result<PooledFrame, OffloadError>,
        unsent: bool,
    ) -> usize {
        match st.retire(seq, false) {
            Some(rec) => self.settle(st, seq, rec, result, unsent),
            None => 0,
        }
    }

    /// Park the outcome of a retired frame — fanning a batch carrier's
    /// combined result out to every member seq. Runs under the channel
    /// lock; the happy path copies each part into a pooled buffer and
    /// allocates nothing once pool and tables are warm.
    fn settle(
        &self,
        st: &mut ChanState,
        seq: u64,
        rec: FrameRecord,
        result: Result<PooledFrame, OffloadError>,
        unsent: bool,
    ) -> usize {
        let members = rec.members;
        if members.is_empty() {
            st.park(seq, result, unsent);
            return 1;
        }
        match result {
            Ok(frame) => match crate::target_loop::unframe_result_ref(&frame) {
                Ok(body) => self.park_batch_parts(st, &members, body),
                // The target rejected the whole envelope.
                Err(msg) => st.fail_all(&members, &OffloadError::Backend(msg), false),
            },
            Err(e) => st.fail_all(&members, &e, unsent),
        }
        let msgs = members.len();
        st.recycle_seqs(members);
        msgs
    }

    /// Walk a batch result body against the member list in lockstep
    /// (the target answers in member order) and park each part.
    fn park_batch_parts(&self, st: &mut ChanState, members: &[u64], body: &[u8]) {
        let mut parts = match batch::ResultPartIter::new(body) {
            Ok(it) => it,
            Err(msg) => return st.fail_all(members, &OffloadError::Backend(msg), false),
        };
        let mut next: Option<(u64, &[u8])> = None;
        let mut bad: Option<String> = None;
        for &m in members {
            if bad.is_none() && next.is_none() {
                match parts.next() {
                    Some(Ok(p)) => next = Some(p),
                    Some(Err(e)) => bad = Some(e),
                    None => {}
                }
            }
            match next {
                Some((s, part)) if s == m => {
                    let mut out = self.pool.checkout();
                    out.extend_from_slice(part);
                    st.park(m, Ok(out), false);
                    next = None;
                }
                _ => {
                    let msg = bad
                        .clone()
                        .unwrap_or_else(|| format!("batch result missing part for seq {m}"));
                    st.park(m, Err(OffloadError::Backend(msg)), false);
                }
            }
        }
    }

    /// Undo a flushed batch whose envelope never made it onto the
    /// transport: slots return, every member fails with `err` — marked
    /// unsent, since no member can have executed.
    pub fn fail_batch(&self, carrier: u64, err: OffloadError) {
        self.complete(&mut self.state.lock().unwrap(), carrier, Err(err), true);
    }

    /// Retire a reservation whose frame never made it onto the
    /// transport: slots return to the rings, the seq is abandoned.
    pub fn cancel(&self, seq: u64) {
        self.state.lock().unwrap().retire(seq, false);
    }

    /// Claim an in-flight frame for completion: the caller fetches the
    /// result outside the lock and hands it to [`Self::finish`], which
    /// retires the frame. Returns `None` if another thread already
    /// claimed or retired it (the completion race is resolved here,
    /// under the lock).
    pub fn take_pending(&self, seq: u64) -> Option<PendingEntry> {
        let mut st = self.state.lock().unwrap();
        let rec = st.frames.unclaimed_mut(seq)?;
        rec.claimed = true;
        Some(rec.entry)
    }

    /// Finish a frame claimed with [`Self::take_pending`]: retire it
    /// and park the result for its future (fanned out to members for a
    /// batch carrier).
    pub fn finish(&self, seq: u64, result: Result<PooledFrame, OffloadError>) {
        let mut st = self.state.lock().unwrap();
        if let Some(rec) = st.retire(seq, true) {
            self.settle(&mut st, seq, rec, result, false);
        }
    }

    /// Record a successfully-sent frame (full wire bytes) for possible
    /// recovery re-sends. Control frames are not retryable; without an
    /// armed [`RecoveryPolicy`], or when the result already came back,
    /// the buffer just returns to the pool.
    pub fn note_sent(&self, seq: u64, header: &MsgHeader, frame: PooledFrame) {
        if self.recovery.is_none() || !matches!(header.kind, MsgKind::Offload | MsgKind::Batch) {
            return;
        }
        if let Some(rec) = self.state.lock().unwrap().frames.unclaimed_mut(seq) {
            rec.stored = Some(StoredFrame::new(*header, frame));
        }
    }

    /// Count one fruitless flag sweep against `seq` and apply the armed
    /// deadline policy. [`MissVerdict::Keep`] when no policy is armed or
    /// the frame has no stored wire image (control frames, anything
    /// already timed out).
    pub fn note_miss(&self, seq: u64) -> MissVerdict {
        let Some(policy) = &self.recovery else {
            return MissVerdict::Keep;
        };
        let mut st = self.state.lock().unwrap();
        let Some(rec) = st.frames.unclaimed_mut(seq) else {
            return MissVerdict::Keep;
        };
        let verdict = rec
            .stored
            .as_mut()
            .map_or(MissVerdict::Keep, |s| s.miss(policy));
        if matches!(verdict, MissVerdict::TimedOut) {
            rec.stored = None;
        }
        verdict
    }

    /// Evict the target: fail every in-flight offload (batch members and
    /// staged-but-unflushed messages included) with `err`, free their
    /// slots, refuse all future reservations with `err`. Returns the
    /// number of offloads failed, or `None` if already evicted (the
    /// first caller runs the eviction; later callers see a no-op).
    pub fn evict(&self, err: OffloadError) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        if st.evicted.is_some() {
            return None;
        }
        st.evicted = Some(err.clone());
        st.degraded = None;
        let seqs: Vec<u64> = st.frames.unclaimed().map(|(s, _)| s).collect();
        let mut failed = 0;
        for seq in seqs {
            failed += self.complete(&mut st, seq, Err(err.clone()), false);
        }
        // Staged messages never reached the wire; fail them too —
        // marked unsent so a scheduler may resubmit them elsewhere.
        let staged = core::mem::take(&mut st.accum.seqs);
        st.fail_all(&staged, &err, true);
        failed += staged.len();
        st.recycle_seqs(staged);
        st.accum.frame = None;
        Some(failed)
    }

    /// Why the target was evicted, if it was.
    pub fn eviction(&self) -> Option<OffloadError> {
        self.state.lock().unwrap().evicted.clone()
    }

    /// Mark the transport disconnected *without* failing anything:
    /// in-flight offloads stay pending (their wire images remain
    /// stored), new posts park on [`Reserve::Full`] until the session
    /// settles, and staged messages keep accumulating. The session
    /// settles through [`Self::resume`] (reconnected) or [`Self::evict`]
    /// (reconnect budget exhausted). Returns the number of in-flight
    /// messages at the moment of degradation; `None` if already degraded
    /// or evicted (the first caller owns the transition).
    pub fn degrade(&self, err: OffloadError) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        if st.evicted.is_some() || st.degraded.is_some() {
            return None;
        }
        st.degraded = Some(err);
        Some(st.in_flight())
    }

    /// Why the channel is degraded, if it is.
    pub(crate) fn degradation(&self) -> Option<OffloadError> {
        self.state.lock().unwrap().degraded.clone()
    }

    /// True while the channel is disconnected-but-resumable.
    pub fn is_degraded(&self) -> bool {
        self.state.lock().unwrap().degraded.is_some()
    }

    /// Settle a degraded session against the device-side dedup
    /// `watermark` announced on reconnect (`None` = the target executed
    /// nothing yet). Exactly-once split, sound because the device
    /// watermark is the *max* executed seq and only ever advances:
    ///
    /// * `seq > watermark` with a stored wire image — provably never
    ///   executed: stays in flight and is returned for replay;
    /// * anything else — possibly executed (or not replayable): retired
    ///   with `err`, batch members fanned out.
    ///
    /// Returns `None` if the channel was not degraded (racing eviction
    /// or a double resume). The staged accumulator is untouched — it
    /// never reached the wire and flushes normally after resume.
    pub fn resume(&self, watermark: Option<u64>, err: OffloadError) -> Option<ResumeReport> {
        let mut st = self.state.lock().unwrap();
        st.degraded.take()?;
        let mut replay = Vec::new();
        let mut doomed = Vec::new();
        for (seq, rec) in st.frames.unclaimed() {
            let provably_unexecuted = watermark.is_none_or(|w| seq > w);
            match rec.stored.as_mut().filter(|_| provably_unexecuted) {
                Some(stored) => {
                    let (_, frame, attempt) = stored.resend();
                    replay.push(ReplayFrame {
                        seq,
                        frame,
                        attempt,
                    });
                }
                None => doomed.push(seq),
            }
        }
        let mut lost = 0;
        for seq in doomed {
            lost += self.complete(&mut st, seq, Err(err.clone()), false);
        }
        self.resumes.fetch_add(1, Ordering::Release);
        Some(ResumeReport { replay, lost })
    }

    /// How many times this channel's session has been resumed after a
    /// degradation. Lock-free; monotonic. A change since the last read
    /// is a "healed" notification — the pool prober uses it to clear a
    /// target's liveness penalty without a probe round trip, and
    /// `TargetPool::pick` uses it to restart its
    /// all-degraded wait budget (a resume is progress).
    pub(crate) fn resumes(&self) -> u64 {
        self.resumes.load(Ordering::Acquire)
    }

    /// The reconnect/retry budget of the armed [`RecoveryPolicy`]
    /// (`max_retries`), or `None` when no recovery is armed. Schedulers
    /// use it to bound how long a degraded target is worth waiting for.
    pub(crate) fn recovery_budget(&self) -> Option<u32> {
        self.recovery.map(|p| p.max_retries)
    }

    /// Every in-flight frame no sweeper has claimed, ordered by seq so
    /// flag sweeps visit slots deterministically, into a caller-provided
    /// scratch vector (cleared first, capacity reused): the engine's
    /// sweep runs every blocking-wait round and must not allocate per
    /// round.
    pub fn pending_into(&self, out: &mut Vec<(u64, PendingEntry)>) {
        out.clear();
        out.extend(
            self.state
                .lock()
                .unwrap()
                .frames
                .unclaimed()
                .map(|(s, r)| (s, r.entry)),
        );
    }

    /// Claim (and clear) the unsent marker of a parked failure. `true`
    /// means the offload's frame never reached the transport — the
    /// target cannot have executed it, so a scheduler may safely
    /// resubmit it to a survivor. One-shot; a caller that claims the
    /// completion first gets the marker with it instead (what
    /// [`crate::Future`] does).
    pub fn take_unsent(&self, seq: u64) -> bool {
        self.state
            .lock()
            .unwrap()
            .parked
            .get_mut(seq)
            .is_some_and(|p| core::mem::take(&mut p.unsent))
    }

    /// Number of staged-but-unflushed messages in the batch accumulator.
    pub fn staged_len(&self) -> usize {
        self.state.lock().unwrap().accum.seqs.len()
    }

    /// Reclaim the last `n` staged members from the batch accumulator.
    /// They are provably unsent — no slot was claimed and no frame
    /// reached the transport — so a scheduler may migrate them to
    /// another target. Each reclaimed seq is marked unsent and failed
    /// with [`OffloadError::Migrated`]; the earlier members stay staged
    /// in a correctly re-enveloped frame. Returns how many were taken.
    pub(crate) fn take_staged_tail(&self, n: usize) -> usize {
        let mut st = self.state.lock().unwrap();
        if n == 0 || st.accum.seqs.is_empty() {
            return 0;
        }
        let keep = st.accum.seqs.len().saturating_sub(n);
        let tail = st.accum.seqs.split_off(keep);
        if keep == 0 {
            st.accum.frame = None;
        } else if let Some(frame) = st.accum.frame.as_mut() {
            // The accumulator only ever holds envelopes this channel
            // built, so re-walking the kept prefix cannot fail.
            batch::truncate_members(frame, keep).expect("staged envelope is well-formed");
        }
        st.fail_all(&tail, &OffloadError::Migrated, true);
        let taken = tail.len();
        st.recycle_seqs(tail);
        taken
    }

    /// Number of in-flight *messages*: frames on the wire count their
    /// batch members, plus whatever is staged awaiting flush. A counter
    /// read — the scheduler asks on every placement.
    pub fn in_flight(&self) -> usize {
        self.state.lock().unwrap().in_flight()
    }

    /// Wire bytes currently committed to this target: every in-flight
    /// frame plus the staged (unflushed) accumulator. The pool's
    /// rebalance cost adds this to its load term so a target holding a
    /// few dense batches does not look idler than one holding many
    /// small probes.
    pub(crate) fn bytes_in_flight(&self) -> u64 {
        let st = self.state.lock().unwrap();
        st.frames.bytes() + st.accum.frame.as_ref().map_or(0, |f| f.len() as u64)
    }

    /// How many seqs the channel still holds state for: frames in
    /// flight plus parked completions. Zero once every offload was
    /// claimed or cancelled — the leak check of the lifecycle tests.
    #[doc(hidden)]
    pub fn tracked_seqs(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.frames.len() + st.parked.len()
    }

    /// Push-transport completion path: a receiver thread deposits a
    /// finished result frame. Unknown sequence numbers are dropped
    /// (late frames racing a shutdown).
    pub fn deposit_frame(&self, seq: u64, frame: PooledFrame) {
        self.complete(&mut self.state.lock().unwrap(), seq, Ok(frame), false);
    }

    /// Claim a parked completion together with its unsent marker.
    pub(crate) fn claim(&self, seq: u64) -> Option<(Result<PooledFrame, OffloadError>, bool)> {
        let p = self.state.lock().unwrap().parked.remove(seq)?;
        Some((p.result, p.unsent))
    }

    /// Claim a parked completion.
    pub fn take_completed(&self, seq: u64) -> Option<Result<PooledFrame, OffloadError>> {
        self.claim(seq).map(|(result, _)| result)
    }

    /// Mark the channel shut down; returns the *previous* state so the
    /// first caller (and only the first) runs the shutdown protocol.
    pub fn begin_shutdown(&self) -> bool {
        core::mem::replace(&mut self.state.lock().unwrap().shutdown, true)
    }

    /// True once [`Self::begin_shutdown`] has run.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target_loop::frame_result;
    use proptest::prelude::*;

    fn reserve(c: &ChannelCore) -> Reserve {
        c.try_reserve(false, 0, SimTime::ZERO, 0)
    }

    #[test]
    fn reserve_post_complete_take() {
        let c = ChannelCore::bounded(2, 2, 4096);
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        assert_eq!((r.seq, r.recv_slot, r.send_slot), (0, 0, 0));
        assert!(c.take_pending(r.seq).is_some());
        assert!(c.take_pending(r.seq).is_none(), "one sweeper owns it");
        c.finish(r.seq, Ok(c.pool().adopt(b"done".to_vec())));
        assert_eq!(
            c.take_completed(r.seq).unwrap().unwrap().as_slice(),
            b"done"
        );
        assert!(c.take_completed(r.seq).is_none(), "claims are one-shot");
    }

    #[test]
    fn full_rings_refuse_until_freed() {
        let c = ChannelCore::bounded(1, 1, 4096);
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        assert!(matches!(reserve(&c), Reserve::Full));
        c.deposit_frame(r.seq, PooledFrame::detached(vec![]));
        assert!(matches!(reserve(&c), Reserve::Reserved(_)));
    }

    #[test]
    fn cancel_frees_slots_and_retires_seq() {
        let c = ChannelCore::bounded(1, 1, 4096);
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        c.cancel(r.seq);
        let Reserve::Reserved(r2) = reserve(&c) else {
            panic!("slots not freed");
        };
        assert_eq!(r2.seq, 1, "sequence numbers are never reused");
        assert!(c.take_completed(r.seq).is_none());
    }

    #[test]
    fn shutdown_blocks_posts_but_not_control() {
        let c = ChannelCore::bounded(2, 2, 4096);
        assert!(!c.begin_shutdown());
        assert!(c.begin_shutdown(), "second caller sees it already down");
        assert!(matches!(reserve(&c), Reserve::Shutdown));
        assert!(matches!(
            c.try_reserve(true, 0, SimTime::ZERO, 0),
            Reserve::Reserved(_)
        ));
    }

    #[test]
    fn deposit_for_unknown_seq_is_dropped() {
        let c = ChannelCore::unbounded();
        c.deposit_frame(7, PooledFrame::detached(b"late".to_vec()));
        assert!(c.take_completed(7).is_none());
    }

    #[test]
    fn evict_fails_pending_frees_slots_and_latches() {
        use crate::types::NodeId;
        let c = ChannelCore::bounded(2, 2, 4096);
        let Reserve::Reserved(r1) = reserve(&c) else {
            panic!("reserve failed");
        };
        let Reserve::Reserved(r2) = reserve(&c) else {
            panic!("reserve failed");
        };
        let lost = OffloadError::TargetLost(NodeId(1));
        assert_eq!(c.evict(lost.clone()), Some(2));
        assert_eq!(c.evict(lost.clone()), None, "second eviction is a no-op");
        assert_eq!(c.in_flight(), 0, "no leaked pending entries");
        for seq in [r1.seq, r2.seq] {
            assert_eq!(c.take_completed(seq).unwrap().unwrap_err(), lost);
        }
        // Later reservations refuse with the eviction error — even
        // control frames: the target is gone.
        assert!(matches!(
            reserve(&c),
            Reserve::Lost(OffloadError::TargetLost(_))
        ));
        assert!(matches!(
            c.try_reserve(true, 0, SimTime::ZERO, 0),
            Reserve::Lost(_)
        ));
        assert_eq!(c.eviction(), Some(lost));
        // Late deposits for retired seqs are dropped.
        c.deposit_frame(r1.seq, PooledFrame::detached(b"late".to_vec()));
        assert!(c.take_completed(r1.seq).is_none());
    }

    #[test]
    fn staged_tail_migrates_out_of_the_accumulator() {
        let c = ChannelCore::unbounded().with_batching(BatchConfig::up_to(8));
        let mut seqs = Vec::new();
        for i in 0..5 {
            let Stage::Staged { seq, flush, .. } = c.stage(HandlerKey(7), b"pay", i, SimTime::ZERO)
            else {
                panic!("stage refused");
            };
            assert!(!flush);
            seqs.push(seq);
        }
        assert_eq!(c.staged_len(), 5);
        assert_eq!(c.take_staged_tail(2), 2);
        assert_eq!(c.staged_len(), 3);
        for &m in &seqs[3..] {
            assert!(c.take_unsent(m), "migrated members are provably unsent");
            assert!(matches!(
                c.take_completed(m),
                Some(Err(OffloadError::Migrated))
            ));
        }
        // The kept prefix still flushes as a correctly re-enveloped
        // batch: the carrier covers exactly the remaining members.
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        assert_eq!(f.msgs, 3);
        assert_eq!(f.res.seq, seqs[2], "carrier seq is the last kept member");
        let mut members = Vec::new();
        let err = batch::member_ranges(&f.frame[HEADER_BYTES..], &mut members).unwrap();
        assert!(err.is_none(), "re-enveloped frame parses cleanly");
        let got: Vec<u64> = members.iter().map(|(h, _)| h.seq).collect();
        assert_eq!(got, seqs[..3]);
    }

    #[test]
    fn taking_the_whole_staged_tail_clears_the_accumulator() {
        let c = ChannelCore::unbounded().with_batching(BatchConfig::up_to(8));
        for i in 0..3 {
            let Stage::Staged { .. } = c.stage(HandlerKey(7), b"x", i, SimTime::ZERO) else {
                panic!("stage refused");
            };
        }
        assert_eq!(c.take_staged_tail(99), 3, "capped at what is staged");
        assert_eq!(c.staged_len(), 0);
        assert_eq!(c.in_flight(), 0, "no leaked accumulator entries");
        assert!(matches!(c.take_flush(), FlushPrep::Empty));
        assert_eq!(c.take_staged_tail(1), 0, "nothing left to reclaim");
    }

    #[test]
    fn note_miss_is_inert_without_recovery() {
        let c = ChannelCore::bounded(1, 1, 4096);
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        for _ in 0..10_000 {
            assert!(matches!(c.note_miss(r.seq), super::MissVerdict::Keep));
        }
        assert_eq!(c.in_flight(), 1, "never times out without a policy");
    }

    #[test]
    fn recovery_retries_then_times_out_and_completion_cancels() {
        use ham::registry::HandlerKey;
        use ham::wire::{MsgHeader, MsgKind};
        let c = ChannelCore::bounded(2, 2, 4096).with_recovery(RecoveryPolicy {
            retry_after_misses: 2,
            max_retries: 1,
        });
        let header = |seq| MsgHeader {
            handler_key: HandlerKey(1),
            payload_len: 1,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: 0,
            seq,
        };
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        c.note_sent(r.seq, &header(r.seq), PooledFrame::detached(b"a".to_vec()));
        assert!(matches!(c.note_miss(r.seq), MissVerdict::Keep));
        assert!(matches!(
            c.note_miss(r.seq),
            MissVerdict::Retry { attempt: 1, .. }
        ));
        for _ in 0..3 {
            assert!(matches!(c.note_miss(r.seq), MissVerdict::Keep));
        }
        assert!(matches!(c.note_miss(r.seq), MissVerdict::TimedOut));
        // The wire image is gone; further misses are inert.
        assert!(matches!(c.note_miss(r.seq), MissVerdict::Keep));
        // A frame whose result arrives is forgotten before any deadline.
        let Reserve::Reserved(r2) = reserve(&c) else {
            panic!("reserve failed");
        };
        c.note_sent(
            r2.seq,
            &header(r2.seq),
            PooledFrame::detached(b"b".to_vec()),
        );
        c.deposit_frame(r2.seq, PooledFrame::detached(vec![0]));
        for _ in 0..10 {
            assert!(matches!(c.note_miss(r2.seq), MissVerdict::Keep));
        }
        // Control frames are never stored.
        let ctrl = MsgHeader {
            kind: MsgKind::Control,
            ..header(99)
        };
        c.note_sent(99, &ctrl, PooledFrame::detached(vec![]));
        for _ in 0..10 {
            assert!(matches!(c.note_miss(99), MissVerdict::Keep));
        }
    }

    // --- degrade / resume -------------------------------------------------

    fn offload_header(seq: u64) -> MsgHeader {
        MsgHeader {
            handler_key: HandlerKey(1),
            payload_len: 1,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: 0,
            seq,
        }
    }

    fn degradable() -> ChannelCore {
        ChannelCore::unbounded().with_recovery(RecoveryPolicy::replay_only(3))
    }

    #[test]
    fn degrade_parks_posts_and_keeps_pending_alive() {
        use crate::types::NodeId;
        let c = degradable();
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        c.note_sent(
            r.seq,
            &offload_header(r.seq),
            PooledFrame::detached(b"wire".to_vec()),
        );
        let lost = OffloadError::TargetLost(NodeId(3));
        assert_eq!(c.degrade(lost.clone()), Some(1));
        assert_eq!(c.degrade(lost.clone()), None, "first caller owns it");
        assert!(c.is_degraded());
        assert_eq!(c.degradation(), Some(lost));
        assert!(c.eviction().is_none(), "degraded is not evicted");
        // New posts park; control frames still pass (shutdown delivery).
        assert!(matches!(reserve(&c), Reserve::Full));
        assert!(matches!(
            c.try_reserve(true, 0, SimTime::ZERO, 0),
            Reserve::Reserved(_)
        ));
        // The in-flight offload was not failed.
        assert_eq!(c.in_flight(), 2, "pending survives degradation");
        assert!(c.take_completed(r.seq).is_none());
    }

    #[test]
    fn resume_replays_above_watermark_and_fails_at_or_below() {
        use crate::types::NodeId;
        let c = degradable();
        let mut seqs = Vec::new();
        for i in 0..4u64 {
            let Reserve::Reserved(r) = reserve(&c) else {
                panic!("reserve failed");
            };
            c.note_sent(
                r.seq,
                &offload_header(r.seq),
                PooledFrame::detached(vec![i as u8]),
            );
            seqs.push(r.seq);
        }
        let lost = OffloadError::TargetLost(NodeId(3));
        assert!(c.degrade(lost.clone()).is_some());
        // Device executed seqs 0 and 1 (watermark 1): they are
        // possibly-executed → TargetLost; 2 and 3 replay.
        let rep = c.resume(Some(1), lost.clone()).unwrap();
        assert_eq!(rep.lost, 2);
        assert_eq!(
            rep.replay.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![2, 3],
            "replay set is exactly the provably-unexecuted seqs, in order"
        );
        assert_eq!(rep.replay[0].frame, vec![2u8]);
        assert_eq!(rep.replay[0].attempt, 1);
        assert!(!c.is_degraded());
        for &s in &seqs[..2] {
            assert_eq!(c.take_completed(s).unwrap().unwrap_err(), lost.clone());
        }
        // Replayed offloads stay pending and complete via deposit.
        assert_eq!(c.in_flight(), 2);
        c.deposit_frame(2, PooledFrame::detached(b"ok".to_vec()));
        assert_eq!(c.take_completed(2).unwrap().unwrap().as_slice(), b"ok");
        // Posts flow again after resume.
        assert!(matches!(reserve(&c), Reserve::Reserved(_)));
        // Double resume is a no-op.
        assert!(c.resume(None, lost).is_none());
    }

    #[test]
    fn double_disconnect_replays_again_with_bumped_attempt() {
        use crate::types::NodeId;
        let c = degradable();
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        c.note_sent(
            r.seq,
            &offload_header(r.seq),
            PooledFrame::detached(b"w".to_vec()),
        );
        let lost = OffloadError::TargetLost(NodeId(3));
        assert!(c.degrade(lost.clone()).is_some());
        let rep = c.resume(None, lost.clone()).unwrap();
        assert_eq!((rep.replay.len(), rep.replay[0].attempt), (1, 1));
        // The link drops again before the replay's result arrives: the
        // frame is still above the watermark, so it replays again.
        assert!(c.degrade(lost.clone()).is_some());
        let rep = c.resume(None, lost.clone()).unwrap();
        assert_eq!((rep.replay.len(), rep.replay[0].attempt), (1, 2));
        // But if the watermark has swallowed it, it is lost instead.
        assert!(c.degrade(lost.clone()).is_some());
        let rep = c.resume(Some(r.seq), lost.clone()).unwrap();
        assert_eq!((rep.replay.len(), rep.lost), (0, 1));
        assert_eq!(c.take_completed(r.seq).unwrap().unwrap_err(), lost);
        assert_eq!(c.in_flight(), 0, "no leaked pending entries");
    }

    #[test]
    fn resume_without_replay_buffer_fails_everything_in_flight() {
        use crate::types::NodeId;
        // No recovery armed: nothing stored, so nothing is replayable.
        let c = ChannelCore::unbounded();
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        let lost = OffloadError::TargetLost(NodeId(3));
        assert!(c.degrade(lost.clone()).is_some());
        let rep = c.resume(None, lost.clone()).unwrap();
        assert_eq!((rep.replay.len(), rep.lost), (0, 1));
        assert_eq!(c.take_completed(r.seq).unwrap().unwrap_err(), lost);
    }

    #[test]
    fn evict_wins_over_degrade_and_clears_it() {
        use crate::types::NodeId;
        let c = degradable();
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        let lost = OffloadError::TargetLost(NodeId(3));
        assert!(c.degrade(lost.clone()).is_some());
        // Reconnect budget exhausted: the channel is evicted for good.
        assert_eq!(c.evict(lost.clone()), Some(1));
        assert!(!c.is_degraded(), "eviction clears the degraded latch");
        assert!(c.resume(None, lost.clone()).is_none(), "too late to resume");
        assert_eq!(c.take_completed(r.seq).unwrap().unwrap_err(), lost.clone());
        assert!(c.degrade(lost).is_none(), "evicted channels cannot degrade");
    }

    #[test]
    fn degraded_channel_keeps_staging_and_flushes_after_resume() {
        use crate::types::NodeId;
        let c = ChannelCore::unbounded()
            .with_batching(BatchConfig::up_to(8))
            .with_recovery(RecoveryPolicy::replay_only(3));
        let lost = OffloadError::TargetLost(NodeId(3));
        assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        assert!(c.degrade(lost.clone()).is_some());
        // Staging keeps working while degraded (no slots claimed)...
        assert!(matches!(stage_one(&c, b"b"), Stage::Staged { .. }));
        // ...but the envelope cannot flush until the session settles.
        assert!(matches!(c.take_flush(), FlushPrep::Full));
        let rep = c.resume(None, lost).unwrap();
        assert_eq!((rep.replay.len(), rep.lost), (0, 0));
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused after resume");
        };
        assert_eq!(f.msgs, 2, "staged members survived the disconnect");
    }

    // --- batching ---------------------------------------------------------

    fn batched(recv: usize, send: usize, max_msgs: usize) -> ChannelCore {
        ChannelCore::bounded(recv, send, 4096).with_batching(BatchConfig::up_to(max_msgs))
    }

    fn stage_one(c: &ChannelCore, payload: &[u8]) -> Stage {
        c.stage(HandlerKey(9), payload, 0, SimTime::ZERO)
    }

    /// Deposit a well-formed batch result for `carrier`: each member's
    /// framed result is its own seq, little-endian.
    fn answer_batch(c: &ChannelCore, carrier: u64, members: &[u64]) {
        let mut body = Vec::new();
        batch::begin_result(&mut body, members.len() as u32);
        for &m in members {
            batch::append_result_part(&mut body, m, &frame_result(Ok(m.to_le_bytes().to_vec())));
        }
        c.deposit_frame(carrier, PooledFrame::detached(frame_result(Ok(body))));
    }

    #[test]
    fn stage_flush_settle_fans_out_to_members() {
        let c = batched(2, 2, 4);
        for i in 0..3u64 {
            let Stage::Staged { seq, flush, .. } = stage_one(&c, b"xy") else {
                panic!("stage refused");
            };
            assert_eq!(seq, i);
            assert!(!flush, "below the watermark");
        }
        assert_eq!(c.in_flight(), 3, "staged messages count as in flight");
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        assert_eq!((f.res.seq, f.msgs), (2, 3), "carrier is the last member");
        assert_eq!(f.header.kind, MsgKind::Batch);
        assert!(matches!(c.take_flush(), FlushPrep::Empty), "accum drained");
        // One slot pair for three messages.
        let mut on_wire = Vec::new();
        c.pending_into(&mut on_wire);
        assert_eq!(on_wire.len(), 1);
        assert_eq!(c.in_flight(), 3);
        answer_batch(&c, f.res.seq, &[0, 1, 2]);
        for m in 0..3u64 {
            let got = c.take_completed(m).unwrap().unwrap();
            assert_eq!(
                crate::target_loop::unframe_result_ref(&got).unwrap(),
                m.to_le_bytes()
            );
        }
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn count_watermark_requests_flush() {
        let c = batched(2, 2, 2);
        assert!(matches!(
            stage_one(&c, b"a"),
            Stage::Staged { flush: false, .. }
        ));
        assert!(matches!(
            stage_one(&c, b"a"),
            Stage::Staged { flush: true, .. }
        ));
    }

    #[test]
    fn byte_watermark_forces_flush_first_and_toobig_falls_through() {
        let c = ChannelCore::bounded(2, 2, 256).with_batching(BatchConfig::up_to(16));
        // 100-byte payloads: two fit a 256-byte envelope (4 + 2·132),
        // a third does not.
        let p = [7u8; 100];
        assert!(matches!(stage_one(&c, &p), Stage::Staged { .. }));
        assert!(matches!(stage_one(&c, &p), Stage::FlushFirst));
        // A payload that alone overflows the envelope is not stageable.
        assert!(matches!(stage_one(&c, &[1u8; 300]), Stage::TooBig));
    }

    #[test]
    fn flush_refuses_when_rings_are_full_without_losing_the_batch() {
        let c = batched(1, 1, 8);
        let Reserve::Reserved(_r) = reserve(&c) else {
            panic!("reserve failed");
        };
        assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        assert!(matches!(c.take_flush(), FlushPrep::Full));
        assert_eq!(c.in_flight(), 2, "batch still staged after refusal");
    }

    #[test]
    fn fail_batch_errors_every_member_and_frees_slots() {
        let c = batched(1, 1, 4);
        for _ in 0..2 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        c.fail_batch(f.res.seq, OffloadError::Shutdown);
        for m in [0u64, 1] {
            assert!(matches!(
                c.take_completed(m),
                Some(Err(OffloadError::Shutdown))
            ));
        }
        assert!(matches!(reserve(&c), Reserve::Reserved(_)), "slots freed");
    }

    #[test]
    fn evict_fails_staged_and_batched_members() {
        use crate::types::NodeId;
        let c = batched(2, 2, 2);
        // One flushed batch of two...
        for _ in 0..2 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(_f) = c.take_flush() else {
            panic!("flush refused");
        };
        // ...plus one staged message.
        assert!(matches!(stage_one(&c, b"b"), Stage::Staged { .. }));
        let lost = OffloadError::TargetLost(NodeId(1));
        assert_eq!(c.evict(lost.clone()), Some(3), "members + staged");
        for m in 0..3u64 {
            assert_eq!(c.take_completed(m).unwrap().unwrap_err(), lost.clone());
        }
        assert_eq!(c.in_flight(), 0);
        assert!(matches!(stage_one(&c, b"c"), Stage::Lost(_)));
    }

    #[test]
    fn malformed_batch_result_errors_every_member() {
        let c = batched(2, 2, 4);
        for _ in 0..2 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        // An error frame instead of a batch body: the target rejected
        // the envelope wholesale.
        c.deposit_frame(
            f.res.seq,
            PooledFrame::detached(frame_result(Err(ham::HamError::Wire("bad".into())))),
        );
        for m in [0u64, 1] {
            assert!(matches!(
                c.take_completed(m),
                Some(Err(OffloadError::Backend(_)))
            ));
        }
    }

    #[test]
    fn missing_result_parts_error_their_members_only() {
        let c = batched(2, 2, 4);
        for _ in 0..3 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        // Parts for members 0 and 2 only.
        let mut body = Vec::new();
        batch::begin_result(&mut body, 2);
        batch::append_result_part(&mut body, 0, &frame_result(Ok(vec![0])));
        batch::append_result_part(&mut body, 2, &frame_result(Ok(vec![2])));
        c.deposit_frame(f.res.seq, PooledFrame::detached(frame_result(Ok(body))));
        assert!(c.take_completed(0).unwrap().is_ok());
        assert!(matches!(
            c.take_completed(1),
            Some(Err(OffloadError::Backend(_)))
        ));
        assert!(c.take_completed(2).unwrap().is_ok());
    }

    // --- credits ----------------------------------------------------------

    #[test]
    fn credit_limit_derives_from_rings_and_batching() {
        // Bounded: min(recv, send) frames, one message each.
        assert_eq!(ChannelCore::bounded(8, 8, 4096).credit_limit(), 8);
        assert_eq!(ChannelCore::bounded(4, 8, 4096).credit_limit(), 4);
        // Batching multiplies: each frame can carry max_msgs messages.
        assert_eq!(batched(8, 8, 8).credit_limit(), 64);
        // Unbounded rings fall back to the push-transport default.
        assert_eq!(
            ChannelCore::unbounded().credit_limit(),
            DEFAULT_PUSH_CREDITS
        );
        // Explicit override wins, floored at 1.
        assert_eq!(
            ChannelCore::unbounded().with_credit_limit(3).credit_limit(),
            3
        );
        assert_eq!(
            ChannelCore::bounded(8, 8, 4096)
                .with_credit_limit(0)
                .credit_limit(),
            1
        );
    }

    #[test]
    fn has_credit_tracks_in_flight() {
        let c = ChannelCore::bounded(1, 1, 4096);
        assert!(c.has_credit());
        let Reserve::Reserved(r) = reserve(&c) else {
            panic!("reserve failed");
        };
        assert!(!c.has_credit(), "one slot, one in flight");
        c.deposit_frame(r.seq, PooledFrame::detached(vec![]));
        assert!(c.has_credit(), "completion returns the credit");
    }

    #[test]
    fn evicted_staged_members_are_unsent_but_wire_members_are_not() {
        use crate::types::NodeId;
        let c = batched(2, 2, 2);
        // Seqs 0-1 flush onto the wire; seq 2 stays staged.
        for _ in 0..2 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(_f) = c.take_flush() else {
            panic!("flush refused");
        };
        assert!(matches!(stage_one(&c, b"b"), Stage::Staged { .. }));
        c.evict(OffloadError::TargetLost(NodeId(1)));
        assert!(!c.take_unsent(0), "reached the wire: may have executed");
        assert!(!c.take_unsent(1), "reached the wire: may have executed");
        assert!(c.take_unsent(2), "staged only: safe to resubmit");
        assert!(!c.take_unsent(2), "unsent markers are one-shot");
    }

    #[test]
    fn failed_batch_members_are_unsent() {
        let c = batched(1, 1, 4);
        for _ in 0..2 {
            assert!(matches!(stage_one(&c, b"a"), Stage::Staged { .. }));
        }
        let FlushPrep::Ready(f) = c.take_flush() else {
            panic!("flush refused");
        };
        c.fail_batch(f.res.seq, OffloadError::Backend("send failed".into()));
        assert!(c.take_unsent(0) && c.take_unsent(1));
    }

    /// One step of the model interleaving, decoded from a `(kind, i)`
    /// pair (the vendored proptest has no `prop_oneof`).
    #[derive(Clone, Debug)]
    enum Op {
        Reserve,
        /// Deposit the i-th oldest in-flight offload's result.
        Deposit(usize),
        /// Claim the completion of the i-th tracked seq.
        Take(usize),
    }

    fn decode_op((kind, i): (u8, usize)) -> Op {
        match kind {
            0 => Op::Reserve,
            1 => Op::Deposit(i),
            _ => Op::Take(i),
        }
    }

    proptest! {
        /// Random post/complete/claim interleavings never lose,
        /// duplicate, or corrupt a completion, and recv slots are
        /// assigned in strict rotation order.
        #[test]
        fn interleavings_preserve_every_completion(
            recv_slots in 1usize..4,
            send_slots in 1usize..4,
            ops in proptest::collection::vec((0u8..3, 0usize..16), 0..96),
        ) {
            let c = ChannelCore::bounded(recv_slots, send_slots, 4096);
            let mut in_flight: Vec<(u64, usize)> = Vec::new(); // (seq, recv_slot)
            let mut deposited: Vec<u64> = Vec::new();
            let mut claimed: Vec<u64> = Vec::new();
            let mut next_recv = 0usize;
            for op in ops.into_iter().map(decode_op) {
                match op {
                    Op::Reserve => match reserve(&c) {
                        Reserve::Reserved(r) => {
                            prop_assert_eq!(
                                r.recv_slot, next_recv,
                                "recv rotation broken"
                            );
                            next_recv = (next_recv + 1) % recv_slots;
                            in_flight.push((r.seq, r.recv_slot));
                        }
                        Reserve::Full => {
                            prop_assert!(
                                in_flight.len() >= recv_slots.min(send_slots)
                                    || !in_flight.is_empty(),
                                "refused while empty"
                            );
                        }
                        Reserve::Shutdown => prop_assert!(false, "never shut down"),
                        Reserve::Lost(_) => prop_assert!(false, "never evicted"),
                    },
                    Op::Deposit(i) => {
                        if let Some(&(seq, _)) = in_flight.get(i) {
                            c.deposit_frame(seq, PooledFrame::detached(seq.to_le_bytes().to_vec()));
                            in_flight.remove(i);
                            deposited.push(seq);
                        }
                    }
                    Op::Take(i) => {
                        if let Some(&seq) = deposited.get(i) {
                            let got = c.take_completed(seq);
                            prop_assert!(got.is_some(), "completion lost: seq {}", seq);
                            prop_assert_eq!(
                                got.unwrap().unwrap().as_slice(),
                                &seq.to_le_bytes()[..],
                                "completion corrupted"
                            );
                            deposited.remove(i);
                            claimed.push(seq);
                        }
                    }
                }
            }
            // Drain the tail: everything deposited is still claimable
            // exactly once, nothing claimed twice.
            for seq in deposited {
                prop_assert!(c.take_completed(seq).is_some(), "tail completion lost");
                claimed.push(seq);
            }
            for seq in &claimed {
                prop_assert!(c.take_completed(*seq).is_none(), "duplicate completion");
            }
            prop_assert_eq!(c.in_flight(), in_flight.len());
        }
    }

    /// One step of the batching model, decoded from a `(kind, i)` pair.
    #[derive(Clone, Debug)]
    enum BatchOp {
        /// Stage one message (flushing first / ignoring refusals as the
        /// engine would).
        Post,
        /// Flush the staged envelope if slots allow.
        Flush,
        /// Answer the i-th oldest in-flight batch.
        Answer(usize),
        /// Claim the completion of the i-th completed member.
        Take(usize),
    }

    fn decode_batch_op((kind, i): (u8, usize)) -> BatchOp {
        match kind {
            0 => BatchOp::Post,
            1 => BatchOp::Flush,
            2 => BatchOp::Answer(i),
            _ => BatchOp::Take(i),
        }
    }

    proptest! {
        /// Interleaved stage/flush/answer/claim schedules deliver every
        /// member's own result exactly once, whatever the batch
        /// boundaries — the oracle for the engine's post/flush/drain
        /// paths.
        #[test]
        fn batch_interleavings_deliver_every_member_exactly_once(
            recv_slots in 1usize..4,
            max_msgs in 2usize..6,
            ops in proptest::collection::vec((0u8..4, 0usize..16), 0..96),
        ) {
            let c = batched(recv_slots, recv_slots, max_msgs);
            let mut staged: Vec<u64> = Vec::new();
            // Flushed batches awaiting an answer: (carrier, members).
            let mut inflight: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut answered: Vec<u64> = Vec::new();
            let mut claimed: Vec<u64> = Vec::new();
            let flush = |c: &ChannelCore,
                         staged: &mut Vec<u64>,
                         inflight: &mut Vec<(u64, Vec<u64>)>| {
                match c.take_flush() {
                    FlushPrep::Empty => prop_assert!(staged.is_empty(), "lost staging"),
                    FlushPrep::Full => prop_assert!(!inflight.is_empty(), "full while idle"),
                    FlushPrep::Ready(f) => {
                        prop_assert_eq!(f.msgs, staged.len(), "member count");
                        prop_assert_eq!(f.res.seq, *staged.last().unwrap());
                        inflight.push((f.res.seq, core::mem::take(staged)));
                    }
                }
            };
            for op in ops.into_iter().map(decode_batch_op) {
                match op {
                    BatchOp::Post => {
                        match stage_one(&c, b"m") {
                            Stage::Staged { seq, flush: now, .. } => {
                                staged.push(seq);
                                if now {
                                    flush(&c, &mut staged, &mut inflight);
                                }
                            }
                            Stage::FlushFirst => {
                                flush(&c, &mut staged, &mut inflight);
                            }
                            other => prop_assert!(false, "unexpected stage: {:?}", other),
                        }
                    }
                    BatchOp::Flush => flush(&c, &mut staged, &mut inflight),
                    BatchOp::Answer(i) => {
                        if !inflight.is_empty() {
                            let (carrier, members) = inflight.remove(i % inflight.len());
                            let mut body = Vec::new();
                            batch::begin_result(&mut body, members.len() as u32);
                            for &m in &members {
                                batch::append_result_part(
                                    &mut body,
                                    m,
                                    &frame_result(Ok(m.to_le_bytes().to_vec())),
                                );
                            }
                            c.deposit_frame(carrier, PooledFrame::detached(frame_result(Ok(body))));
                            answered.extend(members);
                        }
                    }
                    BatchOp::Take(i) => {
                        if !answered.is_empty() {
                            let m = answered.remove(i % answered.len());
                            let got = c.take_completed(m);
                            prop_assert!(got.is_some(), "member completion lost: {}", m);
                            let frame = got.unwrap().unwrap();
                            let bytes = crate::target_loop::unframe_result_ref(&frame).unwrap();
                            prop_assert_eq!(bytes, &m.to_le_bytes()[..], "member result corrupted");
                            claimed.push(m);
                        }
                    }
                }
            }
            // Drain: flush and answer everything, then claim the tail.
            while !staged.is_empty() {
                flush(&c, &mut staged, &mut inflight);
                if let Some((carrier, members)) = inflight.pop() {
                    let mut body = Vec::new();
                    batch::begin_result(&mut body, members.len() as u32);
                    for &m in &members {
                        batch::append_result_part(
                            &mut body,
                            m,
                            &frame_result(Ok(m.to_le_bytes().to_vec())),
                        );
                    }
                    c.deposit_frame(carrier, PooledFrame::detached(frame_result(Ok(body))));
                    answered.extend(members);
                }
            }
            for (carrier, members) in inflight.drain(..) {
                let mut body = Vec::new();
                batch::begin_result(&mut body, members.len() as u32);
                for &m in &members {
                    batch::append_result_part(
                        &mut body,
                        m,
                        &frame_result(Ok(m.to_le_bytes().to_vec())),
                    );
                }
                c.deposit_frame(carrier, PooledFrame::detached(frame_result(Ok(body))));
                answered.extend(members);
            }
            for m in answered {
                prop_assert!(c.take_completed(m).is_some(), "tail member lost: {}", m);
                claimed.push(m);
            }
            for m in &claimed {
                prop_assert!(c.take_completed(*m).is_none(), "duplicate member: {}", m);
            }
            prop_assert_eq!(c.in_flight(), 0);
        }
    }

    // --- lifecycle model ----------------------------------------------------

    /// Where the model says one minted seq is.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Life {
        Staged,
        OnWire,
        /// Retired, result parked: `ok` result or error, unsent marker.
        Parked {
            ok: bool,
            unsent: bool,
        },
        Claimed,
        Cancelled,
    }

    /// One frame the model believes is in flight.
    #[derive(Clone, Debug)]
    struct WireFrame {
        seq: u64,
        /// The messages it carries (`[seq]` for a plain frame).
        msgs: Vec<u64>,
        carrier: bool,
    }

    /// Sequential reference model of one channel: every minted seq is in
    /// exactly one [`Life`] state, and the channel's observable counts
    /// must agree with it after every step.
    #[derive(Default)]
    struct Model {
        life: Vec<Life>,
        staged: Vec<u64>,
        wire: Vec<WireFrame>,
        degraded: bool,
        evicted: bool,
    }

    impl Model {
        fn mint(&mut self, seq: u64, life: Life) {
            assert_eq!(seq, self.life.len() as u64, "seqs are minted in order");
            self.life.push(life);
        }

        fn park(&mut self, seqs: &[u64], ok: bool, unsent: bool) {
            for &s in seqs {
                let was =
                    core::mem::replace(&mut self.life[s as usize], Life::Parked { ok, unsent });
                assert!(
                    matches!(was, Life::Staged | Life::OnWire),
                    "seq {s} completed twice (was {was:?})"
                );
            }
        }

        /// Retire the `i`-th in-flight frame, parking its messages.
        fn retire(&mut self, i: usize, ok: bool, unsent: bool) -> WireFrame {
            let f = self.wire.remove(i);
            self.park(&f.msgs, ok, unsent);
            f
        }

        fn wire_msgs(&self) -> usize {
            self.wire.iter().map(|f| f.msgs.len()).sum()
        }

        fn parked(&self) -> usize {
            let parked = |l: &&Life| matches!(l, Life::Parked { .. });
            self.life.iter().filter(parked).count()
        }

        /// The channel agrees with the model, and no seq that already
        /// left (claimed or cancelled) has anything parked again.
        fn check(&self, c: &ChannelCore) {
            assert_eq!(c.in_flight(), self.wire_msgs() + self.staged.len());
            assert_eq!(c.tracked_seqs(), self.wire.len() + self.parked());
            for (s, l) in self.life.iter().enumerate() {
                if matches!(l, Life::Claimed | Life::Cancelled) {
                    assert!(c.take_completed(s as u64).is_none(), "seq {s} came back");
                }
            }
        }

        /// Put whatever is staged on the wire, as the engine would.
        fn flush(&mut self, c: &ChannelCore) {
            match c.take_flush() {
                FlushPrep::Empty => assert!(self.staged.is_empty(), "lost staging"),
                FlushPrep::Full => assert!(self.degraded || !self.wire.is_empty()),
                FlushPrep::Ready(f) => {
                    assert!(!self.degraded && !self.evicted);
                    assert_eq!(Some(&f.res.seq), self.staged.last());
                    c.note_sent(f.res.seq, &f.header, f.frame);
                    let msgs = core::mem::take(&mut self.staged);
                    for &m in &msgs {
                        self.life[m as usize] = Life::OnWire;
                    }
                    self.wire.push(WireFrame {
                        seq: f.res.seq,
                        msgs,
                        carrier: true,
                    });
                }
            }
        }

        /// The target answers the `i`-th in-flight frame.
        fn deposit(&mut self, c: &ChannelCore, i: usize) {
            let f = self.retire(i, true, false);
            if f.carrier {
                answer_batch(c, f.seq, &f.msgs);
            } else {
                c.deposit_frame(
                    f.seq,
                    PooledFrame::detached(frame_result(Ok(f.seq.to_le_bytes().to_vec()))),
                );
            }
        }

        /// Claim the parked completion of `seq` and check it is the one
        /// the model expects, marker included.
        fn take(&mut self, c: &ChannelCore, seq: u64) {
            let Life::Parked { ok, unsent } = self.life[seq as usize] else {
                panic!("seq {seq} is not parked");
            };
            assert_eq!(c.take_unsent(seq), unsent, "unsent marker of seq {seq}");
            match c.take_completed(seq).expect("parked completion") {
                Ok(frame) => {
                    assert!(ok, "seq {seq} should have failed");
                    let bytes = crate::target_loop::unframe_result_ref(&frame).unwrap();
                    assert_eq!(bytes, seq.to_le_bytes(), "seq {seq} got another result");
                }
                Err(_) => assert!(!ok, "seq {seq} should have succeeded"),
            }
            self.life[seq as usize] = Life::Claimed;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every way a frame can leave the channel, interleaved at
        /// random on bounded and unbounded channels with and without a
        /// recovery policy: no seq ever completes twice, and once the
        /// traffic is driven to the end every minted seq was claimed or
        /// cancelled exactly once, nothing is in flight or parked, and
        /// every slot is back.
        #[test]
        fn every_retire_path_settles_each_seq_exactly_once(
            slots in 0usize..4,
            max_msgs in 2usize..5,
            recovery in 0u8..3,
            ops in proptest::collection::vec((0u8..12, 0usize..16), 0..96),
        ) {
            // `slots == 0` stands for an unbounded channel.
            let c = if slots == 0 {
                ChannelCore::unbounded()
            } else {
                ChannelCore::bounded(slots, slots, 4096)
            };
            let c = c.with_batching(BatchConfig::up_to(max_msgs));
            let policy = match recovery {
                0 => None,
                1 => Some(RecoveryPolicy { retry_after_misses: 2, max_retries: 1 }),
                _ => Some(RecoveryPolicy::replay_only(3)),
            };
            let c = match policy {
                Some(p) => c.with_recovery(p),
                None => c,
            };
            let lost = OffloadError::TargetLost(crate::types::NodeId(1));
            let mut m = Model::default();
            for (kind, i) in ops {
                match kind {
                    // reserve + send a plain frame
                    0 => match reserve(&c) {
                        Reserve::Reserved(r) => {
                            prop_assert!(!m.evicted && !m.degraded);
                            m.mint(r.seq, Life::OnWire);
                            let wire = PooledFrame::detached(r.seq.to_le_bytes().to_vec());
                            c.note_sent(r.seq, &offload_header(r.seq), wire);
                            m.wire.push(WireFrame { seq: r.seq, msgs: vec![r.seq], carrier: false });
                        }
                        Reserve::Full => prop_assert!(m.degraded || !m.wire.is_empty()),
                        Reserve::Lost(_) => prop_assert!(m.evicted),
                        Reserve::Shutdown => prop_assert!(false, "never shut down"),
                    },
                    // stage, flushing when told to
                    1 => match stage_one(&c, b"m") {
                        Stage::Staged { seq, flush, .. } => {
                            prop_assert!(!m.evicted);
                            m.mint(seq, Life::Staged);
                            m.staged.push(seq);
                            if flush {
                                m.flush(&c);
                            }
                        }
                        Stage::FlushFirst => m.flush(&c),
                        Stage::Lost(_) => prop_assert!(m.evicted),
                        other => prop_assert!(false, "unexpected stage: {:?}", other),
                    },
                    2 => m.flush(&c),
                    3 if !m.wire.is_empty() => m.deposit(&c, i % m.wire.len()),
                    // cancel a plain frame / fail a carrier's send
                    4 | 5 if !m.wire.is_empty() => {
                        let at = i % m.wire.len();
                        if m.wire[at].carrier {
                            let f = m.retire(at, false, true);
                            c.fail_batch(f.seq, OffloadError::Shutdown);
                        } else {
                            let f = m.wire.remove(at);
                            c.cancel(f.seq);
                            m.life[f.seq as usize] = Life::Cancelled;
                        }
                    }
                    // miss a frame until its deadline policy gives up
                    6 if !m.wire.is_empty() => {
                        let at = i % m.wire.len();
                        let seq = m.wire[at].seq;
                        let timed_out = (0..16).any(|_| matches!(c.note_miss(seq), MissVerdict::TimedOut));
                        prop_assert_eq!(timed_out, policy.is_some_and(|p| p.retries_on_miss()));
                        if timed_out {
                            prop_assert!(c.take_pending(seq).is_some());
                            c.finish(seq, Err(OffloadError::Timeout));
                            m.retire(at, false, false);
                        }
                    }
                    7 => {
                        let first = !m.evicted && !m.degraded;
                        prop_assert_eq!(c.degrade(lost.clone()).is_some(), first);
                        m.degraded |= first;
                    }
                    8 => {
                        let watermark = i.checked_sub(1).map(|w| w as u64);
                        match c.resume(watermark, lost.clone()) {
                            None => prop_assert!(!m.degraded),
                            Some(rep) => {
                                prop_assert!(core::mem::take(&mut m.degraded));
                                let replayed: Vec<u64> = rep.replay.iter().map(|f| f.seq).collect();
                                let mut failed = 0;
                                for at in (0..m.wire.len()).rev() {
                                    let seq = m.wire[at].seq;
                                    if replayed.contains(&seq) {
                                        prop_assert!(policy.is_some() && watermark.is_none_or(|w| seq > w));
                                    } else {
                                        failed += m.retire(at, false, false).msgs.len();
                                    }
                                }
                                prop_assert_eq!(rep.lost, failed);
                            }
                        }
                    }
                    // evict (rarely: most schedules should outlive it)
                    9 if i % 4 == 0 => {
                        let doomed = m.wire_msgs() + m.staged.len();
                        let first = !core::mem::replace(&mut m.evicted, true);
                        prop_assert_eq!(c.evict(lost.clone()), first.then_some(doomed));
                        m.degraded = false;
                        while !m.wire.is_empty() {
                            m.retire(0, false, false);
                        }
                        let staged = core::mem::take(&mut m.staged);
                        m.park(&staged, false, true);
                    }
                    10 => {
                        let n = i % 4;
                        let keep = m.staged.len().saturating_sub(n);
                        prop_assert_eq!(c.take_staged_tail(n), m.staged.len() - keep);
                        let tail = m.staged.split_off(keep);
                        m.park(&tail, false, true);
                    }
                    11 => {
                        let parked: Vec<u64> = (0..m.life.len() as u64)
                            .filter(|&s| matches!(m.life[s as usize], Life::Parked { .. }))
                            .collect();
                        if !parked.is_empty() {
                            m.take(&c, parked[i % parked.len()]);
                        }
                    }
                    _ => {}
                }
                m.check(&c);
            }
            // Drive the traffic to the end: heal, flush, answer, claim.
            if m.degraded {
                prop_assert!(c.resume(None, lost.clone()).is_some());
                m.degraded = false;
                for at in (0..m.wire.len()).rev() {
                    if policy.is_none() {
                        m.retire(at, false, false);
                    }
                }
            }
            while !m.evicted && m.wire.len() + m.staged.len() > 0 {
                while !m.wire.is_empty() {
                    m.deposit(&c, 0);
                }
                m.flush(&c);
            }
            for s in 0..m.life.len() as u64 {
                if matches!(m.life[s as usize], Life::Parked { .. }) {
                    m.take(&c, s);
                }
            }
            m.check(&c);
            prop_assert!(m.life.iter().all(|l| matches!(l, Life::Claimed | Life::Cancelled)));
            prop_assert_eq!((c.in_flight(), c.bytes_in_flight(), c.tracked_seqs()), (0, 0, 0));
            if !m.evicted {
                for _ in 0..slots {
                    prop_assert!(matches!(reserve(&c), Reserve::Reserved(_)), "a slot leaked");
                }
            }
        }
    }

    proptest! {
        /// The seq-ordered parked table against a `BTreeMap` model:
        /// parks in any seq order, re-parks of a seq (the later result
        /// wins), claims in any order, one-shot unsent markers, and
        /// `tracked_seqs` counting exactly what is parked.
        #[test]
        fn parked_table_matches_a_btreemap(
            ops in proptest::collection::vec((0u8..4, 0u64..24, any::<bool>()), 0..128),
        ) {
            use std::collections::BTreeMap;
            let c = ChannelCore::unbounded();
            // seq → (result body, unsent)
            let mut model: BTreeMap<u64, (Vec<u8>, bool)> = BTreeMap::new();
            for (step, (kind, seq, unsent)) in ops.into_iter().enumerate() {
                let body = vec![step as u8, seq as u8];
                match kind {
                    // Park, or re-park over an earlier entry.
                    0 | 1 => {
                        let result = Ok(PooledFrame::detached(body.clone()));
                        c.state.lock().unwrap().park(seq, result, unsent);
                        model.insert(seq, (body, unsent));
                    }
                    // Claim, in whatever order the ops name seqs.
                    2 => {
                        let got = c.claim(seq).map(|(r, u)| (r.unwrap().to_vec(), u));
                        prop_assert_eq!(got, model.remove(&seq));
                    }
                    // The one-shot unsent marker.
                    _ => {
                        let want = model.get_mut(&seq).is_some_and(|e| core::mem::take(&mut e.1));
                        prop_assert_eq!(c.take_unsent(seq), want);
                    }
                }
                prop_assert_eq!(c.tracked_seqs(), model.len());
            }
            let parked: Vec<u64> = c.state.lock().unwrap().parked.iter_mut().map(|(s, _)| s).collect();
            prop_assert_eq!(parked, model.keys().copied().collect::<Vec<_>>(), "seq order");
        }
    }
}
