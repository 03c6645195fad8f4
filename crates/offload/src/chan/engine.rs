//! The protocol engine: drives a [`ChannelCore`] against a backend's
//! transport verbs.
//!
//! Every host-side transition an offload goes through — reserve (or
//! stage, with batching on), frame, post, flag sweep, fetch, unframe,
//! claim — happens in these functions, for all transports. Backends
//! contribute only [`CommBackend::send_frame`] /
//! [`CommBackend::poll_flags`] / [`CommBackend::fetch_frame`] (or a
//! receiver thread that calls [`super::ChannelCore::deposit_frame`]).

use super::adaptive::Decision;
use super::backoff::Backoff;
use super::core::{ChannelCore, FlushFrame, FlushPrep, Reservation, Reserve, Stage};
use super::pending::PendingEntry;
use super::recovery::MissVerdict;
use crate::backend::CommBackend;
use crate::types::NodeId;
use crate::OffloadError;
use aurora_sim_core::trace;
use aurora_telemetry::{current_offload, offload_scope, HealthEventKind, OffloadId};
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};

/// Post an offload message. With batching off (the default) this
/// reserves slots (draining completions while the rings are full),
/// frames, and hands the frame to the transport. With batching on the
/// message is *staged* into the channel's envelope instead, and only a
/// tripped watermark — or a later [`flush`] / blocking wait — puts it on
/// the wire. Either way, returns the sequence number the result will be
/// claimable under.
pub fn post<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    key: HandlerKey,
    payload: &[u8],
) -> Result<u64, OffloadError> {
    let chan = backend.channel(target)?;
    if chan.batch_enabled() {
        let offload = current_offload();
        loop {
            match chan.stage(key, payload, offload, backend.host_clock().now()) {
                Stage::Staged {
                    seq,
                    flush: now,
                    slo,
                } => {
                    if now {
                        // A send failure here is parked on the member
                        // futures by `fail_batch`; the post itself
                        // succeeded.
                        let _ = flush_staged(backend, target, slo);
                    }
                    return Ok(seq);
                }
                Stage::FlushFirst => {
                    let _ = flush(backend, target);
                }
                Stage::TooBig => {
                    // Flush what is staged (order must hold), then post
                    // this message as a plain frame below.
                    let _ = flush(backend, target);
                    break;
                }
                Stage::Shutdown => return Err(OffloadError::Shutdown),
                Stage::Lost(e) => return Err(e),
            }
        }
    }
    post_inner(backend, target, key, payload, MsgKind::Offload)
}

/// Post a control message (shutdown). Control frames bypass the
/// shutdown gate — they are how shutdown is delivered — but share the
/// reservation path so slot discipline holds to the very last frame.
/// Staged messages are flushed first so nothing outruns them.
pub fn post_control<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
) -> Result<u64, OffloadError> {
    flush(backend, target)?;
    post_inner(backend, target, HandlerKey(0), &[], MsgKind::Control)
}

fn post_inner<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    key: HandlerKey,
    payload: &[u8],
    kind: MsgKind,
) -> Result<u64, OffloadError> {
    let chan = backend.channel(target)?;
    if payload.len() > chan.max_msg_bytes() {
        return Err(OffloadError::Backend(format!(
            "message of {} bytes exceeds the protocol's {}-byte slots; transfer bulk data with put/get",
            payload.len(),
            chan.max_msg_bytes()
        )));
    }
    let control = matches!(kind, MsgKind::Control);
    let offload = current_offload();
    let mut backoff = Backoff::new();
    let wire_bytes = (HEADER_BYTES + payload.len()) as u64;
    let reserved = loop {
        match chan.try_reserve(control, offload, backend.host_clock().now(), wire_bytes) {
            Reserve::Reserved(r) => break Ok(r),
            Reserve::Shutdown => break Err(OffloadError::Shutdown),
            Reserve::Lost(e) => break Err(e),
            Reserve::Full => {
                // All slots in flight: sweep completions to free some.
                // A dead target errors its pending entries out here, so
                // this loop cannot spin forever.
                if let Err(e) = sweep(backend, target) {
                    break Err(e);
                }
                backoff.snooze();
            }
        }
    };
    backoff.record(backend.metrics());
    let res = reserved?;
    let header = MsgHeader {
        handler_key: key,
        payload_len: payload.len() as u32,
        kind,
        reply_slot: res.send_slot as u16,
        corr: offload,
        seq: res.seq,
    };
    // Assemble the full wire frame in a pooled buffer: the transport
    // writes it verbatim, and `note_sent` keeps the same buffer for
    // recovery re-sends instead of copying.
    let mut frame = chan.pool().checkout();
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(payload);
    if let Err(e) = backend.send_frame(target, &res, &header, &frame) {
        chan.cancel(res.seq);
        evict_if_lost(backend, target, chan, &e);
        return Err(e);
    }
    if matches!(kind, MsgKind::Offload) {
        backend.metrics().on_frame(1);
    }
    chan.note_sent(res.seq, &header, frame);
    Ok(res.seq)
}

/// Put the staged batch envelope (if any) on the wire. No-op with
/// batching off. Blocks (sweeping completions) while the slot rings are
/// full; a transport failure fails every member via
/// [`ChannelCore::fail_batch`] and surfaces here too.
pub fn flush<B: CommBackend + ?Sized>(backend: &B, target: NodeId) -> Result<(), OffloadError> {
    flush_staged(backend, target, false)
}

/// [`flush`], told whether the `slo_micros` age bound (rather than a
/// watermark or a caller) is what closes the envelope.
fn flush_staged<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    slo: bool,
) -> Result<(), OffloadError> {
    let chan = backend.channel(target)?;
    if !chan.batch_enabled() {
        return Ok(());
    }
    let mut backoff = Backoff::new();
    let prep = loop {
        match chan.take_flush() {
            FlushPrep::Empty => break Ok(None),
            FlushPrep::Full => {
                // Eviction empties the accumulator, so a dead target
                // exits through `Empty` rather than spinning here.
                if let Err(e) = sweep(backend, target) {
                    break Err(e);
                }
                backoff.snooze();
            }
            FlushPrep::Ready(f) => break Ok(Some(f)),
        }
    };
    backoff.record(backend.metrics());
    match prep? {
        Some(f) => send_envelope(backend, target, chan, f, slo),
        None => Ok(()),
    }
}

/// Put one claimed envelope on the wire: transport write, flush
/// metrics/trace, recovery bookkeeping — then one adaptive-controller
/// accounting step (which, every [`super::adaptive::TICK_FLUSHES`]
/// flushes, reads the largest flush latency this channel saw in the
/// window and may retune its watermarks; each decision is one health
/// event, counted as `aurora_batch_*`). `slo` marks an envelope the
/// `slo_micros` age bound closed: the latency bound firing, not a
/// watermark — told to the controller and recorded as a `SloFlush`
/// event here, once the envelope actually leaves the accumulator.
fn send_envelope<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    chan: &ChannelCore,
    f: FlushFrame,
    slo: bool,
) -> Result<(), OffloadError> {
    let t0 = backend.host_clock().now();
    if slo {
        chan.note_slo_trip();
        backend.metrics().health().record(
            target.0,
            HealthEventKind::SloFlush,
            current_offload(),
            t0.as_ps(),
        );
    }
    if let Err(e) = backend.send_frame(target, &f.res, &f.header, &f.frame) {
        chan.fail_batch(f.res.seq, e.clone());
        evict_if_lost(backend, target, chan, &e);
        return Err(e);
    }
    let now = backend.host_clock().now();
    let metrics = backend.metrics();
    metrics.on_frame(f.msgs as u64);
    // Flush latency: first member staged → envelope on the
    // transport, in virtual time.
    let flush = now.saturating_sub(f.posted_at);
    metrics.on_flush(flush.as_ps());
    trace::record("chan.batch_flush", f.msgs as u64, t0, now);
    chan.note_sent(f.res.seq, &f.header, f.frame);
    if let Some(d) = chan.adaptive_tick(f.msgs, flush.as_ps()) {
        let kind = match d.decision {
            Decision::Widen => HealthEventKind::BatchWiden,
            _ => HealthEventKind::BatchNarrow,
        };
        metrics
            .health()
            .record(target.0, kind, current_offload(), now.as_ps());
    }
    Ok(())
}

/// Flush staged messages, then sweep completion flags once — the verb
/// every blocking wait uses. Flushing first matters: a future spinning
/// on a staged-but-unflushed message would otherwise wait on a frame
/// that never left the host. Returns how many offloads completed.
pub fn drain<B: CommBackend + ?Sized>(backend: &B, target: NodeId) -> Result<usize, OffloadError> {
    flush(backend, target)?;
    sweep(backend, target)
}

/// Sweep the completion flags of *every* in-flight offload on `target`
/// and park the ready ones for their futures — one poll pass
/// retires any number of completions. The pass copies and polls every
/// in-flight entry (`pending_into`), so its host work is O(in-flight),
/// shared by every future waiting on the channel rather than repeated
/// per future. Push transports have nothing to sweep; their
/// receiver threads deposit directly. Returns how many offloads
/// completed (transport errors count: they complete their futures with
/// the error).
///
/// When a recovery policy is armed on the channel, a cold flag also
/// counts one *miss* against its offload: past the deadline the stored
/// frame is re-sent into the same slots (`chan.retry` span), and once
/// the retry budget is exhausted the offload fails with
/// [`OffloadError::Timeout`] (`chan.timeout` span) **and the target is
/// evicted** — a definitively lost frame is a hole the target's
/// in-order slot cursor can never step over, so nothing posted after
/// it can be delivered either. A batch carrier times out and retries as
/// one unit: its timeout fails every member at once. A transport error
/// likewise evicts the whole target (`chan.evict` span): every
/// in-flight offload fails with the error and future posts are refused.
pub fn sweep<B: CommBackend + ?Sized>(backend: &B, target: NodeId) -> Result<usize, OffloadError> {
    use core::cell::RefCell;
    thread_local! {
        /// Snapshot scratch, reused across sweeps: blocking waits call
        /// this every backoff round and must not allocate per round.
        static SWEEP_SCRATCH: RefCell<Vec<(u64, PendingEntry)>> =
            const { RefCell::new(Vec::new()) };
    }
    SWEEP_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => sweep_with(backend, target, &mut scratch),
        // Re-entrant sweep (a poll_flags/fetch_frame hook sweeping the
        // same thread) falls back to a fresh vector.
        Err(_) => sweep_with(backend, target, &mut Vec::new()),
    })
}

fn sweep_with<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    scratch: &mut Vec<(u64, PendingEntry)>,
) -> Result<usize, OffloadError> {
    let chan = backend.channel(target)?;
    // The SLO bound on time-in-accumulator: any staged envelope older
    // than `slo_micros` of virtual time goes on the wire now, so a lone
    // small message never waits behind a filling batch just because
    // nobody else posted. With the knob unset (the default) this is a
    // lock-free field compare.
    if chan.slo_flush_due(backend.host_clock().now()) {
        // One attempt, no loop: `Full` (no free slots) waits for this
        // very sweep to retire completions, and the next sweep retries.
        // A send failure parks the error on every member via
        // `fail_batch`; the sweep itself carries on.
        if let FlushPrep::Ready(f) = chan.take_flush() {
            let _ = send_envelope(backend, target, chan, f, true);
        }
    }
    let mut completed = 0;
    chan.pending_into(scratch);
    for &(seq, entry) in scratch.iter() {
        let ready = backend.poll_flags(target, seq, &entry);
        match ready {
            Ok(None) => match chan.note_miss(seq) {
                MissVerdict::Keep => {}
                MissVerdict::Retry {
                    header,
                    frame,
                    attempt,
                } => {
                    let _scope = offload_scope(OffloadId(entry.offload));
                    let t0 = backend.host_clock().now();
                    let res = Reservation {
                        seq,
                        recv_slot: entry.recv_slot,
                        send_slot: entry.send_slot,
                        attempt,
                    };
                    // Recorded before the write, so `resends` counts an
                    // attempted re-send even when the write then fails.
                    backend.metrics().health().record(
                        target.0,
                        HealthEventKind::Retry,
                        entry.offload,
                        t0.as_ps(),
                    );
                    if let Err(e) = backend.send_frame(target, &res, &header, &frame) {
                        completed += evict(backend, target, chan, e);
                        break;
                    }
                    let now = backend.host_clock().now();
                    // Retry delay: post → this re-send, the backoff
                    // distribution of the recovery policy.
                    backend
                        .metrics()
                        .on_retry_delay(now.saturating_sub(entry.posted_at).as_ps());
                    trace::record("chan.retry", (frame.len() - HEADER_BYTES) as u64, t0, now);
                }
                MissVerdict::TimedOut => {
                    let Some(entry) = chan.take_pending(seq) else {
                        continue;
                    };
                    let _scope = offload_scope(OffloadId(entry.offload));
                    let now = backend.host_clock().now();
                    trace::record("chan.timeout", 0, now, now);
                    backend.metrics().health().record(
                        target.0,
                        HealthEventKind::Timeout,
                        entry.offload,
                        now.as_ps(),
                    );
                    chan.finish(seq, Err(OffloadError::Timeout));
                    completed += 1;
                    // A frame lost beyond its retry budget leaves a
                    // permanent hole in the slot rings: targets consume
                    // recv slots in order and can never advance past a
                    // slot whose frame will not be re-sent. The target
                    // is unreachable from here on — evict it so the
                    // remaining in-flight offloads fail immediately
                    // instead of timing out one by one.
                    completed += evict(backend, target, chan, OffloadError::TargetLost(target));
                    break;
                }
            },
            Ok(Some(token)) => {
                // Re-check under the lock: another thread may have
                // claimed this completion between snapshot and now.
                let Some(entry) = chan.take_pending(seq) else {
                    continue;
                };
                // The fetch belongs to the span tree of the offload it
                // completes, not whichever future's poll triggered it.
                let _scope = offload_scope(OffloadId(entry.offload));
                let mut frame = chan.pool().checkout();
                let result = backend
                    .fetch_frame(target, seq, &entry, token, &mut frame)
                    .map(|()| frame);
                chan.finish(seq, result);
                completed += 1;
            }
            Err(e) => {
                // A dead transport fails every in-flight offload at
                // once: eviction parks the error for each future and
                // frees the slots so posting paths stop blocking.
                completed += evict(backend, target, chan, e);
                break;
            }
        }
    }
    Ok(completed)
}

/// A transport that refuses a frame with [`OffloadError::TargetLost`]
/// has seen the target dead. Latch that as the eviction it implies:
/// with nothing in flight no sweep would ever observe the death, and a
/// caller retrying the post until the channel is evicted would spin
/// forever. Cold: the post path pays one never-taken branch for it.
#[cold]
fn evict_if_lost<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    chan: &ChannelCore,
    err: &OffloadError,
) {
    if matches!(err, OffloadError::TargetLost(_)) {
        evict(backend, target, chan, err.clone());
    }
}

/// Evict `target` behind `chan`: fail every in-flight offload with
/// `err`, latch the channel so future posts are refused, record the
/// `chan.evict` span and the health `Eviction` event. Idempotent;
/// returns how many offloads it failed.
pub fn evict<B: CommBackend + ?Sized>(
    backend: &B,
    target: NodeId,
    chan: &ChannelCore,
    err: OffloadError,
) -> usize {
    let Some(failed) = chan.evict(err) else {
        return 0;
    };
    let now = backend.host_clock().now();
    trace::record("chan.evict", failed as u64, now, now);
    backend.metrics().health().record(
        target.0,
        HealthEventKind::Eviction,
        current_offload(),
        now.as_ps(),
    );
    failed
}

/// One liveness probe round trip against `target`, with full
/// bookkeeping. [`CommBackend::probe`] only checks reachability; this
/// is the one place that records the outcome: a `Probe` health event on
/// success, a [`HealthEventKind::ProbeMiss`] on failure — the earliest
/// degradation signal the health registry sees, arriving before any
/// offload traffic fails on the link. Both events are also the
/// `probes`/`probe_misses` counters. The pool prober calls this on its
/// cadence; it is also safe to call ad hoc.
pub fn probe<B: CommBackend + ?Sized>(backend: &B, target: NodeId) -> Result<(), OffloadError> {
    let result = backend.probe(target);
    let kind = match result {
        Ok(()) => HealthEventKind::Probe,
        Err(_) => HealthEventKind::ProbeMiss,
    };
    backend.metrics().health().record(
        target.0,
        kind,
        current_offload(),
        backend.host_clock().now().as_ps(),
    );
    result
}
