//! Timeout/retry policy for in-flight offloads.
//!
//! Completion flags normally arrive; under fault injection (or on real
//! flaky hardware) a frame can vanish in transit and the flag stays cold
//! forever. When a [`RecoveryPolicy`] is armed on a
//! [`super::ChannelCore`], the engine's flag sweeps count *misses* per
//! in-flight offload and act on deadlines:
//!
//! * after `retry_after_misses` fruitless sweeps the stored frame is
//!   re-sent into the same slots (safe: sequence numbers already
//!   deduplicate on the target, and a frame that was genuinely lost was
//!   never consumed, so its receive slot still holds no message);
//! * each retry doubles the deadline (binary exponential backoff);
//! * after `max_retries` re-sends the next deadline fails the offload
//!   with [`crate::OffloadError::Timeout`] — and the engine then
//!   *evicts* the target: a frame that is definitively lost leaves a
//!   hole in the slot ring that the target's in-order cursor can never
//!   step over, so the channel is unreachable from that point on.
//!
//! Deadlines are counted in *sweeps*, not virtual time: a genuinely lost
//! frame makes no virtual-time progress (failed flag peeks are free in
//! the simulation), so a virtual deadline would never fire. Sweep counts
//! are deterministic for serial traffic — the host performs exactly
//! `retry_after_misses` sweeps between send and retry.

use super::pool::PooledFrame;
use ham::wire::MsgHeader;

/// Deadline/retry configuration, armed per channel via
/// [`super::ChannelCore::with_recovery`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Fruitless flag sweeps before the first re-send; doubles per retry.
    pub retry_after_misses: u32,
    /// Re-sends before the offload is failed with `Timeout`.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    /// Retry after 256 cold sweeps, give up after 3 re-sends. High
    /// enough that a healthy-but-slow target finishes long before a
    /// spurious retry; a retried frame is deduplicated anyway.
    fn default() -> Self {
        RecoveryPolicy {
            retry_after_misses: 256,
            max_retries: 3,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that stores frames for connection-resume replay but
    /// never re-sends on sweep misses. Push transports (TCP) need this:
    /// their completions arrive by deposit, so a cold sweep says nothing
    /// about frame loss — and their targets run without the dedup
    /// watermark, so a spurious re-send would double-execute.
    /// `max_retries` bounds the *reconnect* budget instead: how many
    /// re-establishment attempts the transport makes before the channel
    /// is evicted.
    pub fn replay_only(max_retries: u32) -> Self {
        RecoveryPolicy {
            retry_after_misses: u32::MAX,
            max_retries,
        }
    }

    /// Whether sweep misses may ever trigger a re-send (false for
    /// [`RecoveryPolicy::replay_only`] policies).
    pub(crate) fn retries_on_miss(&self) -> bool {
        self.retry_after_misses != u32::MAX
    }
}

/// A re-sendable copy of one posted frame plus its deadline counters.
/// Lives in the frame's in-flight record, so it is dropped (and its
/// buffer returned to the pool) when the frame retires.
#[derive(Debug)]
pub(crate) struct StoredFrame {
    /// The wire header as originally sent (seq, slots, kind unchanged).
    pub header: MsgHeader,
    /// The full wire bytes (header ‖ payload) — the engine hands its
    /// pooled send buffer here instead of copying, so the hot path is
    /// allocation-free.
    pub frame: PooledFrame,
    /// Fruitless sweeps since the last send of this frame.
    pub misses: u32,
    /// Re-sends performed so far.
    pub retries: u32,
}

/// What a flag-sweep miss means for one in-flight offload.
#[derive(Debug)]
pub enum MissVerdict {
    /// Below the deadline (or no recovery armed): keep waiting.
    Keep,
    /// Deadline passed with retry budget left: re-send this frame.
    Retry {
        /// Header to re-send (identical to the original).
        header: MsgHeader,
        /// Full wire bytes to re-send (cloned: re-sends are cold).
        frame: Vec<u8>,
        /// Which attempt this is (1 = first re-send).
        attempt: u32,
    },
    /// Deadline passed with no budget left: fail the offload.
    TimedOut,
}

impl StoredFrame {
    /// A just-sent frame (full wire bytes), deadline clock at zero.
    pub(super) fn new(header: MsgHeader, frame: PooledFrame) -> Self {
        StoredFrame {
            header,
            frame,
            misses: 0,
            retries: 0,
        }
    }

    /// Claim the frame for a re-send (deadline retry or connection-
    /// resume replay): bumps the attempt counter, resets the miss clock,
    /// and hands back a cloned wire image. The frame stays stored — a
    /// second disconnect can replay it again.
    pub(super) fn resend(&mut self) -> (MsgHeader, Vec<u8>, u32) {
        self.retries += 1;
        self.misses = 0;
        (self.header, self.frame.to_vec(), self.retries)
    }

    /// Count one fruitless sweep and apply `policy`'s deadline. After
    /// [`MissVerdict::TimedOut`] the caller drops the stored frame.
    pub(super) fn miss(&mut self, policy: &RecoveryPolicy) -> MissVerdict {
        if !policy.retries_on_miss() {
            // Replay-only: frames are stored for resume, not re-sent on
            // deadline — a miss carries no information on a push
            // transport.
            return MissVerdict::Keep;
        }
        self.misses += 1;
        let deadline = policy
            .retry_after_misses
            .saturating_mul(1u32.checked_shl(self.retries).unwrap_or(u32::MAX));
        if self.misses < deadline.max(1) {
            return MissVerdict::Keep;
        }
        if self.retries >= policy.max_retries {
            return MissVerdict::TimedOut;
        }
        let (header, frame, attempt) = self.resend();
        MissVerdict::Retry {
            header,
            frame,
            attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::registry::HandlerKey;
    use ham::wire::{MsgHeader, MsgKind};

    fn stored() -> StoredFrame {
        let header = MsgHeader {
            handler_key: HandlerKey(1),
            payload_len: 2,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: 0,
            seq: 0,
        };
        StoredFrame::new(header, PooledFrame::detached(b"hi".to_vec()))
    }

    #[test]
    fn deadline_retries_then_times_out_with_backoff() {
        let policy = RecoveryPolicy {
            retry_after_misses: 4,
            max_retries: 2,
        };
        let mut f = stored();
        // 3 misses: keep; 4th crosses the deadline → retry 1.
        for _ in 0..3 {
            assert!(matches!(f.miss(&policy), MissVerdict::Keep));
        }
        let MissVerdict::Retry { attempt, frame, .. } = f.miss(&policy) else {
            panic!("expected retry");
        };
        assert_eq!((attempt, frame.as_slice()), (1, b"hi".as_slice()));
        // Backoff doubles: 8 misses to the next deadline → retry 2.
        for _ in 0..7 {
            assert!(matches!(f.miss(&policy), MissVerdict::Keep));
        }
        assert!(matches!(
            f.miss(&policy),
            MissVerdict::Retry { attempt: 2, .. }
        ));
        // Budget exhausted: 16 misses then timeout.
        for _ in 0..15 {
            assert!(matches!(f.miss(&policy), MissVerdict::Keep));
        }
        assert!(matches!(f.miss(&policy), MissVerdict::TimedOut));
    }

    #[test]
    fn replay_only_policies_never_retry_on_misses() {
        let policy = RecoveryPolicy::replay_only(2);
        let mut f = stored();
        for _ in 0..10_000 {
            assert!(matches!(f.miss(&policy), MissVerdict::Keep));
        }
        // The frame is still whole, available for resume replay.
        let (_, wire, attempt) = f.resend();
        assert_eq!((wire.as_slice(), attempt), (b"hi".as_slice(), 1));
        assert!(!policy.retries_on_miss());
        assert!(RecoveryPolicy::default().retries_on_miss());
    }
}
