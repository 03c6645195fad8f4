//! The target-side runtime surface: channel trait, result framing, and
//! the environment handed to kernels.
//!
//! After initialisation, an offload target sits in a message loop:
//! receive the next active message, translate its handler key, execute,
//! send the result message back (paper §III-C/D: on the SX-Aurora this
//! loop *is* `ham_main()` running inside the VE process). The loop
//! itself — per-core worker lanes, staged-work stealing, watermark
//! bookkeeping — lives in [`crate::device::DeviceRuntime`]; every
//! backend runs that one engine. This module keeps the
//! transport-facing pieces: [`TargetChannel`], [`TargetEnv`], and the
//! result-frame wire helpers ([`write_framed`] and its inverse).

use crate::chan::pool::{FramePool, PooledFrame};
use ham::wire::MsgHeader;
use ham::{HamError, Registry, TargetMemory};
use std::io::Write;
use std::sync::Arc;

/// Outcome of a non-blocking poll on a [`TargetChannel`].
pub enum Polled {
    /// A message was ready.
    Msg(MsgHeader, PooledFrame),
    /// Nothing ready right now; more may arrive later.
    Empty,
    /// The channel has shut down; nothing will ever arrive again.
    Closed,
}

/// Target-side view of one backend channel.
///
/// Bodies are returned as [`PooledFrame`]s checked out through the
/// device runtime's [`FramePool`] handle, so the warm receive path
/// recycles buffers instead of allocating one per message.
pub trait TargetChannel {
    /// Receive the next message (blocking; backends poll flags inside).
    /// `None` means the channel is shut down.
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)>;

    /// Poll for a ready message without blocking — the device runtime
    /// uses this to drain already-delivered messages into one
    /// scheduling window. Must not wait for the host: if no complete
    /// message is available *right now*, return [`Polled::Empty`].
    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled;

    /// Publish a result payload for the offload that arrived with
    /// `reply_slot` and sequence number `seq`. Takes ownership, so a
    /// transport may keep the buffer instead of copying it. A transport
    /// may queue the result until the next [`Self::flush`]; results
    /// still reach the host in the order they were sent.
    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>);

    /// Hand every result queued by [`Self::send_result`] to the
    /// transport. The device runtime calls this once per window, after
    /// the window's last result. Transports that publish each result at
    /// once keep this default no-op.
    fn flush(&self) {}
}

/// Append one framed handler outcome to `out`: the status byte, then
/// whatever `write` appends — `0x00 ‖ output` on success. On `Err`,
/// everything `write` appended is dropped and the frame becomes
/// `0x01 ‖ utf-8 message`. The one writer of the result frame format;
/// a handler run inside `write` encodes straight into `out`, with no
/// buffer of its own.
pub fn write_framed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>) -> Result<(), HamError>) {
    let mark = out.len();
    out.push(0);
    if let Err(e) = write(out) {
        out.truncate(mark);
        out.push(1);
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{e}");
    }
}

/// Frame a handler outcome for the wire: `0x00 ‖ bytes` on success,
/// `0x01 ‖ utf-8 message` on failure ([`write_framed`] into a fresh
/// buffer).
pub fn frame_result(result: Result<Vec<u8>, HamError>) -> Vec<u8> {
    let mut out = Vec::new();
    write_framed(&mut out, |out| {
        result.map(|bytes| out.extend_from_slice(&bytes))
    });
    out
}

/// Undo [`frame_result`] without copying: the success payload is a
/// sub-slice of `bytes`. The error side becomes a backend error string.
pub fn unframe_result_ref(bytes: &[u8]) -> Result<&[u8], String> {
    match bytes.split_first() {
        Some((0, rest)) => Ok(rest),
        Some((1, rest)) => Err(String::from_utf8_lossy(rest).into_owned()),
        _ => Err("malformed result frame".into()),
    }
}

/// The `MsgKind::Result` header answering the offload that arrived with
/// `reply_slot` and `seq`, for a result payload of `payload_len` bytes.
pub fn result_header(reply_slot: u16, seq: u64, payload_len: usize) -> MsgHeader {
    MsgHeader {
        handler_key: ham::registry::HandlerKey(0),
        payload_len: payload_len as u32,
        kind: ham::wire::MsgKind::Result,
        reply_slot,
        corr: 0,
        seq,
    }
}

/// The target process's execution environment: everything kernels may
/// touch, assembled by the backend.
pub struct TargetEnv<'a> {
    /// This target's node id.
    pub node: u16,
    /// This "binary"'s handler registry.
    pub registry: &'a Registry,
    /// Target-local memory.
    pub mem: &'a dyn TargetMemory,
    /// Reverse (target → host) transport, when supported.
    pub reverse: Option<&'a dyn ham::message::ReverseTransport>,
    /// Compute-cost meter, when the device models execution time.
    pub meter: Option<&'a dyn ham::message::ComputeMeter>,
    /// Drop duplicate offloads by sequence-number watermark. Correct
    /// only on transports where slot rotation guarantees in-order seq
    /// arrival (the Aurora flag protocols: VEO, DMA) — there a frame
    /// with `seq ≤` the watermark can only be a recovery re-send whose
    /// original was already served, and its result still sits in the
    /// send slot. TCP posts from many host threads and may deliver
    /// seqs out of order, so it must keep this off; the local backend
    /// never re-sends, so it has nothing to drop.
    pub dedup: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        assert_eq!(frame_result(Ok(vec![1, 2])), vec![0, 1, 2]);
        assert_eq!(unframe_result_ref(&[0, 1, 2]).unwrap(), [1, 2]);
        let err = frame_result(Err(HamError::UnknownKey(5)));
        let mut expect = vec![1u8];
        expect.extend_from_slice(HamError::UnknownKey(5).to_string().as_bytes());
        assert_eq!(err, expect);
        assert!(unframe_result_ref(&err)
            .unwrap_err()
            .contains("unknown handler key 5"));
        assert!(unframe_result_ref(&[]).is_err());
        assert!(unframe_result_ref(&[9]).is_err());
    }

    #[test]
    fn write_framed_appends_and_rolls_back_a_failed_write() {
        let mut out = vec![7u8];
        write_framed(&mut out, |o| {
            o.extend_from_slice(&[1, 2]);
            Ok(())
        });
        assert_eq!(out, [7, 0, 1, 2]);
        write_framed(&mut out, |o| {
            o.extend_from_slice(&[9; 5]);
            Err(HamError::UnknownKey(5))
        });
        assert_eq!(out[..4], [7, 0, 1, 2], "earlier frames untouched");
        assert_eq!(out[4..], frame_result(Err(HamError::UnknownKey(5)))[..]);
    }
}
