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
//! `frame_result` wire helpers.

use crate::chan::pool::{FramePool, PooledFrame};
use crate::device::{DeviceConfig, DeviceRuntime};
use ham::wire::MsgHeader;
use ham::{HamError, Registry, TargetMemory};
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
/// Bodies are returned as [`PooledFrame`]s checked out of the device
/// runtime's [`FramePool`], so the warm receive path recycles buffers
/// instead of allocating one per message.
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
    /// `reply_slot` and sequence number `seq`. Takes ownership so
    /// in-process transports deposit the buffer without another copy.
    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>);
}

/// Frame a handler outcome for the wire: `0x00 ‖ bytes` on success,
/// `0x01 ‖ utf-8 message` on failure.
pub fn frame_result(result: Result<Vec<u8>, HamError>) -> Vec<u8> {
    match result {
        Ok(mut bytes) => {
            let mut out = Vec::with_capacity(bytes.len() + 1);
            out.push(0);
            out.append(&mut bytes);
            out
        }
        Err(e) => {
            let msg = e.to_string();
            let mut out = Vec::with_capacity(msg.len() + 1);
            out.push(1);
            out.extend_from_slice(msg.as_bytes());
            out
        }
    }
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

/// Undo [`frame_result`]; the owning variant of
/// [`unframe_result_ref`], kept for callers that need the bytes
/// detached from the frame.
pub fn unframe_result(bytes: &[u8]) -> Result<Vec<u8>, String> {
    unframe_result_ref(bytes).map(<[u8]>::to_vec)
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

/// Assemble a result wire frame — [`result_header`] ‖ `payload`.
pub fn result_wire_frame(reply_slot: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
    let header = result_header(reply_slot, seq, payload.len());
    let mut bytes = Vec::with_capacity(ham::wire::HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&header.encode());
    bytes.extend_from_slice(payload);
    bytes
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
    /// send slot. Push transports (local, TCP) post from many host
    /// threads and may deliver seqs out of order, so they must keep
    /// this off (they do not re-send frames either).
    pub dedup: bool,
}

/// Run the message loop for one target until a `Control` message or
/// channel shutdown, on a default-configured [`DeviceRuntime`].
/// Returns the number of offloads served.
pub fn run_target_loop(
    node: u16,
    registry: &Registry,
    mem: &dyn TargetMemory,
    chan: &dyn TargetChannel,
) -> u64 {
    run_target_loop_env(
        &TargetEnv {
            node,
            registry,
            mem,
            reverse: None,
            meter: None,
            dedup: false,
        },
        chan,
    )
}

/// The fully-general message loop over a [`TargetEnv`]: a
/// default-configured [`DeviceRuntime`] ([`crate::device::DEFAULT_LANES`]
/// lanes, no clock, no lane registers).
pub fn run_target_loop_env(env: &TargetEnv<'_>, chan: &dyn TargetChannel) -> u64 {
    DeviceRuntime::new(DeviceConfig::new()).run(env, chan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::batch;
    use ham::message::VecMemory;
    use ham::registry::HandlerKey;
    use ham::wire::MsgKind;
    use ham::{f2f, ham_kernel, RegistryBuilder};
    use parking_lot::Mutex;
    use std::collections::VecDeque;

    ham_kernel! {
        pub fn add(_ctx, a: u64, b: u64) -> u64 { a + b }
    }

    struct QueueChannel {
        inbox: Mutex<VecDeque<(MsgHeader, Vec<u8>)>>,
        outbox: Mutex<Vec<(u16, u64, Vec<u8>)>>,
    }

    impl TargetChannel for QueueChannel {
        fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
            self.inbox
                .lock()
                .pop_front()
                .map(|(h, p)| (h, pool.adopt(p)))
        }
        fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
            match self.inbox.lock().pop_front() {
                Some((h, p)) => Polled::Msg(h, pool.adopt(p)),
                None => Polled::Closed,
            }
        }
        fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
            self.outbox.lock().push((reply_slot, seq, payload));
        }
    }

    fn header(kind: MsgKind, key: HandlerKey, len: usize, slot: u16, seq: u64) -> MsgHeader {
        MsgHeader {
            handler_key: key,
            payload_len: len as u32,
            kind,
            reply_slot: slot,
            corr: 0,
            seq,
        }
    }

    #[test]
    fn frame_round_trip() {
        assert_eq!(frame_result(Ok(vec![1, 2])), vec![0, 1, 2]);
        assert_eq!(unframe_result(&[0, 1, 2]).unwrap(), vec![1, 2]);
        let err = frame_result(Err(HamError::UnknownKey(5)));
        assert!(unframe_result(&err)
            .unwrap_err()
            .contains("unknown handler key 5"));
        assert!(unframe_result(&[]).is_err());
        assert!(unframe_result(&[9]).is_err());
    }

    #[test]
    fn loop_serves_offloads_then_stops_on_control() {
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();

        let payload = ham::codec::encode(&f2f!(add, 20, 22)).unwrap();
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![
                (
                    header(MsgKind::Offload, key, payload.len(), 3, 100),
                    payload.clone(),
                ),
                (
                    header(MsgKind::Offload, key, payload.len(), 4, 101),
                    payload,
                ),
                (header(MsgKind::Control, HandlerKey(0), 0, 0, 102), vec![]),
            ])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        let served = run_target_loop(1, &registry, &mem, &chan);
        assert_eq!(served, 2);
        let out = chan.outbox.lock();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 3);
        assert_eq!(out[0].1, 100);
        let bytes = unframe_result(&out[0].2).unwrap();
        assert_eq!(ham::codec::decode::<u64>(&bytes).unwrap(), 42);
    }

    #[test]
    fn handler_errors_travel_as_error_frames() {
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();
        // Corrupt payload → codec error inside the handler.
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![(
                header(MsgKind::Offload, key, 3, 0, 0),
                vec![1, 2, 3],
            )])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        run_target_loop(1, &registry, &mem, &chan);
        let out = chan.outbox.lock();
        assert!(unframe_result(&out[0].2).is_err());
    }

    #[test]
    fn dedup_skips_resent_seqs_without_reexecuting() {
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();
        let payload = ham::codec::encode(&f2f!(add, 1, 2)).unwrap();
        let mk = |seq| {
            (
                header(MsgKind::Offload, key, payload.len(), 0, seq),
                payload.clone(),
            )
        };
        let chan = QueueChannel {
            // seq 0 served, then a duplicate of 0, then 1, then a late
            // duplicate of 0 again.
            inbox: Mutex::new(VecDeque::from(vec![mk(0), mk(0), mk(1), mk(0)])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry: &registry,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup: true,
        };
        assert_eq!(run_target_loop_env(&env, &chan), 2);
        let out = chan.outbox.lock();
        assert_eq!(out.iter().map(|o| o.1).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn batch_envelope_executes_members_in_order_with_one_result() {
        use ham::wire::HEADER_BYTES;
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();
        // Envelope of two adds with seqs 10 and 11 (carrier seq = 11).
        let mut frame = vec![0u8; HEADER_BYTES + batch::COUNT_BYTES];
        for (seq, a) in [(10u64, 1u64), (11, 2)] {
            let payload = ham::codec::encode(&f2f!(add, a, 100)).unwrap();
            let sub = MsgHeader {
                handler_key: key,
                payload_len: payload.len() as u32,
                kind: MsgKind::Offload,
                reply_slot: 0,
                corr: seq,
                seq,
            };
            batch::append_sub(&mut frame, &sub, &payload);
        }
        let carrier = batch::carrier_header(11, frame.len() - HEADER_BYTES, 5, 10);
        batch::patch_envelope(&mut frame, &carrier, 2);
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![(
                carrier,
                frame[HEADER_BYTES..].to_vec(),
            )])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        assert_eq!(run_target_loop(1, &registry, &mem, &chan), 2);
        let out = chan.outbox.lock();
        assert_eq!(out.len(), 1, "one result message for the whole batch");
        assert_eq!((out[0].0, out[0].1), (5, 11));
        let body = unframe_result(&out[0].2).unwrap();
        let parts: Vec<_> = batch::ResultPartIter::new(&body)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(parts.len(), 2);
        for (i, expect) in [(0usize, 101u64), (1, 102)] {
            let (seq, framed) = parts[i];
            assert_eq!(seq, 10 + i as u64);
            let bytes = unframe_result(framed).unwrap();
            assert_eq!(ham::codec::decode::<u64>(&bytes).unwrap(), expect);
        }
    }

    #[test]
    fn malformed_batch_is_rejected_wholesale() {
        let registry = RegistryBuilder::new().seal(0);
        let carrier = batch::carrier_header(3, 4, 0, 0);
        // Count claims one sub but no bytes follow.
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![(carrier, 1u32.to_le_bytes().to_vec())])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        assert_eq!(run_target_loop(1, &registry, &mem, &chan), 0);
        let out = chan.outbox.lock();
        assert_eq!(out.len(), 1);
        assert!(unframe_result(&out[0].2).is_err(), "error frame");
    }

    #[test]
    fn loop_survives_malformed_batch_and_keeps_serving() {
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();
        // A lying envelope (count = 2, one truncated sub) followed by a
        // well-formed plain offload: the loop must answer the first with
        // an error frame and still serve the second.
        let mut hostile = 2u32.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0xAB; 7]);
        let payload = ham::codec::encode(&f2f!(add, 40, 2)).unwrap();
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![
                (batch::carrier_header(5, hostile.len(), 1, 0), hostile),
                (header(MsgKind::Offload, key, payload.len(), 2, 6), payload),
            ])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        assert_eq!(run_target_loop(1, &registry, &mem, &chan), 1);
        let out = chan.outbox.lock();
        assert_eq!(out.len(), 2);
        assert!(unframe_result(&out[0].2).is_err(), "hostile batch errors");
        let bytes = unframe_result(&out[1].2).unwrap();
        assert_eq!(ham::codec::decode::<u64>(&bytes).unwrap(), 42);
    }

    #[test]
    fn dedup_skips_resent_batches_atomically() {
        let mut b = RegistryBuilder::new();
        b.register::<add>();
        let registry = b.seal(7);
        let key = registry.key_of::<add>().unwrap();
        let mut frame = vec![0u8; ham::wire::HEADER_BYTES + batch::COUNT_BYTES];
        for seq in [0u64, 1] {
            let payload = ham::codec::encode(&f2f!(add, seq, 1)).unwrap();
            let sub = MsgHeader {
                handler_key: key,
                payload_len: payload.len() as u32,
                kind: MsgKind::Offload,
                reply_slot: 0,
                corr: 0,
                seq,
            };
            batch::append_sub(&mut frame, &sub, &payload);
        }
        let carrier = batch::carrier_header(1, frame.len() - ham::wire::HEADER_BYTES, 0, 0);
        batch::patch_envelope(&mut frame, &carrier, 2);
        let envelope = (carrier, frame[ham::wire::HEADER_BYTES..].to_vec());
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::from(vec![envelope.clone(), envelope])),
            outbox: Mutex::new(vec![]),
        };
        let mem = VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry: &registry,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup: true,
        };
        assert_eq!(run_target_loop_env(&env, &chan), 2, "duplicate skipped");
        assert_eq!(chan.outbox.lock().len(), 1);
    }

    #[test]
    fn empty_channel_ends_loop() {
        let chan = QueueChannel {
            inbox: Mutex::new(VecDeque::new()),
            outbox: Mutex::new(vec![]),
        };
        let registry = RegistryBuilder::new().seal(0);
        let mem = VecMemory::new(0);
        assert_eq!(run_target_loop(1, &registry, &mem, &chan), 0);
    }
}
