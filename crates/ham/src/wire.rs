//! The fixed on-wire message header.
//!
//! Every active message travels as `header ‖ payload`. The header is 32
//! bytes, little-endian, 8-aligned so flag words next to it stay aligned:
//!
//! ```text
//! offset  size  field
//!      0     8  handler_key   (u64)  globally valid message type id
//!      8     4  payload_len   (u32)
//!     12     2  kind          (u16)  offload / result / control
//!     14     2  reply_slot    (u16)  piggybacked buffer bookkeeping
//!     16     8  corr          (u64)  offload correlation id
//!     24     8  seq           (u64)  per-channel sequence number
//! ```
//!
//! `corr` is the telemetry correlation id (`aurora_telemetry::OffloadId`) of the
//! offload this message belongs to, carried in-band so the target side can
//! attribute its work to the same span tree the host started (0 = not part
//! of an offload). Virtual timestamps travel out-of-band through the
//! protocol flags, not here. `reply_slot` carries the "which buffer to
//! send the result to" bookkeeping the paper piggybacks onto messages and
//! flags (§III-D).

use crate::registry::HandlerKey;
use crate::HamError;

/// Size of the encoded header in bytes.
pub const HEADER_BYTES: usize = 32;

/// Message kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Host → target: execute this functor.
    Offload,
    /// Target → host: a kernel's result.
    Result,
    /// Control traffic (termination, setup).
    Control,
    /// Host → target: a coalesced envelope of several offload messages.
    /// The payload is `u32 count` followed by `count` sub-messages, each
    /// a full 32-byte header (kind `Offload`, its own `seq`) ‖ payload.
    /// One result message answers the whole batch.
    Batch,
}

impl MsgKind {
    fn to_u16(self) -> u16 {
        match self {
            MsgKind::Offload => 1,
            MsgKind::Result => 2,
            MsgKind::Control => 3,
            MsgKind::Batch => 4,
        }
    }

    fn from_u16(v: u16) -> Result<Self, HamError> {
        match v {
            1 => Ok(MsgKind::Offload),
            2 => Ok(MsgKind::Result),
            3 => Ok(MsgKind::Control),
            4 => Ok(MsgKind::Batch),
            other => Err(HamError::Wire(format!("invalid message kind {other}"))),
        }
    }
}

/// The decoded header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// Message type id (meaningless for results/control).
    pub handler_key: HandlerKey,
    /// Payload length following the header.
    pub payload_len: u32,
    /// Offload / result / control.
    pub kind: MsgKind,
    /// Which send-buffer slot the result should use (piggybacked
    /// bookkeeping).
    pub reply_slot: u16,
    /// Telemetry correlation id of the offload this message serves
    /// (0 when the message is not attributable to one).
    pub corr: u64,
    /// Per-channel sequence number.
    pub seq: u64,
}

impl MsgHeader {
    /// Encode into the fixed 32-byte layout.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&self.handler_key.0.to_le_bytes());
        out[8..12].copy_from_slice(&self.payload_len.to_le_bytes());
        out[12..14].copy_from_slice(&self.kind.to_u16().to_le_bytes());
        out[14..16].copy_from_slice(&self.reply_slot.to_le_bytes());
        out[16..24].copy_from_slice(&self.corr.to_le_bytes());
        out[24..32].copy_from_slice(&self.seq.to_le_bytes());
        out
    }

    /// Decode from a buffer beginning with a header.
    pub fn decode(bytes: &[u8]) -> Result<Self, HamError> {
        if bytes.len() < HEADER_BYTES {
            return Err(HamError::Wire(format!(
                "header needs {HEADER_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        let word = |r: core::ops::Range<usize>| -> u64 {
            let mut b = [0u8; 8];
            b[..r.len()].copy_from_slice(&bytes[r]);
            u64::from_le_bytes(b)
        };
        Ok(MsgHeader {
            handler_key: HandlerKey(word(0..8)),
            payload_len: word(8..12) as u32,
            kind: MsgKind::from_u16(word(12..14) as u16)?,
            reply_slot: word(14..16) as u16,
            corr: word(16..24),
            seq: word(24..32),
        })
    }

    /// Total wire size of a message with this header.
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> MsgHeader {
        MsgHeader {
            handler_key: HandlerKey(7),
            payload_len: 48,
            kind: MsgKind::Offload,
            reply_slot: 3,
            corr: 123_456_789,
            seq: 42,
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let bytes = h.encode();
        assert_eq!(MsgHeader::decode(&bytes).unwrap(), h);
        assert_eq!(h.wire_len(), HEADER_BYTES + 48);
    }

    #[test]
    fn decode_tolerates_trailing_payload() {
        let h = sample();
        let mut buf = h.encode().to_vec();
        buf.extend_from_slice(&[9; 48]);
        assert_eq!(MsgHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(matches!(
            MsgHeader::decode(&[0; 31]),
            Err(HamError::Wire(_))
        ));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = sample().encode();
        bytes[12] = 0xFF;
        bytes[13] = 0xFF;
        assert!(matches!(MsgHeader::decode(&bytes), Err(HamError::Wire(_))));
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            MsgKind::Offload,
            MsgKind::Result,
            MsgKind::Control,
            MsgKind::Batch,
        ] {
            let h = MsgHeader { kind, ..sample() };
            assert_eq!(MsgHeader::decode(&h.encode()).unwrap().kind, kind);
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(key: u64, len: u32, slot: u16, corr: u64, seq: u64, k in 1u16..5) {
            let h = MsgHeader {
                handler_key: HandlerKey(key),
                payload_len: len,
                kind: MsgKind::from_u16(k).unwrap(),
                reply_slot: slot,
                corr,
                seq,
            };
            prop_assert_eq!(MsgHeader::decode(&h.encode()).unwrap(), h);
        }
    }
}
