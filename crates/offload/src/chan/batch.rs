//! The multi-message batch envelope (`MsgKind::Batch`).
//!
//! Deep pipelines used to pay one slot reservation, one `send_frame`,
//! one transport transaction and one flag poll *per message*. Batching
//! coalesces consecutive `post()`s to the same target into one wire
//! frame:
//!
//! ```text
//! carrier header (32 B, kind = Batch, seq = last member's seq)
//! u32 count
//! count × [ sub-header (32 B, kind = Offload, own seq/corr/key) ‖ payload ]
//! ```
//!
//! The target executes the sub-messages in order and answers with **one**
//! result message whose payload (inside the usual `frame_result`
//! success wrapper) is:
//!
//! ```text
//! u32 count
//! count × [ u64 seq ‖ u32 len ‖ len × framed per-sub result ]
//! ```
//!
//! Each per-sub part is itself a `frame_result` output, so a claimed
//! batch member completion is indistinguishable from a singleton one.
//! The carrier's `seq` is the *last* member's, which keeps the dedup
//! watermark sound: serving a batch advances the watermark past every
//! member, and a retried carrier frame compares against it atomically.

use crate::chan::config::ProtocolConfig;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};

/// Length of the `u32 count` field that follows the carrier header.
pub(crate) const COUNT_BYTES: usize = 4;

/// Batching watermarks, configured per channel via
/// [`ProtocolConfig::batch`] (VEO and DMA), `LocalBackend::spawn_batched`
/// or the `batch` argument of `TcpBackend::spawn_cluster`. Disabled by
/// default: `max_msgs == 1` posts every message as its own frame,
/// byte-identical to the pre-batching wire traffic.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Flush once this many messages are staged, or earlier when the
    /// next one would not fit the transport's message slot (the byte
    /// budget of an envelope is the slot size). `1` disables batching.
    pub max_msgs: usize,
    /// Latency SLO: hard bound on how long (virtual µs) a staged
    /// message may sit in the accumulator. Staging past the bound trips
    /// an immediate flush, and the engine's flag sweep force-flushes any
    /// envelope older than it, so a lone small probe never waits behind
    /// a filling batch. `0` (the default) disables the bound and keeps
    /// the wire traffic byte-identical to the static config.
    pub slo_micros: u64,
    /// Arm the adaptive watermark controller (the `chan::adaptive` module):
    /// the effective `max_msgs`/byte watermarks are tuned per channel
    /// between 1 and the configured values from the observed flush
    /// latency histogram — deep pipelines widen, latency-sensitive
    /// traffic narrows. Off by default; the static watermarks then
    /// apply verbatim.
    pub adaptive: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_msgs: 1,
            slo_micros: 0,
            adaptive: false,
        }
    }
}

impl BatchConfig {
    /// A config that coalesces up to `max_msgs` messages per frame.
    pub fn up_to(max_msgs: usize) -> Self {
        Self {
            max_msgs: max_msgs.max(1),
            ..Self::default()
        }
    }

    /// Builder: bound time-in-accumulator to `slo_micros` of virtual
    /// time (0 removes the bound).
    pub fn with_slo_micros(mut self, slo_micros: u64) -> Self {
        self.slo_micros = slo_micros;
        self
    }

    /// Builder: arm the adaptive watermark controller. The configured
    /// `max_msgs` and the slot-size byte budget become the controller's
    /// *ceiling*.
    pub(crate) fn self_tuning(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// The full adaptive configuration in one call: coalesce up to
    /// `max_msgs`, bound staged age to `slo_micros`, controller armed.
    pub fn adaptive_up_to(max_msgs: usize, slo_micros: u64) -> Self {
        Self::up_to(max_msgs)
            .with_slo_micros(slo_micros)
            .self_tuning()
    }

    /// Whether batching is on at all.
    pub(crate) fn enabled(&self) -> bool {
        self.max_msgs > 1
    }
}

/// Re-export home: the protocol config carries one of these.
impl ProtocolConfig {
    /// Builder helper: same config with batching watermarks set.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }
}

/// Append one sub-message (header ‖ payload) to a staged envelope frame.
pub fn append_sub(frame: &mut Vec<u8>, header: &MsgHeader, payload: &[u8]) {
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(payload);
}

/// Split a little-endian `u32` off the front of wire bytes — fully
/// bounds-checked: hostile or truncated frames must surface decode
/// errors, never panic the host or target loop.
fn read_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let head = bytes.get(..4)?;
    let rest = bytes.get(4..)?;
    let mut arr = [0u8; 4];
    arr.copy_from_slice(head);
    Some((u32::from_le_bytes(arr), rest))
}

/// [`read_u32`] for a little-endian `u64`.
fn read_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let head = bytes.get(..8)?;
    let rest = bytes.get(8..)?;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(head);
    Some((u64::from_le_bytes(arr), rest))
}

/// Patch the carrier header and count into a finished envelope frame
/// (laid out as 32 zero bytes ‖ 4 zero bytes ‖ subs by the stager).
pub(crate) fn patch_envelope(frame: &mut [u8], carrier: &MsgHeader, count: u32) {
    frame[..HEADER_BYTES].copy_from_slice(&carrier.encode());
    frame[HEADER_BYTES..HEADER_BYTES + COUNT_BYTES].copy_from_slice(&count.to_le_bytes());
}

/// Iterate the sub-messages of a batch envelope *payload* (the bytes
/// after the carrier header). Yields `(sub_header, sub_payload)`;
/// malformed envelopes yield one `Err`.
pub struct BatchIter<'a> {
    rest: &'a [u8],
    remaining: u32,
    poisoned: bool,
}

impl<'a> BatchIter<'a> {
    /// Parse the count prefix; `payload` is the carrier's payload.
    pub fn new(payload: &'a [u8]) -> Result<Self, String> {
        let Some((count, rest)) = read_u32(payload) else {
            return Err("batch payload shorter than its count field".into());
        };
        Ok(Self {
            rest,
            remaining: count,
            poisoned: false,
        })
    }

    /// Sub-messages announced by the count prefix. (Named to avoid
    /// shadowing the consuming `Iterator::count`.)
    pub fn announced(&self) -> u32 {
        self.remaining
    }
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Result<(MsgHeader, &'a [u8]), String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let header = match MsgHeader::decode(self.rest) {
            Ok(h) => h,
            Err(e) => {
                self.poisoned = true;
                return Some(Err(format!("malformed batch sub-header: {e}")));
            }
        };
        // payload_len is wire-controlled: checked add + checked slicing,
        // or the frame is rejected.
        let end = HEADER_BYTES.checked_add(header.payload_len as usize);
        let split = end.and_then(|e| Some((self.rest.get(HEADER_BYTES..e)?, self.rest.get(e..)?)));
        let Some((payload, rest)) = split else {
            self.poisoned = true;
            return Some(Err("batch sub-payload truncated".into()));
        };
        self.rest = rest;
        Some(Ok((header, payload)))
    }
}

/// Parse a batch envelope payload into `out` (cleared first) as
/// `(sub_header, payload_range)` pairs whose ranges index into
/// `payload` — the borrow-free counterpart of [`BatchIter`] for runtimes
/// that schedule members out of line and need offsets rather than
/// slices. `out` is the caller's, so a reused vector makes parsing a
/// warm carrier allocation-free; the wire count never sizes it.
///
/// `out` ends holding the well-formed prefix; the return value is the
/// wire error that stopped parsing, if any. A top-level `Err` means even
/// the count field was missing. Error strings match [`BatchIter`]'s so
/// hostile envelopes produce identical error frames whichever parser a
/// runtime uses.
pub(crate) fn member_ranges(
    payload: &[u8],
    out: &mut Vec<(MsgHeader, core::ops::Range<usize>)>,
) -> Result<Option<String>, String> {
    out.clear();
    let Some((count, _)) = read_u32(payload) else {
        return Err("batch payload shorter than its count field".into());
    };
    let mut pos = COUNT_BYTES;
    for _ in 0..count {
        let rest = &payload[pos..];
        let header = match MsgHeader::decode(rest) {
            Ok(h) => h,
            Err(e) => return Ok(Some(format!("malformed batch sub-header: {e}"))),
        };
        let end = HEADER_BYTES.checked_add(header.payload_len as usize);
        let valid = end.and_then(|e| {
            rest.get(HEADER_BYTES..e)?;
            Some(e)
        });
        let Some(end) = valid else {
            return Ok(Some("batch sub-payload truncated".into()));
        };
        out.push((header, pos + HEADER_BYTES..pos + end));
        pos += end;
    }
    Ok(None)
}

/// Truncate a *staged* envelope frame (32 zeroed header bytes ‖ 4 zeroed
/// count bytes ‖ subs) down to its first `keep` sub-messages, dropping
/// the tail — the splitting half of staged-member migration. Staged
/// frames are host-built, so a malformed walk is a logic error.
pub(crate) fn truncate_members(frame: &mut Vec<u8>, keep: usize) -> Result<(), String> {
    let mut pos = HEADER_BYTES + COUNT_BYTES;
    for i in 0..keep {
        let rest = frame
            .get(pos..)
            .ok_or_else(|| format!("staged envelope ends before member {i}"))?;
        let h = MsgHeader::decode(rest).map_err(|e| format!("staged member {i}: {e}"))?;
        pos += HEADER_BYTES + h.payload_len as usize;
    }
    if pos > frame.len() {
        return Err(format!("staged envelope ends inside member {}", keep - 1));
    }
    frame.truncate(pos);
    Ok(())
}

/// Start a batch *result* body: the count prefix.
pub fn begin_result(out: &mut Vec<u8>, count: u32) {
    out.extend_from_slice(&count.to_le_bytes());
}

/// Bytes [`append_result_part`] writes ahead of each part: `u64 seq ‖
/// u32 len`.
pub(crate) const PART_PREFIX_BYTES: usize = 12;

/// Append one sub-result (`seq` ‖ length-prefixed framed result bytes)
/// to a batch result body.
pub fn append_result_part(out: &mut Vec<u8>, seq: u64, part: &[u8]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(part.len() as u32).to_le_bytes());
    out.extend_from_slice(part);
}

/// Iterate the `(seq, framed result bytes)` parts of a batch result
/// body. Allocation-free; malformed bodies yield one `Err`.
pub(crate) struct ResultPartIter<'a> {
    rest: &'a [u8],
    remaining: u32,
    poisoned: bool,
}

impl<'a> ResultPartIter<'a> {
    /// Parse the count prefix of a result body.
    pub(crate) fn new(body: &'a [u8]) -> Result<Self, String> {
        let Some((count, rest)) = read_u32(body) else {
            return Err("batch result shorter than its count field".into());
        };
        Ok(Self {
            rest,
            remaining: count,
            poisoned: false,
        })
    }
}

impl<'a> Iterator for ResultPartIter<'a> {
    type Item = Result<(u64, &'a [u8]), String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let Some((seq, (len, after_len))) =
            read_u64(self.rest).and_then(|(seq, r)| Some((seq, read_u32(r)?)))
        else {
            self.poisoned = true;
            return Some(Err("batch result part truncated".into()));
        };
        let len = len as usize;
        let (Some(part), Some(rest)) = (after_len.get(..len), after_len.get(len..)) else {
            self.poisoned = true;
            return Some(Err("batch result bytes truncated".into()));
        };
        self.rest = rest;
        Some(Ok((seq, part)))
    }
}

/// The carrier header of a finished envelope.
pub fn carrier_header(seq: u64, payload_len: usize, reply_slot: u16, corr: u64) -> MsgHeader {
    MsgHeader {
        handler_key: ham::registry::HandlerKey(0),
        payload_len: payload_len as u32,
        kind: MsgKind::Batch,
        reply_slot,
        corr,
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::registry::HandlerKey;

    fn sub(seq: u64, payload: &[u8]) -> MsgHeader {
        MsgHeader {
            handler_key: HandlerKey(40 + seq),
            payload_len: payload.len() as u32,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: 7,
            seq,
        }
    }

    #[test]
    fn envelope_round_trip() {
        let mut frame = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        append_sub(&mut frame, &sub(0, b"aa"), b"aa");
        append_sub(&mut frame, &sub(1, b"bbbb"), b"bbbb");
        let carrier = carrier_header(1, frame.len() - HEADER_BYTES, 3, 7);
        patch_envelope(&mut frame, &carrier, 2);
        let decoded = MsgHeader::decode(&frame).unwrap();
        assert_eq!(decoded, carrier);
        assert_eq!(decoded.kind, MsgKind::Batch);
        let subs: Vec<_> = BatchIter::new(&frame[HEADER_BYTES..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0.seq, 0);
        assert_eq!(subs[0].1, b"aa");
        assert_eq!(subs[1].0.seq, 1);
        assert_eq!(subs[1].1, b"bbbb");
    }

    #[test]
    fn truncated_envelope_is_an_error() {
        assert!(BatchIter::new(&[1, 0]).is_err());
        // Count says one message but no bytes follow.
        let payload = 1u32.to_le_bytes();
        let mut it = BatchIter::new(&payload).unwrap();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "poisoned iterators stop");
    }

    #[test]
    fn result_body_round_trip() {
        let mut body = Vec::new();
        begin_result(&mut body, 2);
        append_result_part(&mut body, 4, &[0, 9]);
        append_result_part(&mut body, 5, &[1, b'x']);
        let parts: Vec<_> = ResultPartIter::new(&body)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(parts, vec![(4, &[0u8, 9][..]), (5, &[1u8, b'x'][..])]);
    }

    #[test]
    fn truncated_result_is_an_error() {
        assert!(ResultPartIter::new(&[2]).is_err());
        let mut body = Vec::new();
        begin_result(&mut body, 1);
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&100u32.to_le_bytes()); // claims 100 bytes
        let mut it = ResultPartIter::new(&body).unwrap();
        assert!(it.next().unwrap().is_err());
    }

    #[test]
    fn hostile_frames_error_instead_of_panicking() {
        // Sub-header lies about its payload length.
        let mut frame = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        let lying = MsgHeader {
            payload_len: 1_000_000,
            ..sub(0, b"aa")
        };
        frame.extend_from_slice(&lying.encode());
        frame.extend_from_slice(b"aa");
        let carrier = carrier_header(0, frame.len() - HEADER_BYTES, 0, 7);
        patch_envelope(&mut frame, &carrier, 1);
        let mut it = BatchIter::new(&frame[HEADER_BYTES..]).unwrap();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
        // Count field claims more messages than bytes provide.
        let mut short = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        append_sub(&mut short, &sub(0, b"aa"), b"aa");
        let short_carrier = carrier_header(0, short.len() - HEADER_BYTES, 0, 7);
        patch_envelope(&mut short, &short_carrier, 9);
        let results: Vec<_> = BatchIter::new(&short[HEADER_BYTES..]).unwrap().collect();
        assert_eq!(results.len(), 2, "one good sub, then the error");
        assert!(results[0].is_ok() && results[1].is_err());
        // Result part whose u32 length would overflow the slice math.
        let mut body = Vec::new();
        begin_result(&mut body, 1);
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut it = ResultPartIter::new(&body).unwrap();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "poisoned after the error");
        // Pure garbage shorter than any field.
        assert!(BatchIter::new(&[7]).is_err());
        assert!(ResultPartIter::new(&[]).is_err());
        let mut it = ResultPartIter::new(&[1, 0, 0, 0, 5]).unwrap();
        assert!(it.next().unwrap().is_err());
    }

    #[test]
    fn member_ranges_mirror_batch_iter() {
        let mut frame = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        append_sub(&mut frame, &sub(0, b"aa"), b"aa");
        append_sub(&mut frame, &sub(1, b"bbbb"), b"bbbb");
        let carrier = carrier_header(1, frame.len() - HEADER_BYTES, 3, 7);
        patch_envelope(&mut frame, &carrier, 2);
        let payload = &frame[HEADER_BYTES..];
        let mut members = Vec::new();
        let err = member_ranges(payload, &mut members).unwrap();
        assert!(err.is_none());
        let via_iter: Vec<_> = BatchIter::new(payload)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(members.len(), via_iter.len());
        for ((h, range), (ih, ip)) in members.iter().zip(&via_iter) {
            assert_eq!(h, ih);
            assert_eq!(&payload[range.clone()], *ip);
        }
        // Hostile: count claims more than the bytes provide → valid
        // prefix plus the same error string BatchIter produces.
        let mut short = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        append_sub(&mut short, &sub(0, b"aa"), b"aa");
        let short_carrier = carrier_header(0, short.len() - HEADER_BYTES, 0, 7);
        patch_envelope(&mut short, &short_carrier, 9);
        // The reused vector is refilled, not appended to.
        let err = member_ranges(&short[HEADER_BYTES..], &mut members).unwrap();
        assert_eq!(members.len(), 1);
        let iter_err = BatchIter::new(&short[HEADER_BYTES..])
            .unwrap()
            .find_map(|r| r.err())
            .unwrap();
        assert_eq!(err.unwrap(), iter_err);
        // No count field at all.
        assert!(member_ranges(&[1, 0], &mut members).is_err());
        assert!(members.is_empty());
        // A count of u32::MAX over no members is truncation, and sizes
        // nothing from the claim.
        let mut fresh = Vec::new();
        let err = member_ranges(&u32::MAX.to_le_bytes(), &mut fresh).unwrap();
        assert!(err.is_some() && fresh.capacity() == 0);
    }

    #[test]
    fn truncate_members_splits_staged_envelopes() {
        let mut frame = vec![0u8; HEADER_BYTES + COUNT_BYTES];
        let payloads: [&[u8]; 3] = [b"aa", b"bbbb", b"c"];
        for (seq, p) in payloads.iter().enumerate() {
            append_sub(&mut frame, &sub(seq as u64, p), p);
        }
        let mut head = frame.clone();
        truncate_members(&mut head, 2).unwrap();
        // The kept prefix still parses as exactly two members once
        // patched into a real envelope.
        let carrier = carrier_header(1, head.len() - HEADER_BYTES, 0, 0);
        patch_envelope(&mut head, &carrier, 2);
        let subs: Vec<_> = BatchIter::new(&head[HEADER_BYTES..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[1].1, b"bbbb");
        // keep == 0 leaves just the placeholder prefix.
        let mut empty = frame.clone();
        truncate_members(&mut empty, 0).unwrap();
        assert_eq!(empty.len(), HEADER_BYTES + COUNT_BYTES);
        // Walking past the staged content is a logic error, not a panic.
        assert!(truncate_members(&mut frame.clone(), 9).is_err());
    }

    #[test]
    fn config_watermarks() {
        let off = BatchConfig::default();
        assert!(!off.enabled());
        let on = BatchConfig::up_to(16);
        assert!(on.enabled());
    }
}
