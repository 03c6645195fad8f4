//! In-flight bookkeeping: one `FrameRecord` per frame on the wire,
//! in a table ordered by sequence number (`SeqTable`, which also
//! holds the channel's parked completions).

use super::recovery::StoredFrame;
use aurora_sim_core::SimTime;
use std::collections::VecDeque;

/// What the channel tells a transport about one in-flight frame.
#[derive(Clone, Copy, Debug)]
pub struct PendingEntry {
    /// Receive slot (VH → VE message) the offload occupies.
    pub(crate) recv_slot: usize,
    /// Send slot (VE → VH result) reserved for its reply.
    pub send_slot: usize,
    /// Telemetry correlation id ([`aurora_telemetry::OffloadId`])
    /// — completions harvested on another future's poll are still
    /// attributed to *their* span tree.
    pub(crate) offload: u64,
    /// Virtual post time, for the completion-latency metric.
    pub(crate) posted_at: SimTime,
    /// Wire bytes the offload occupies (header + payload; the whole
    /// frame for a batch carrier) — feeds the channel's bytes-in-flight
    /// gauge the scheduler's weighted policy reads.
    pub(crate) bytes: u64,
}

/// Everything the channel holds for one in-flight frame. It leaves the
/// table through `ChanState::retire` only, and whatever it owns (the
/// stored wire image, the member list) goes with it.
#[derive(Debug)]
pub(super) struct FrameRecord {
    pub(crate) entry: PendingEntry,
    /// Member seqs of a batch carrier in wire order; empty for a plain
    /// frame.
    pub(crate) members: Vec<u64>,
    /// The wire image and its deadline counters, kept only while a
    /// [`super::RecoveryPolicy`] is armed and the frame is retryable.
    pub(crate) stored: Option<StoredFrame>,
    /// A sweeping thread took this completion and is fetching the
    /// result outside the lock; nobody else may complete or fail it.
    pub(crate) claimed: bool,
}

impl FrameRecord {
    #[inline]
    pub(super) fn new(entry: PendingEntry, members: Vec<u64>) -> Self {
        FrameRecord {
            entry,
            members,
            stored: None,
            claimed: false,
        }
    }

    /// Messages the frame carries (a plain frame is one).
    pub(super) fn msgs(&self) -> usize {
        self.members.len().max(1)
    }
}

/// A table keyed by sequence number, kept sorted in a `VecDeque`: seqs
/// are minted in increasing order, so an insert is a `push_back` unless
/// a batch carrier was flushed late, the oldest entries leave first, so
/// a removal is near the front, and iterating is already the seq order
/// a flag sweep needs. The buffer keeps its capacity, so a warm channel
/// allocates nothing per insert (a `BTreeMap` would, and a `HashMap`
/// hashes every access and needs a sort per sweep).
#[derive(Debug)]
pub(super) struct SeqTable<T> {
    entries: VecDeque<(u64, T)>,
}

impl<T> Default for SeqTable<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
        }
    }
}

impl<T> SeqTable<T> {
    fn position(&self, seq: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&seq, |(s, _)| *s)
    }

    /// Store `value` under `seq`; returns what was stored there before.
    #[inline]
    pub(super) fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if self.entries.back().is_none_or(|(last, _)| *last < seq) {
            self.entries.push_back((seq, value));
            return None;
        }
        match self.position(seq) {
            Ok(at) => Some(core::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (seq, value));
                None
            }
        }
    }

    /// Take the entry of `seq` out if `take` accepts it.
    #[inline]
    pub(crate) fn remove_if(&mut self, seq: u64, take: impl FnOnce(&T) -> bool) -> Option<T> {
        let at = self.position(seq).ok()?;
        if !take(&self.entries[at].1) {
            return None;
        }
        let (_, value) = match at {
            0 => self.entries.pop_front()?,
            _ => self.entries.remove(at)?,
        };
        Some(value)
    }

    /// Take the entry of `seq` out.
    #[inline]
    pub(super) fn remove(&mut self, seq: u64) -> Option<T> {
        self.remove_if(seq, |_| true)
    }

    /// The entry of `seq`.
    pub(super) fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let at = self.position(seq).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Every entry, in seq order.
    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.entries.iter_mut().map(|(s, v)| (*s, v))
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The in-flight table of one channel: a [`SeqTable`] of frame records
/// plus the message and byte counts the scheduler reads.
#[derive(Debug, Default)]
pub(super) struct InFlight {
    frames: SeqTable<FrameRecord>,
    msgs: usize,
    bytes: u64,
}

// A record is ~150 bytes; `insert`/`remove` (and `FrameRecord::new`) are
// `#[inline]` so it is built and taken apart in place instead of being
// copied through each call on the post → complete path.
impl InFlight {
    /// Record an in-flight frame under its (fresh) seq.
    #[inline]
    pub(super) fn insert(&mut self, seq: u64, rec: FrameRecord) {
        self.msgs += rec.msgs();
        self.bytes += rec.entry.bytes;
        let reused = self.frames.insert(seq, rec).is_some();
        assert!(!reused, "seqs are never reused");
    }

    /// Take a frame out of the table if its `claimed` state is the one
    /// the caller expects; `None` if it already left or belongs to the
    /// other side.
    #[inline]
    pub(super) fn remove(&mut self, seq: u64, claimed: bool) -> Option<FrameRecord> {
        let rec = self.frames.remove_if(seq, |r| r.claimed == claimed)?;
        self.msgs -= rec.msgs();
        self.bytes -= rec.entry.bytes;
        Some(rec)
    }

    /// The record of `seq`, unless it left or a sweeper claimed it.
    pub(crate) fn unclaimed_mut(&mut self, seq: u64) -> Option<&mut FrameRecord> {
        self.frames.get_mut(seq).filter(|r| !r.claimed)
    }

    /// Every frame nobody has claimed yet, in seq order.
    pub(crate) fn unclaimed(&mut self) -> impl Iterator<Item = (u64, &mut FrameRecord)> {
        self.frames.iter_mut().filter(|(_, r)| !r.claimed)
    }

    /// Messages carried by the frames in the table.
    pub(super) fn msgs(&self) -> usize {
        self.msgs
    }

    /// Wire bytes of the frames in the table.
    pub(super) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(super) fn len(&self) -> usize {
        self.frames.len()
    }
}
