//! In-flight bookkeeping: one [`FrameRecord`] per frame on the wire,
//! in a table ordered by sequence number.

use super::recovery::StoredFrame;
use aurora_sim_core::SimTime;
use std::collections::VecDeque;

/// What the channel tells a transport about one in-flight frame.
#[derive(Clone, Copy, Debug)]
pub struct PendingEntry {
    /// Receive slot (VH → VE message) the offload occupies.
    pub recv_slot: usize,
    /// Send slot (VE → VH result) reserved for its reply.
    pub send_slot: usize,
    /// Telemetry correlation id ([`aurora_sim_core::trace::OffloadId`])
    /// — completions harvested on another future's poll are still
    /// attributed to *their* span tree.
    pub offload: u64,
    /// Virtual post time, for the completion-latency metric.
    pub posted_at: SimTime,
    /// Wire bytes the offload occupies (header + payload; the whole
    /// frame for a batch carrier) — feeds the channel's bytes-in-flight
    /// gauge the scheduler's weighted policy reads.
    pub bytes: u64,
}

/// Everything the channel holds for one in-flight frame. It leaves the
/// table through `ChanState::retire` only, and whatever it owns (the
/// stored wire image, the member list) goes with it.
#[derive(Debug)]
pub(super) struct FrameRecord {
    pub entry: PendingEntry,
    /// Member seqs of a batch carrier in wire order; empty for a plain
    /// frame.
    pub members: Vec<u64>,
    /// The wire image and its deadline counters, kept only while a
    /// [`super::RecoveryPolicy`] is armed and the frame is retryable.
    pub stored: Option<StoredFrame>,
    /// A sweeping thread took this completion and is fetching the
    /// result outside the lock; nobody else may complete or fail it.
    pub claimed: bool,
}

impl FrameRecord {
    #[inline]
    pub fn new(entry: PendingEntry, members: Vec<u64>) -> Self {
        FrameRecord {
            entry,
            members,
            stored: None,
            claimed: false,
        }
    }

    /// Messages the frame carries (a plain frame is one).
    pub fn msgs(&self) -> usize {
        self.members.len().max(1)
    }
}

/// The in-flight table of one channel, kept sorted by seq in a
/// `VecDeque`: seqs are minted in increasing order, so an insert is a
/// `push_back` unless a batch carrier was flushed late, the oldest
/// frames complete first, so a removal is near the front, and iterating
/// is already the seq order a flag sweep needs. The buffer keeps its
/// capacity, so a warm channel allocates nothing per insert (a
/// `BTreeMap` would, a `HashMap` needs a sort per sweep).
#[derive(Debug, Default)]
pub(super) struct InFlight {
    frames: VecDeque<(u64, FrameRecord)>,
    msgs: usize,
    bytes: u64,
}

// A record is ~150 bytes; `insert`/`remove` (and `FrameRecord::new`) are
// `#[inline]` so it is built and taken apart in place instead of being
// copied through each call on the post → complete path.
impl InFlight {
    fn position(&self, seq: u64) -> Result<usize, usize> {
        self.frames.binary_search_by_key(&seq, |(s, _)| *s)
    }

    /// Record an in-flight frame under its (fresh) seq.
    #[inline]
    pub fn insert(&mut self, seq: u64, rec: FrameRecord) {
        self.msgs += rec.msgs();
        self.bytes += rec.entry.bytes;
        if self.frames.back().is_none_or(|(last, _)| *last < seq) {
            self.frames.push_back((seq, rec));
        } else {
            let at = self.position(seq).expect_err("seqs are never reused");
            self.frames.insert(at, (seq, rec));
        }
    }

    /// Take a frame out of the table if its `claimed` state is the one
    /// the caller expects; `None` if it already left or belongs to the
    /// other side.
    #[inline]
    pub fn remove(&mut self, seq: u64, claimed: bool) -> Option<FrameRecord> {
        let at = self.position(seq).ok()?;
        if self.frames[at].1.claimed != claimed {
            return None;
        }
        let (_, rec) = match at {
            0 => self.frames.pop_front()?,
            _ => self.frames.remove(at)?,
        };
        self.msgs -= rec.msgs();
        self.bytes -= rec.entry.bytes;
        Some(rec)
    }

    /// The record of `seq`, unless it left or a sweeper claimed it.
    pub fn unclaimed_mut(&mut self, seq: u64) -> Option<&mut FrameRecord> {
        let at = self.position(seq).ok()?;
        Some(&mut self.frames[at].1).filter(|r| !r.claimed)
    }

    /// Every frame nobody has claimed yet, in seq order.
    pub fn unclaimed(&mut self) -> impl Iterator<Item = (u64, &mut FrameRecord)> {
        self.frames
            .iter_mut()
            .filter(|(_, r)| !r.claimed)
            .map(|(s, r)| (*s, r))
    }

    /// Messages carried by the frames in the table.
    pub fn msgs(&self) -> usize {
        self.msgs
    }

    /// Wire bytes of the frames in the table.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }
}
