//! Transfer cost models.
//!
//! Three building blocks cover every mechanism in the paper:
//!
//! * [`LinkModel`] — the classic `latency + size/bandwidth` model of a
//!   point-to-point link.
//! * [`SegmentedModel`] — a transfer that is chopped into fixed-size
//!   segments, each paying a per-segment overhead (PCIe TLPs with 256 B
//!   max payload, VEOS DMA descriptors, page-wise address translation).
//! * [`BurstModel`] — a word stream whose first stores pipeline through
//!   the PCIe posted-write credits and whose rest runs at a throttled
//!   steady rate (the VE's SHM instruction).

use crate::time::{time_at_gib_per_sec, SimTime};

/// `latency + bytes / bandwidth` link model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way latency paid once per transfer.
    pub(crate) latency: SimTime,
    /// Sustained bandwidth in GiB/s.
    pub(crate) gib_per_sec: f64,
}

impl LinkModel {
    /// Construct a link model.
    pub fn new(latency: SimTime, gib_per_sec: f64) -> Self {
        assert!(gib_per_sec > 0.0);
        Self {
            latency,
            gib_per_sec,
        }
    }

    /// Time to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.latency + time_at_gib_per_sec(bytes, self.gib_per_sec)
    }
}

/// Segment-wise transfer: `setup + ceil(bytes/segment) * per_segment +
/// bytes / bandwidth`.
///
/// Degenerates to [`LinkModel`] when `per_segment` is zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentedModel {
    /// One-time setup cost.
    pub setup: SimTime,
    /// Segment size in bytes (e.g. 256 B PCIe TLP payload, 64 KiB DMA
    /// descriptor, 2 MiB huge page).
    pub(crate) segment_bytes: u64,
    /// Overhead paid per segment.
    pub(crate) per_segment: SimTime,
    /// Streaming bandwidth in GiB/s for the payload itself.
    pub gib_per_sec: f64,
}

impl SegmentedModel {
    /// Number of segments a transfer of `bytes` needs (at least one for a
    /// non-empty transfer).
    pub(crate) fn segments(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.segment_bytes)
        }
    }

    /// Total time to move `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.setup
            + self.per_segment * self.segments(bytes)
            + time_at_gib_per_sec(bytes, self.gib_per_sec)
    }
}

/// Piecewise-linear word-cost model used for the VE SHM (store host
/// memory) instruction stream: the first `window_words` stores pipeline
/// through the PCIe posted-write credits at a fast per-word cost; once the
/// credit window is exhausted the stream is throttled to a slower
/// steady-state per-word cost (§V-B: SHM wins below 256 B, tops out at
/// 0.06 GiB/s for large transfers).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Setup cost per instruction stream.
    pub setup: SimTime,
    /// Number of words that fit in the fast (credit-backed) window.
    pub window_words: u64,
    /// Per-word cost inside the window.
    pub word_fast: SimTime,
    /// Per-word cost once credits are exhausted.
    pub word_steady: SimTime,
}

impl BurstModel {
    /// Time to move `words` 64-bit words with a full credit window.
    pub fn transfer_time(&self, words: u64) -> SimTime {
        self.transfer_time_with_window(words, self.window_words)
    }

    /// Time to move `words` words when only `window` credits are
    /// available (0 after a saturating stream; see
    /// `calib::SHM_CREDIT_REPLENISH`).
    pub fn transfer_time_with_window(&self, words: u64, window: u64) -> SimTime {
        if words == 0 {
            return SimTime::ZERO;
        }
        let fast = words.min(window);
        let steady = words - fast;
        self.setup + self.word_fast * fast + self.word_steady * steady
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::gib_per_sec;

    #[test]
    fn link_model_is_latency_plus_wire() {
        let m = LinkModel::new(SimTime::from_us(1), 10.0);
        let t = m.transfer_time(10 * 1024 * 1024 * 1024);
        // 10 GiB at 10 GiB/s = 1 s, plus 1 us latency.
        assert_eq!(t, SimTime::from_secs_f64(1.0) + SimTime::from_us(1));
    }

    #[test]
    fn segmented_model_counts_segments() {
        let m = SegmentedModel {
            setup: SimTime::from_ns(100),
            segment_bytes: 256,
            per_segment: SimTime::from_ns(10),
            gib_per_sec: 13.4,
        };
        assert_eq!(m.segments(0), 0);
        assert_eq!(m.segments(1), 1);
        assert_eq!(m.segments(256), 1);
        assert_eq!(m.segments(257), 2);
        assert_eq!(
            m.transfer_time(512),
            SimTime::from_ns(100) + SimTime::from_ns(20) + time_at_gib_per_sec(512, 13.4)
        );
    }

    #[test]
    fn segmented_bandwidth_asymptote() {
        // With per-segment overhead, large-transfer bandwidth approaches
        // 1 / (1/bw + per_segment/segment_bytes).
        let m = SegmentedModel {
            setup: SimTime::from_us(80),
            segment_bytes: 64 * 1024,
            per_segment: SimTime::from_ns(500),
            gib_per_sec: 13.4,
        };
        let big = 256u64 << 20;
        let bw = gib_per_sec(big, m.transfer_time(big));
        assert!(bw < 13.4);
        assert!(bw > 10.0, "bw = {bw}");
    }

    #[test]
    fn burst_model_two_regimes() {
        let m = BurstModel {
            setup: SimTime::from_ns(126),
            window_words: 32,
            word_fast: SimTime::from_ps(34_000),
            word_steady: SimTime::from_ps(124_000),
        };
        assert_eq!(m.transfer_time(0), SimTime::ZERO);
        // 1 word: setup + fast word.
        assert_eq!(m.transfer_time(1), SimTime::from_ps(126_000 + 34_000));
        // 33 words: 32 fast + 1 steady.
        assert_eq!(
            m.transfer_time(33),
            SimTime::from_ps(126_000 + 32 * 34_000 + 124_000)
        );
    }
}
