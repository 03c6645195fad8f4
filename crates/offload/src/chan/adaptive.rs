//! The adaptive batch-watermark controller.
//!
//! Static [`BatchConfig`] watermarks force a choice:
//! batch deep and starve the occasional latency-sensitive probe inside a
//! filling accumulator, or batch shallow and forfeit the per-frame
//! amortization the paper's offload win is built on. This module closes
//! the loop per channel:
//!
//! * the **effective** `max_msgs`/byte watermarks float between a floor
//!   of 1 and the configured ceiling, doubling when flushes close full
//!   (depth pressure — the pipeline can absorb a wider envelope) and
//!   halving when the latency SLO trips or occupancy collapses (the
//!   traffic cannot fill the envelope in time);
//! * decisions are a **pure function of virtual-time state** — the
//!   largest flush latency this channel saw in the window plus counters
//!   accumulated under the channel lock. No wall clocks, no randomness:
//!   a replayed fault timeline reproduces the exact same widen/narrow
//!   sequence, which is what keeps the cross-backend bit-identity and
//!   calibration suites valid with the controller armed.
//!
//! The state machine is three self-loops on the watermark value:
//!
//! ```text
//!            widen (×2, cap ceiling)
//!          ┌────────────────────────┐
//!          ▼                        │ occupancy ≥ 7/8·wm
//!   [wm = ceiling] … [wm] … [wm = 1]       and flush p99 ≤ SLO/2
//!          │                        ▲
//!          └────────────────────────┘
//!            narrow (÷2, floor 1): SLO trip since last tick,
//!            or occupancy < wm/4
//! ```
//!
//! Everything here is integer arithmetic on a few words of channel
//! state, so a controller tick allocates nothing and reads no other
//! channel's flushes.

use super::batch::BatchConfig;

/// How many successful flushes between controller ticks. Reacting on
/// every flush would chase noise; a small window keeps convergence
/// within tens of envelopes.
pub(crate) const TICK_FLUSHES: u64 = 4;

/// Tuning bounds and cadence derived from a [`BatchConfig`] ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AdaptivePolicy {
    /// Narrowing never drops the watermark below this (always ≥ 1).
    pub(crate) floor_msgs: usize,
    /// Widening never raises the watermark above this (the configured
    /// `BatchConfig::max_msgs`).
    pub(crate) ceil_msgs: usize,
    /// Flushes per controller tick.
    pub(crate) tick_flushes: u64,
    /// The staged-age bound in picoseconds (0 = unbounded).
    pub(crate) slo_ps: u64,
}

impl AdaptivePolicy {
    /// The policy a [`BatchConfig`] with `adaptive` set implies.
    pub(crate) fn from_batch(batch: &BatchConfig) -> Self {
        Self {
            floor_msgs: 1,
            ceil_msgs: batch.max_msgs.max(1),
            tick_flushes: TICK_FLUSHES,
            slo_ps: batch.slo_micros.saturating_mul(1_000_000),
        }
    }
}

/// One controller verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Double the watermark (capped at the ceiling).
    Widen,
    /// Halve the watermark (floored at `floor_msgs`).
    Narrow,
    /// Leave it alone.
    Hold,
}

/// The virtual-time observations one tick decides from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TickInputs {
    /// Mean staged messages per flush over the window, fixed-point ×16
    /// (so 7/8 of a watermark compares without floats).
    pub(crate) mean_occupancy_x16: u64,
    /// p99 flush latency (time from first stage to wire) over the
    /// window, picoseconds. A window of [`TICK_FLUSHES`] flushes has no
    /// 1 % tail, so this is the largest one, floored to a power of two.
    pub(crate) flush_p99_ps: u64,
    /// SLO-triggered flushes observed since the last tick.
    pub(crate) slo_flushes: u64,
}

/// The pure decision function. Deterministic: same inputs, same verdict.
pub(crate) fn decide(watermark: usize, policy: &AdaptivePolicy, inputs: &TickInputs) -> Decision {
    let wm = watermark as u64;
    // Latency pressure: the accumulator aged out. The traffic cannot
    // fill this watermark inside its SLO — halve so envelopes close on
    // count before they close on age.
    if inputs.slo_flushes > 0 {
        return if watermark > policy.floor_msgs {
            Decision::Narrow
        } else {
            Decision::Hold
        };
    }
    // Depth pressure: flushes close essentially full (≥ 7/8 of the
    // watermark) and the envelope fill time sits comfortably inside the
    // SLO even if it doubled — widen to amortize more messages per
    // frame.
    if inputs.mean_occupancy_x16 >= wm * 14 {
        let headroom = policy.slo_ps == 0 || inputs.flush_p99_ps.saturating_mul(2) <= policy.slo_ps;
        return if headroom && watermark < policy.ceil_msgs {
            Decision::Widen
        } else {
            Decision::Hold
        };
    }
    // Sparse traffic: the watermark holds far more than ever arrives
    // (< 1/4 occupancy) — narrow so a stray message stops waiting on a
    // count it will never reach.
    if inputs.mean_occupancy_x16 * 4 < wm * 16 && watermark > policy.floor_msgs {
        return Decision::Narrow;
    }
    Decision::Hold
}

/// Apply a [`Decision`] to a watermark under a policy.
pub(crate) fn apply(watermark: usize, policy: &AdaptivePolicy, decision: Decision) -> usize {
    match decision {
        Decision::Widen => (watermark * 2).min(policy.ceil_msgs),
        Decision::Narrow => (watermark / 2).max(policy.floor_msgs),
        Decision::Hold => watermark,
    }
}

/// The largest power of two at or below `ps`; 0 below 2 ps (a sample of
/// 0 or 1 sits in octave 0, whose floor the controller reads as 0).
fn pow2_floor(ps: u64) -> u64 {
    if ps < 2 {
        0
    } else {
        1 << ps.ilog2()
    }
}

/// A controller decision surfaced to the engine so it can emit metrics
/// and health events outside the channel lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveDecision {
    /// What the tick decided.
    pub(crate) decision: Decision,
    /// The watermark after applying it.
    pub(crate) watermark: usize,
}

/// Per-channel controller state. Lives inside the channel's existing
/// mutex — `stage()` and the flush bookkeeping already hold it, so no
/// extra synchronization (or allocation) is needed.
#[derive(Debug)]
pub(crate) struct AdaptiveState {
    policy: AdaptivePolicy,
    watermark_msgs: usize,
    flushes_since_tick: u64,
    msgs_since_tick: u64,
    slo_since_tick: u64,
    /// Largest flush latency (ps) since the last tick.
    max_flush_ps: u64,
}

impl AdaptiveState {
    /// Arm the controller for a batch ceiling. Starts wide: the first
    /// waves keep the full static batching win and the SLO bound caps
    /// the tail while the controller converges downward if it must.
    pub(super) fn new(policy: AdaptivePolicy) -> Self {
        Self {
            policy,
            watermark_msgs: policy.ceil_msgs,
            flushes_since_tick: 0,
            msgs_since_tick: 0,
            slo_since_tick: 0,
            max_flush_ps: 0,
        }
    }

    /// The current effective watermarks given the static byte cap: the
    /// message count, and a byte cap scaled proportionally so narrowing
    /// tightens both trips. Scaling only ever *lowers* the byte trip,
    /// which flushes earlier — it can never admit an envelope the
    /// static config would reject.
    pub(crate) fn effective(&self, static_cap: usize) -> (usize, usize) {
        // u128: transports with no byte watermark pass a cap near
        // `usize::MAX`, which a plain multiply would overflow.
        let scaled = (static_cap as u128 * self.watermark_msgs as u128
            / self.policy.ceil_msgs.max(1) as u128) as usize;
        let bytes = scaled.max(static_cap / 8).max(64).min(static_cap);
        (self.watermark_msgs, bytes)
    }

    /// Record an SLO-triggered flush (stage-time or sweep-time).
    pub(crate) fn note_slo(&mut self) {
        self.slo_since_tick += 1;
    }

    /// Account a successful flush of `msgs` members that left
    /// `flush_ps` after its first member was staged; `true` when the
    /// tick window is full and [`Self::tick`] should run.
    pub(crate) fn note_flush(&mut self, msgs: usize, flush_ps: u64) -> bool {
        self.flushes_since_tick += 1;
        self.msgs_since_tick += msgs as u64;
        self.max_flush_ps = self.max_flush_ps.max(flush_ps);
        self.flushes_since_tick >= self.policy.tick_flushes
    }

    /// Run one controller tick on the window's counters. Resets the
    /// window. Returns the verdict (including `Hold`) so the engine can
    /// decide what to surface.
    pub(crate) fn tick(&mut self) -> AdaptiveDecision {
        let inputs = TickInputs {
            mean_occupancy_x16: self.msgs_since_tick * 16 / self.flushes_since_tick.max(1),
            flush_p99_ps: pow2_floor(self.max_flush_ps),
            slo_flushes: self.slo_since_tick,
        };
        let decision = decide(self.watermark_msgs, &self.policy, &inputs);
        self.watermark_msgs = apply(self.watermark_msgs, &self.policy, decision);
        self.flushes_since_tick = 0;
        self.msgs_since_tick = 0;
        self.slo_since_tick = 0;
        self.max_flush_ps = 0;
        AdaptiveDecision {
            decision,
            watermark: self.watermark_msgs,
        }
    }

    /// The current effective message watermark.
    pub(crate) fn watermark(&self) -> usize {
        self.watermark_msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(ceil: usize, slo_us: u64) -> AdaptivePolicy {
        AdaptivePolicy {
            floor_msgs: 1,
            ceil_msgs: ceil,
            tick_flushes: TICK_FLUSHES,
            slo_ps: slo_us * 1_000_000,
        }
    }

    fn inputs(occ_x16: u64, p99_ps: u64, slo: u64) -> TickInputs {
        TickInputs {
            mean_occupancy_x16: occ_x16,
            flush_p99_ps: p99_ps,
            slo_flushes: slo,
        }
    }

    #[test]
    fn slo_trips_always_narrow() {
        let p = policy(64, 100);
        assert_eq!(decide(64, &p, &inputs(64 * 16, 0, 1)), Decision::Narrow);
        assert_eq!(decide(2, &p, &inputs(0, 0, 3)), Decision::Narrow);
        // At the floor a trip holds rather than underflowing.
        assert_eq!(decide(1, &p, &inputs(0, 0, 1)), Decision::Hold);
    }

    #[test]
    fn full_envelopes_widen_until_ceiling_or_slo_headroom_runs_out() {
        let p = policy(64, 100);
        // Occupancy ≥ 7/8 of watermark with latency headroom → widen.
        assert_eq!(
            decide(8, &p, &inputs(7 * 16, 1_000_000, 0)),
            Decision::Widen
        );
        // At the ceiling: hold.
        assert_eq!(
            decide(64, &p, &inputs(64 * 16, 1_000_000, 0)),
            Decision::Hold
        );
        // Fill time already at half the SLO: doubling would blow it.
        assert_eq!(
            decide(8, &p, &inputs(8 * 16, 60_000_000, 0)),
            Decision::Hold
        );
        // No SLO configured → depth pressure always has headroom.
        let unbounded = policy(64, 0);
        assert_eq!(
            decide(8, &unbounded, &inputs(8 * 16, u64::MAX / 4, 0)),
            Decision::Widen
        );
    }

    #[test]
    fn sparse_traffic_narrows_and_midrange_holds() {
        let p = policy(64, 100);
        // Mean occupancy below a quarter of the watermark → narrow.
        assert_eq!(decide(16, &p, &inputs(3 * 16, 0, 0)), Decision::Narrow);
        // Healthy mid-range occupancy → hold.
        assert_eq!(decide(16, &p, &inputs(8 * 16, 0, 0)), Decision::Hold);
        // Floor never underflows.
        assert_eq!(decide(1, &p, &inputs(0, 0, 0)), Decision::Hold);
    }

    #[test]
    fn apply_respects_bounds() {
        let p = policy(24, 0);
        assert_eq!(apply(16, &p, Decision::Widen), 24);
        assert_eq!(apply(24, &p, Decision::Widen), 24);
        assert_eq!(apply(2, &p, Decision::Narrow), 1);
        assert_eq!(apply(1, &p, Decision::Narrow), 1);
        assert_eq!(apply(7, &p, Decision::Hold), 7);
    }

    #[test]
    fn window_max_floors_to_a_power_of_two_and_resets() {
        assert_eq!(pow2_floor(0), 0);
        assert_eq!(pow2_floor(1), 0, "octave 0 floors to 0");
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor((1 << 20) + 1), 1 << 20);
        assert_eq!(pow2_floor(u64::MAX), 1 << 63);
        // Full envelopes at half the ceiling, 50 µs SLO: the window's
        // largest flush, not its last one, decides the headroom.
        let mut st = AdaptiveState::new(policy(16, 50));
        st.watermark_msgs = 8;
        for flush_ps in [1_000, 40_000_000, 3_000] {
            assert!(!st.note_flush(8, flush_ps));
        }
        assert!(st.note_flush(8, 0));
        // 40 µs floors to 2^25 ps ≈ 33.6 µs; doubled, past the SLO.
        assert_eq!(st.tick().decision, Decision::Hold);
        assert_eq!(st.max_flush_ps, 0, "the tick resets the window");
        // 30 µs floors to 2^24 ps ≈ 16.8 µs; doubled, inside it.
        for flush_ps in [30_000_000, 0, 0, 0] {
            st.note_flush(8, flush_ps);
        }
        assert_eq!(st.tick().decision, Decision::Widen);
    }

    #[test]
    fn state_ticks_deterministically_and_resets_its_window() {
        let mut st = AdaptiveState::new(policy(16, 1_000));
        assert_eq!(st.watermark(), 16);
        // Four full flushes (16 members each) → widen attempt; already
        // at the ceiling so the watermark holds.
        for _ in 0..3 {
            assert!(!st.note_flush(16, 0));
        }
        assert!(st.note_flush(16, 0));
        let d = st.tick();
        assert_eq!(d.decision, Decision::Hold);
        assert_eq!(d.watermark, 16);
        // A window with an SLO trip narrows — and the reset means the
        // next window starts clean.
        st.note_slo();
        for _ in 0..4 {
            st.note_flush(2, 0);
        }
        assert_eq!(st.tick().decision, Decision::Narrow);
        assert_eq!(st.watermark(), 8);
        for _ in 0..4 {
            st.note_flush(8, 0);
        }
        // Full again at the new watermark → widen back.
        let d = st.tick();
        assert_eq!(d.decision, Decision::Widen);
        assert_eq!(d.watermark, 16);
    }

    #[test]
    fn effective_scales_bytes_with_the_watermark() {
        let mut st = AdaptiveState::new(policy(16, 0));
        assert_eq!(st.effective(4096), (16, 4096));
        st.watermark_msgs = 4;
        assert_eq!(st.effective(4096), (4, 1024));
        st.watermark_msgs = 1;
        // Floors: an eighth of the cap, never below 64, never above cap.
        assert_eq!(st.effective(4096), (1, 512));
        assert_eq!(st.effective(128), (1, 64));
        assert_eq!(st.effective(32), (1, 32));
    }
}
