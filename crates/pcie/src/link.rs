//! The per-VE PCIe link: latency, TLP mechanics and wire occupancy.

use aurora_sim_core::calib;
use aurora_sim_core::resource::Reservation;
use aurora_sim_core::{FaultPlan, SimTime, Timeline};
use std::sync::{Arc, OnceLock};

/// Transfer direction over a VE's PCIe link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host memory → VE memory ("downstream").
    Vh2Ve,
    /// VE memory → host memory ("upstream").
    Ve2Vh,
}

/// Static parameters of one PCIe Gen3 x16 link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Effective data bandwidth (payload bytes per second) in GiB/s.
    pub(crate) effective_gib_s: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            effective_gib_s: calib::PCIE_EFFECTIVE_GIB_S,
        }
    }
}

/// One VE's PCIe connection: a pair of directed, contended wires.
#[derive(Clone, Debug)]
pub struct PcieLink {
    cfg: LinkConfig,
    down: Timeline,
    up: Timeline,
    /// Armed fault plan and the actor id its draws are keyed on.
    /// Shared by clones (the machine hands out `Arc<PcieLink>`, and the
    /// DMA engines hold the same `Arc`), write-once per link.
    faults: Arc<OnceLock<(Arc<FaultPlan>, u16)>>,
}

impl Default for PcieLink {
    fn default() -> Self {
        Self::new(LinkConfig::default())
    }
}

impl PcieLink {
    /// Build a link with the given configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        Self {
            cfg,
            down: Timeline::new(),
            up: Timeline::new(),
            faults: Arc::new(OnceLock::new()),
        }
    }

    /// Arm this link (and everything that shares it, e.g. the VE's user
    /// DMA engines) with a deterministic fault plan; `actor` keys the
    /// plan's draws for this link. Write-once: re-arming is ignored so a
    /// plan cannot change mid-run. An all-zero plan injects nothing.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>, actor: u16) {
        let _ = self.faults.set((plan, actor));
    }

    /// The armed fault plan and actor id, if any.
    pub fn faults(&self) -> Option<&(Arc<FaultPlan>, u16)> {
        self.faults.get()
    }

    /// Pure wire time of `bytes` at the effective (overhead-adjusted)
    /// rate.
    pub(crate) fn wire_time(&self, bytes: u64) -> SimTime {
        aurora_sim_core::time::time_at_gib_per_sec(bytes, self.cfg.effective_gib_s)
    }

    /// Occupy the wire in `dir` for a payload of `bytes`, starting no
    /// earlier than `earliest`. Returns the service window; concurrent
    /// users of the same direction are serialized FIFO.
    pub fn occupy(&self, dir: Direction, earliest: SimTime, bytes: u64) -> Reservation {
        self.reserve(dir, earliest, self.wire_time(bytes), bytes)
    }

    /// Occupy the wire in `dir` for an explicitly given duration — used
    /// by engines whose streaming rate is below the link's effective rate
    /// (the engine, not the wire, is the bottleneck, but the wire is held
    /// for the duration either way). `bytes` is the payload moved during
    /// the window (occupancy telemetry).
    pub fn occupy_for(
        &self,
        dir: Direction,
        earliest: SimTime,
        duration: SimTime,
        bytes: u64,
    ) -> Reservation {
        self.reserve(dir, earliest, duration, bytes)
    }

    fn reserve(
        &self,
        dir: Direction,
        earliest: SimTime,
        duration: SimTime,
        bytes: u64,
    ) -> Reservation {
        let (tl, category) = match dir {
            Direction::Vh2Ve => (&self.down, "pcie.down"),
            Direction::Ve2Vh => (&self.up, "pcie.up"),
        };
        // Injected timing faults (TLP replays, delay spikes) stretch the
        // wire occupancy of this transfer.
        let duration = match self.faults.get() {
            Some((plan, actor)) => duration + plan.link_delay(*actor, duration, earliest),
            None => duration,
        };
        let res = tl.reserve(earliest, duration);
        aurora_sim_core::trace::record(category, bytes, res.start, res.end);
        res
    }

    /// Reset occupancy accounting (benchmark harness reuse).
    pub fn reset(&self) {
        self.down.reset();
        self.up.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_matches_effective_rate() {
        let l = PcieLink::default();
        let t = l.wire_time(134 * (1 << 30) / 10); // 13.4 GiB
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn directions_are_independent_wires() {
        let l = PcieLink::default();
        let a = l.occupy(Direction::Vh2Ve, SimTime::ZERO, 1 << 20);
        let b = l.occupy(Direction::Ve2Vh, SimTime::ZERO, 1 << 20);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO, "full duplex");
        let c = l.occupy(Direction::Vh2Ve, SimTime::ZERO, 1 << 20);
        assert_eq!(c.start, a.end, "same direction contends");
    }

    #[test]
    fn reset_frees_the_wire() {
        let l = PcieLink::default();
        let a = l.occupy(Direction::Vh2Ve, SimTime::ZERO, 1024);
        assert_eq!(a.end, l.wire_time(1024));
        l.reset();
        let b = l.occupy(Direction::Vh2Ve, SimTime::ZERO, 1024);
        assert_eq!(b.start, SimTime::ZERO, "reset releases the direction");
    }
}
