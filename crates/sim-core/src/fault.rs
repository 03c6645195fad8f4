//! Seeded, deterministic fault injection for the simulated Aurora stack.
//!
//! A [`FaultPlan`] is an immutable description of which hardware faults a
//! simulation run should suffer: TLP drops, duplications and delay spikes
//! on the PCIe link, stalls and partial transfers in the VE user-DMA
//! engines, VE process death, and TCP peer disconnects. One plan is
//! shared (via `Arc`) by every layer of one machine; the layers consult
//! it at their named *fault sites* and the plan records every injected
//! fault as a [`FaultEvent`] (and as an `aurora-telemetry` span, category
//! `fault.*`), so a failure timeline can be replayed and compared.
//!
//! ## Determinism
//!
//! Fault decisions are **pure functions** of `(seed, site, actor,
//! ordinal)` — there is no shared RNG stream whose draw order could
//! depend on thread scheduling. Frame-level faults use the frame's
//! sequence number and send attempt as the ordinal, so whether offload
//! `seq` is dropped on attempt `k` is the same in every run with the
//! same seed, regardless of what other traffic interleaves with it.
//!
//! Timing-only faults (duplication replays, delay spikes, DMA stalls)
//! stretch virtual time but never change protocol outcomes; their
//! ordinals come from per-site counters whose order can vary across
//! threads, which is why `FaultKind::is_timing_only` exists —
//! deterministic-replay comparisons use [`FaultPlan::semantic_events`].
//!
//! ## Zero plans are free
//!
//! Every query short-circuits on a zero rate before touching the RNG,
//! the event log, or the telemetry layer; [`FaultPlan::killed`] is one
//! relaxed atomic load. A default ([`FaultPlan::none`]) plan therefore
//! cannot perturb virtual time or results — the cross-backend
//! equivalence tests pin this down.

use crate::time::SimTime;
use crate::trace;
use ham::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Named places in the simulated stack where faults are injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The PCIe link between VH and a VE (`aurora-pcie`).
    PcieLink,
    /// A VE's user-DMA engine (`aurora-ve`).
    DmaEngine,
    /// The VE process itself (`ham_main` on the device).
    VeProcess,
    /// A TCP connection to a remote target (`ham-backend-tcp`).
    TcpLink,
}

/// What happened at a fault site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A framed message (all its TLPs) was dropped in transit: the
    /// target never sees send attempt `attempt` of offload `seq`.
    TlpDrop {
        /// Wire sequence number of the dropped frame.
        seq: u64,
        /// Which send attempt was dropped (0 = the original).
        attempt: u32,
    },
    /// A transfer's TLPs were duplicated; the link replays them
    /// (link-layer dedup preserves the data), costing `extra` time.
    TlpDup {
        /// Replay time added to the transfer.
        extra: SimTime,
    },
    /// The link stalled for `extra` before carrying the transfer.
    DelaySpike {
        /// Added latency.
        extra: SimTime,
    },
    /// A DMA engine descriptor stalled for `extra` before issue.
    DmaStall {
        /// Added engine time.
        extra: SimTime,
    },
    /// A DMA transfer completed partially and was retransmitted; the
    /// retry costs `extra` extra streaming time (data arrives intact).
    DmaPartial {
        /// Retransmission time.
        extra: SimTime,
    },
    /// The VE process died (kernel crash, OOM kill, operator action).
    VeKill,
    /// The TCP peer disconnected abruptly.
    Disconnect,
}

impl FaultKind {
    /// Timing-only faults stretch virtual time but cannot change any
    /// protocol outcome; deterministic-replay comparisons skip them
    /// because their injection order follows thread scheduling.
    pub(crate) fn is_timing_only(&self) -> bool {
        matches!(
            self,
            FaultKind::TlpDup { .. }
                | FaultKind::DelaySpike { .. }
                | FaultKind::DmaStall { .. }
                | FaultKind::DmaPartial { .. }
        )
    }
}

/// One injected fault, as recorded in the plan's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Where it was injected.
    pub site: FaultSite,
    /// Which instance of the site (VE index, target node, direction).
    pub actor: u16,
    /// What was injected.
    pub kind: FaultKind,
    /// Virtual time of the injection.
    pub(crate) at: SimTime,
}

/// Fault probabilities and magnitudes. All-zero means no faults.
#[derive(Clone, Copy, Debug)]
struct Rates {
    tlp_drop: f64,
    tlp_dup: f64,
    delay_spike: f64,
    delay_spike_by: SimTime,
    dma_stall: f64,
    dma_stall_by: SimTime,
    dma_partial: f64,
}

impl Default for Rates {
    fn default() -> Self {
        Rates {
            tlp_drop: 0.0,
            tlp_dup: 0.0,
            delay_spike: 0.0,
            delay_spike_by: SimTime::ZERO,
            dma_stall: 0.0,
            dma_stall_by: SimTime::ZERO,
            dma_partial: 0.0,
        }
    }
}

/// Builder for a [`FaultPlan`]. All rates default to zero.
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    rates: Rates,
}

impl FaultPlanBuilder {
    /// Probability that a posted frame is dropped by the link.
    pub fn tlp_drop(mut self, rate: f64) -> Self {
        self.rates.tlp_drop = rate;
        self
    }

    /// Probability that a link transfer's TLPs are replayed (doubling
    /// its wire time).
    pub fn tlp_dup(mut self, rate: f64) -> Self {
        self.rates.tlp_dup = rate;
        self
    }

    /// Probability (and size) of a latency spike on a link transfer.
    pub fn delay_spike(mut self, rate: f64, by: SimTime) -> Self {
        self.rates.delay_spike = rate;
        self.rates.delay_spike_by = by;
        self
    }

    /// Probability (and length) of a DMA-engine stall per descriptor.
    pub fn dma_stall(mut self, rate: f64, by: SimTime) -> Self {
        self.rates.dma_stall = rate;
        self.rates.dma_stall_by = by;
        self
    }

    /// Probability that a DMA transfer is partial and retransmitted.
    pub fn dma_partial(mut self, rate: f64) -> Self {
        self.rates.dma_partial = rate;
        self
    }

    /// Freeze the plan.
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed: self.seed,
            rates: self.rates,
            killed: AtomicU64::new(0),
            link_draws: AtomicU64::new(0),
            dma_draws: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        })
    }
}

/// A seeded fault-injection plan shared by one simulated machine.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: Rates,
    /// Bitmask of killed actors (VE indices / target nodes < 64).
    killed: AtomicU64,
    /// Ordinal source for link-site timing draws.
    link_draws: AtomicU64,
    /// Ordinal source for DMA-site timing draws.
    dma_draws: AtomicU64,
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default everywhere).
    pub fn none() -> Arc<FaultPlan> {
        FaultPlan::builder(0).build()
    }

    /// Start building a plan for `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            rates: Rates::default(),
        }
    }

    /// Pure draw in `[0, 1)` for `(seed, site, actor, ordinal)` —
    /// independent of call order across threads.
    fn draw(&self, site: FaultSite, actor: u16, ordinal: u64) -> f64 {
        let mut h = SplitMix64::new(
            self.seed
                .wrapping_add((site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((actor as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(ordinal.wrapping_mul(0x94D0_49BB_1331_11EB)),
        );
        h.next_f64()
    }

    fn log(&self, site: FaultSite, actor: u16, kind: FaultKind, at: SimTime) {
        self.events.lock().unwrap().push(FaultEvent {
            site,
            actor,
            kind,
            at,
        });
    }

    /// Should send attempt `attempt` of frame `seq` to `actor` be
    /// dropped? Deterministic per `(seq, attempt)`.
    pub fn drop_frame(&self, actor: u16, seq: u64, attempt: u32, now: SimTime) -> bool {
        if self.rates.tlp_drop <= 0.0 {
            return false;
        }
        let ordinal = (seq << 8) | attempt as u64;
        if self.draw(FaultSite::PcieLink, actor, ordinal) >= self.rates.tlp_drop {
            return false;
        }
        self.log(
            FaultSite::PcieLink,
            actor,
            FaultKind::TlpDrop { seq, attempt },
            now,
        );
        trace::record("fault.tlp_drop", 0, now, now);
        true
    }

    /// Extra link time for one transfer of wire time `base`: replayed
    /// TLPs (`tlp_dup`) and delay spikes. Zero when no fault fires.
    pub fn link_delay(&self, actor: u16, base: SimTime, now: SimTime) -> SimTime {
        if self.rates.tlp_dup <= 0.0 && self.rates.delay_spike <= 0.0 {
            return SimTime::ZERO;
        }
        let ordinal = self.link_draws.fetch_add(1, Ordering::Relaxed);
        let mut extra = SimTime::ZERO;
        if self.rates.tlp_dup > 0.0
            && self.draw(FaultSite::PcieLink, actor, ordinal << 1) < self.rates.tlp_dup
        {
            extra += base;
            self.log(
                FaultSite::PcieLink,
                actor,
                FaultKind::TlpDup { extra: base },
                now,
            );
            trace::record("fault.tlp_dup", 0, now, now + base);
        }
        if self.rates.delay_spike > 0.0
            && self.draw(FaultSite::PcieLink, actor, (ordinal << 1) | 1) < self.rates.delay_spike
        {
            let by = self.rates.delay_spike_by;
            extra += by;
            self.log(
                FaultSite::PcieLink,
                actor,
                FaultKind::DelaySpike { extra: by },
                now,
            );
            trace::record("fault.delay_spike", 0, now, now + by);
        }
        extra
    }

    /// Extra DMA-engine time for one descriptor whose streaming time is
    /// `stream`: stalls and partial-transfer retransmissions.
    pub fn dma_delay(&self, actor: u16, stream: SimTime, now: SimTime) -> SimTime {
        if self.rates.dma_stall <= 0.0 && self.rates.dma_partial <= 0.0 {
            return SimTime::ZERO;
        }
        let ordinal = self.dma_draws.fetch_add(1, Ordering::Relaxed);
        let mut extra = SimTime::ZERO;
        if self.rates.dma_stall > 0.0
            && self.draw(FaultSite::DmaEngine, actor, ordinal << 1) < self.rates.dma_stall
        {
            let by = self.rates.dma_stall_by;
            extra += by;
            self.log(
                FaultSite::DmaEngine,
                actor,
                FaultKind::DmaStall { extra: by },
                now,
            );
            trace::record("fault.dma_stall", 0, now, now + by);
        }
        if self.rates.dma_partial > 0.0
            && self.draw(FaultSite::DmaEngine, actor, (ordinal << 1) | 1) < self.rates.dma_partial
        {
            extra += stream;
            self.log(
                FaultSite::DmaEngine,
                actor,
                FaultKind::DmaPartial { extra: stream },
                now,
            );
            trace::record("fault.dma_partial", 0, now, now + stream);
        }
        extra
    }

    /// Kill actor `actor` (a VE process). Takes effect the next time the
    /// actor polls [`FaultPlan::killed`]. Actors ≥ 64 are rejected.
    pub fn kill(&self, actor: u16, now: SimTime) {
        assert!(actor < 64, "kill bitmask holds 64 actors");
        let bit = 1u64 << actor;
        if self.killed.fetch_or(bit, Ordering::SeqCst) & bit == 0 {
            self.log(FaultSite::VeProcess, actor, FaultKind::VeKill, now);
            trace::record("fault.ve_kill", 0, now, now);
        }
    }

    /// Has `actor` been killed? One relaxed load.
    pub fn killed(&self, actor: u16) -> bool {
        actor < 64 && self.killed.load(Ordering::Relaxed) & (1u64 << actor) != 0
    }

    /// Record an abrupt TCP disconnect of `actor` (the transport itself
    /// performs the socket shutdown).
    pub fn disconnect(&self, actor: u16, now: SimTime) {
        self.log(FaultSite::TcpLink, actor, FaultKind::Disconnect, now);
        trace::record("fault.disconnect", 0, now, now);
    }

    /// Outcome-changing faults only (drops, kills, disconnects), for
    /// deterministic-replay comparison. Sorted by `(site, actor)` with
    /// per-actor injection order preserved, so runs compare regardless
    /// of cross-actor thread interleaving.
    pub fn semantic_events(&self) -> Vec<FaultEvent> {
        let mut v: Vec<FaultEvent> = self
            .events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| !e.kind.is_timing_only())
            .cloned()
            .collect();
        v.sort_by_key(|e| (e.site, e.actor));
        v
    }
}

// The unit tests read the whole timeline; the runtime compares only
// `semantic_events`.
#[cfg(test)]
impl FaultPlan {
    /// The full injected-fault timeline, in injection order.
    fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_free_and_silent() {
        let p = FaultPlan::none();
        assert!(!p.drop_frame(1, 0, 0, SimTime::ZERO));
        assert_eq!(
            p.link_delay(0, SimTime::from_ns(100), SimTime::ZERO),
            SimTime::ZERO
        );
        assert_eq!(
            p.dma_delay(0, SimTime::from_ns(100), SimTime::ZERO),
            SimTime::ZERO
        );
        assert!(!p.killed(1));
        assert!(p.events().is_empty());
    }

    #[test]
    fn drop_decisions_are_pure_functions_of_seq_and_attempt() {
        let a = FaultPlan::builder(42).tlp_drop(0.3).build();
        let b = FaultPlan::builder(42).tlp_drop(0.3).build();
        // Query b in a scrambled order; decisions must match a's.
        let decisions_a: Vec<bool> = (0..200)
            .map(|seq| a.drop_frame(1, seq, 0, SimTime::ZERO))
            .collect();
        let mut decisions_b = vec![false; 200];
        for seq in (0..200u64).rev() {
            decisions_b[seq as usize] = b.drop_frame(1, seq, 0, SimTime::ZERO);
        }
        assert_eq!(decisions_a, decisions_b);
        // And the retry attempt draws independently.
        let dropped = decisions_a.iter().filter(|d| **d).count();
        assert!((30..100).contains(&dropped), "rate off: {dropped}/200");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::builder(1).tlp_drop(0.5).build();
        let b = FaultPlan::builder(2).tlp_drop(0.5).build();
        let da: Vec<bool> = (0..64)
            .map(|s| a.drop_frame(0, s, 0, SimTime::ZERO))
            .collect();
        let db: Vec<bool> = (0..64)
            .map(|s| b.drop_frame(0, s, 0, SimTime::ZERO))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn kill_is_sticky_logged_once_and_per_actor() {
        let p = FaultPlan::none();
        p.kill(3, SimTime::from_us(5));
        p.kill(3, SimTime::from_us(9)); // second kill: no second event
        assert!(p.killed(3));
        assert!(!p.killed(2));
        let ev = p.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].site, FaultSite::VeProcess);
        assert_eq!(ev[0].actor, 3);
        assert_eq!(ev[0].kind, FaultKind::VeKill);
        assert_eq!(ev[0].at, SimTime::from_us(5));
    }

    #[test]
    fn timing_faults_are_excluded_from_semantic_events() {
        let p = FaultPlan::builder(7)
            .tlp_dup(1.0)
            .delay_spike(1.0, SimTime::from_us(10))
            .dma_stall(1.0, SimTime::from_us(3))
            .dma_partial(1.0)
            .build();
        let extra = p.link_delay(0, SimTime::from_ns(500), SimTime::ZERO);
        assert_eq!(extra, SimTime::from_ns(500) + SimTime::from_us(10));
        let extra = p.dma_delay(2, SimTime::from_ns(800), SimTime::ZERO);
        assert_eq!(extra, SimTime::from_us(3) + SimTime::from_ns(800));
        assert_eq!(p.events().len(), 4);
        assert!(p.semantic_events().is_empty());
        p.kill(0, SimTime::ZERO);
        assert_eq!(p.semantic_events().len(), 1);
    }

    #[test]
    fn semantic_events_sort_stably_by_actor() {
        let p = FaultPlan::builder(0).tlp_drop(1.0).build();
        p.drop_frame(2, 10, 0, SimTime::ZERO);
        p.drop_frame(1, 4, 0, SimTime::ZERO);
        p.drop_frame(1, 5, 0, SimTime::ZERO);
        let ev = p.semantic_events();
        let key: Vec<(u16, FaultKind)> = ev.into_iter().map(|e| (e.actor, e.kind)).collect();
        assert_eq!(
            key,
            vec![
                (1, FaultKind::TlpDrop { seq: 4, attempt: 0 }),
                (1, FaultKind::TlpDrop { seq: 5, attempt: 0 }),
                (
                    2,
                    FaultKind::TlpDrop {
                        seq: 10,
                        attempt: 0
                    }
                ),
            ]
        );
    }
}
