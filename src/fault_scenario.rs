//! Reproducible fault-injection scenarios.
//!
//! A [`Scenario`] turns "kill VE 1 after the second wave, drop 1% of
//! TLPs, seed 42" into three lines of test code:
//!
//! ```
//! use ham_aurora_repro::fault_scenario::{BackendKind, Scenario};
//!
//! let report = Scenario::new(BackendKind::Dma, 2, 42)
//!     .kill_after_wave(1, 1)
//!     .assert_deterministic();
//! assert_eq!(report.leaked, 0);
//! ```
//!
//! The harness drives traffic in **waves**: each wave posts a batch of
//! asynchronous offloads to every target, optionally kills one target
//! while that wave is still in flight, then collects every future in
//! posting order. Collecting in a fixed order (rather than
//! completion order) makes the per-offload outcome list comparable
//! across runs for serial scenarios, and the semantic fault timeline
//! ([`FaultPlan::semantic_events`]) comparable for all of them.
//!
//! After the last wave the harness checks for leaked
//! in-flight frame records (`in_flight` must be zero everywhere — a
//! dead target's entries must have been failed, not forgotten) and
//! snapshots the backend's recovery counters.

pub use crate::BackendKind;
use crate::{
    offload_with, FaultPlan, NodeId, Offload, OffloadError, OffloadOptions, RecoveryPolicy,
};
use aurora_sim_core::{FaultEvent, SimTime};
use ham::f2f;
use std::sync::Arc;

ham::ham_kernel! {
    /// The scenario probe kernel: mixes the payload with the serving
    /// node so a completed result proves both delivery and placement.
    pub fn scenario_probe(ctx, x: u64) -> u64 {
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((ctx.node as u64) << 48)
    }
}

/// What [`scenario_probe`] returns for payload `x` served on `node`.
pub fn probe_expected(x: u64, node: u16) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((node as u64) << 48)
}

/// One reproducible fault-injection scenario. Build it up, then
/// [`Scenario::run`] it (or [`Scenario::assert_deterministic`] to run
/// it twice and pin the failure timeline).
#[derive(Clone, Debug)]
pub struct Scenario {
    backend: BackendKind,
    targets: u16,
    seed: u64,
    tlp_drop: f64,
    tlp_dup: f64,
    delay_spike: Option<(f64, SimTime)>,
    dma_stall: Option<(f64, SimTime)>,
    dma_partial: f64,
    policy: Option<RecoveryPolicy>,
    waves: usize,
    per_wave: usize,
    kill: Option<(u16, usize)>,
}

impl Scenario {
    /// A fault-free scenario: `targets` targets on `backend`, faults
    /// seeded with `seed`, 4 waves of 4 offloads per target.
    pub fn new(backend: BackendKind, targets: u16, seed: u64) -> Self {
        Scenario {
            backend,
            targets: targets.max(1),
            seed,
            tlp_drop: 0.0,
            tlp_dup: 0.0,
            delay_spike: None,
            dma_stall: None,
            dma_partial: 0.0,
            policy: None,
            waves: 4,
            per_wave: 4,
            kill: None,
        }
    }

    /// Probability that a posted frame is dropped by the link.
    pub fn tlp_drop(mut self, rate: f64) -> Self {
        self.tlp_drop = rate;
        self
    }

    /// Probability that a link transfer's TLPs are replayed.
    pub fn tlp_dup(mut self, rate: f64) -> Self {
        self.tlp_dup = rate;
        self
    }

    /// Probability (and size) of a link latency spike.
    pub fn delay_spike(mut self, rate: f64, by: SimTime) -> Self {
        self.delay_spike = Some((rate, by));
        self
    }

    /// Probability (and length) of a user-DMA engine stall.
    pub fn dma_stall(mut self, rate: f64, by: SimTime) -> Self {
        self.dma_stall = Some((rate, by));
        self
    }

    /// Probability of a partial DMA transfer (retransmitted).
    pub fn dma_partial(mut self, rate: f64) -> Self {
        self.dma_partial = rate;
        self
    }

    /// Arm the recovery policy: the channel core's deadline/retry on
    /// VEO and DMA, the reconnect budget on TCP (see
    /// [`OffloadOptions::recovery`]).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Traffic shape: `waves` waves of `per_wave` offloads per target.
    pub fn waves(mut self, waves: usize, per_wave: usize) -> Self {
        self.waves = waves.max(1);
        self.per_wave = per_wave.max(1);
        self
    }

    /// Kill target `node` while wave `wave` (0-based) is in flight —
    /// after its offloads are posted, before they are collected.
    pub fn kill_after_wave(mut self, node: u16, wave: usize) -> Self {
        self.kill = Some((node, wave));
        self
    }

    fn plan(&self) -> Arc<FaultPlan> {
        let mut b = FaultPlan::builder(self.seed)
            .tlp_drop(self.tlp_drop)
            .tlp_dup(self.tlp_dup)
            .dma_partial(self.dma_partial);
        if let Some((rate, by)) = self.delay_spike {
            b = b.delay_spike(rate, by);
        }
        if let Some((rate, by)) = self.dma_stall {
            b = b.dma_stall(rate, by);
        }
        b.build()
    }

    fn spawn(&self, plan: Arc<FaultPlan>) -> Offload {
        let opts = OffloadOptions {
            plan,
            recovery: self.policy,
            ..OffloadOptions::default()
        };
        offload_with(self.backend, self.targets, opts, |b| {
            b.register::<scenario_probe>();
        })
    }

    /// Run the scenario once and report what happened.
    pub fn run(&self) -> ScenarioReport {
        let plan = self.plan();
        let o = self.spawn(Arc::clone(&plan));
        let nodes: Vec<NodeId> = (1..=self.targets).map(NodeId).collect();
        let mut report = ScenarioReport::default();

        for wave in 0..self.waves {
            // Post the whole wave before collecting anything, so a kill
            // lands while these offloads are genuinely in flight.
            let mut batch: Vec<(NodeId, u64, Option<crate::Future<u64>>)> = Vec::new();
            for &node in &nodes {
                for i in 0..self.per_wave {
                    let x = (wave * self.per_wave + i) as u64;
                    match o.async_(node, f2f!(scenario_probe, x)) {
                        Ok(f) => batch.push((node, x, Some(f))),
                        Err(e) => {
                            report.refused += 1;
                            report
                                .outcomes
                                .push(format!("w{wave} t{} refused: {e}", node.0));
                            batch.push((node, x, None));
                        }
                    }
                }
            }
            if let Some((node, at)) = self.kill {
                if at == wave {
                    o.kill_target(NodeId(node)).expect("kill_target");
                }
            }
            for (node, x, fut) in batch {
                let Some(fut) = fut else { continue };
                let tag = match fut.get() {
                    Ok(v) if v == probe_expected(x, node.0) => {
                        report.ok += 1;
                        "ok".to_string()
                    }
                    Ok(v) => {
                        report.failed += 1;
                        format!("bad value {v:#x}")
                    }
                    Err(OffloadError::TargetLost(n)) => {
                        report.lost += 1;
                        format!("lost({})", n.0)
                    }
                    Err(OffloadError::Timeout) => {
                        report.timed_out += 1;
                        "timeout".to_string()
                    }
                    Err(e) => {
                        report.failed += 1;
                        format!("err: {e}")
                    }
                };
                report.outcomes.push(format!("w{wave} t{} {tag}", node.0));
            }
        }

        report.leaked = nodes
            .iter()
            .map(|&n| o.in_flight(n).unwrap_or(0))
            .sum::<usize>();
        let m = o.backend().metrics().snapshot();
        report.resends = m.resends;
        report.retry_timeouts = m.timeouts;
        report.evictions = m.evictions;
        report.timeline = render_timeline(&plan.semantic_events());
        o.shutdown();
        report
    }

    /// Run the scenario **twice** and assert both runs injected the
    /// same semantic fault timeline (drops, kills, disconnects — see
    /// [`FaultPlan::semantic_events`]). Returns the first run's report.
    pub fn assert_deterministic(&self) -> ScenarioReport {
        let first = self.run();
        let second = self.run();
        assert_eq!(
            first.timeline,
            second.timeline,
            "{} seed {} must replay the same failure timeline",
            self.backend.name(),
            self.seed,
        );
        first
    }
}

/// Render semantic fault events for comparison: site, actor and kind,
/// but **not** the virtual timestamp — virtual time is advanced by a
/// wall-clock-raced poll loop, so `at` is the one field that may vary
/// between replays of the same plan.
fn render_timeline(events: &[FaultEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| format!("{:?}/{} {:?}", e.site, e.actor, e.kind))
        .collect()
}

/// What one [`Scenario::run`] observed.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Offloads that completed with the correct result.
    pub ok: usize,
    /// Offloads that failed with [`OffloadError::TargetLost`].
    pub lost: usize,
    /// Offloads that failed with [`OffloadError::Timeout`].
    pub timed_out: usize,
    /// Offloads the runtime refused to post (evicted target).
    pub refused: usize,
    /// Offloads that failed any other way (or returned a wrong value).
    pub failed: usize,
    /// Per-offload outcome lines, in posting order.
    pub outcomes: Vec<String>,
    /// Semantic fault timeline (site/actor/kind, no timestamps).
    pub timeline: Vec<String>,
    /// In-flight frame records left in a channel after every future was
    /// collected — must be zero, or the recovery path leaked.
    pub leaked: usize,
    /// Frames re-sent by the recovery policy.
    pub resends: u64,
    /// Offloads that exhausted their retries.
    pub retry_timeouts: u64,
    /// Targets evicted.
    pub evictions: u64,
}

impl ScenarioReport {
    /// Total offloads accounted for (posted or refused).
    pub fn total(&self) -> usize {
        self.ok + self.lost + self.timed_out + self.refused + self.failed
    }
}
