//! # ham-aurora-repro
//!
//! Reproduction of *"Heterogeneous Active Messages for Offloading on the
//! NEC SX-Aurora TSUBASA"* (Noack, Focht, Steinke; IPDPSW/HCW 2019):
//! the HAM-Offload framework with its two SX-Aurora messaging protocols,
//! running against a fully simulated Aurora platform.
//!
//! This facade crate re-exports the whole stack and provides one-call
//! constructors: one per backend with every default ([`local_offload`],
//! [`veo_offload`], [`dma_offload`], [`tcp_offload`]), one taking
//! [`OffloadOptions`] for everything else ([`offload_with`]: batching,
//! fault plan, recovery policy — on any [`BackendKind`]), and
//! [`tcp_cluster`] for per-target [`TargetSpec`]s and reserve slots.
//! See `README.md` for the tour, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use ham::{ham_kernel, f2f};
//! use ham_aurora_repro::{dma_offload, NodeId};
//!
//! ham_kernel! {
//!     pub fn triple(_ctx, x: u64) -> u64 { x * 3 }
//! }
//!
//! // One VE, DMA-based protocol (the paper's fast path).
//! let offload = dma_offload(1, |b| { b.register::<triple>(); });
//! assert_eq!(offload.sync(NodeId(1), f2f!(triple, 14)).unwrap(), 42);
//! offload.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use aurora_mem as mem;
pub use aurora_pcie as pcie;
pub use aurora_sim_core as sim_core;
pub use aurora_ve as ve;
pub use aurora_workloads as workloads;
pub use ham;
pub use ham_backend_dma as backend_dma;
pub use ham_backend_tcp as backend_tcp;
pub use ham_backend_veo as backend_veo;
pub use ham_offload as offload;
pub use veo_api as veo;
pub use veos_sim as veos;

pub mod fault_scenario;

pub use aurora_sim_core::{FaultEvent, FaultKind, FaultPlan, FaultSite};
pub use aurora_sim_core::{
    HealthEvent, HealthEventKind, HealthRegistry, MetricsSnapshot, NodeMetricsSnapshot, SloReport,
    SloSpec, TargetState,
};
pub use ham_backend_tcp::{Announce, TargetSpec};
pub use ham_offload::chan::{BatchConfig, RecoveryPolicy};
pub use ham_offload::sched::{PoolFuture, PoolMetricsSnapshot, SchedPolicy, TargetPool};
pub use ham_offload::{BufferPtr, Future, NodeId, Offload, OffloadError};

use ham_backend_dma::DmaBackend;
use ham_backend_tcp::TcpBackend;
use ham_backend_veo::{ProtocolConfig, VeoBackend};
use ham_offload::local::LocalBackend;
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

/// Which transport an [`Offload`] runtime sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The in-process reference backend (no Aurora modelling).
    Local,
    /// The VEO-based protocol (paper §III).
    Veo,
    /// The DMA-based protocol (paper §IV).
    Dma,
    /// Loopback TCP sockets (paper §I-A).
    Tcp,
}

impl BackendKind {
    /// Every backend with a fault model ([`OffloadOptions::plan`],
    /// `kill_target`), for matrix tests.
    pub const FAULT_CAPABLE: [BackendKind; 3] =
        [BackendKind::Veo, BackendKind::Dma, BackendKind::Tcp];

    /// Short name for labelling assertions and reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Local => "local",
            BackendKind::Veo => "veo",
            BackendKind::Dma => "dma",
            BackendKind::Tcp => "tcp",
        }
    }
}

/// Everything [`offload_with`] and [`tcp_cluster`] can set beyond the
/// defaults. `OffloadOptions::default()` reproduces the default
/// constructors exactly.
#[derive(Clone, Debug)]
pub struct OffloadOptions {
    /// Small-message batching: consecutive `post()`s to a target
    /// coalesce into one wire frame per the watermarks, so deep
    /// pipelines pay one transport transaction and one flag poll per
    /// *batch*; single-shot `sync` latency is unchanged.
    /// [`BatchConfig::adaptive_up_to`] arms the self-tuning dataplane.
    pub batch: BatchConfig,
    /// Deterministic fault plan. On the Aurora backends it is armed on
    /// every VE's PCIe link (TLP drops, duplications, delay spikes and
    /// user-DMA stalls draw from it) and consulted for frame drops and
    /// VE-process kills; on TCP it records injected disconnects. The
    /// local backend has no fault model and ignores it.
    pub plan: Arc<FaultPlan>,
    /// Recovery policy. VEO/DMA: timeout/retry on every channel. TCP:
    /// `max_retries` is the reconnect budget — with a policy a
    /// disconnect *degrades* the target and a bounded-backoff reconnect
    /// resumes the session; with `None` peer death **permanently
    /// evicts** the channel with [`OffloadError::TargetLost`]. Ignored
    /// by the local backend.
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for OffloadOptions {
    fn default() -> Self {
        Self {
            batch: BatchConfig::default(),
            plan: FaultPlan::none(),
            recovery: None,
        }
    }
}

/// An [`Offload`] runtime over `targets` targets of `kind` (for the
/// Aurora kinds: that many Vector Engines of a default simulated
/// machine), configured by `opts`.
pub fn offload_with(
    kind: BackendKind,
    targets: u16,
    opts: OffloadOptions,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let OffloadOptions {
        batch,
        plan,
        recovery,
    } = opts;
    // Default simulated memory sizes; the host process sits on socket 0.
    let aurora = || {
        let cfg = MachineConfig {
            hbm_bytes: 64 << 20,
            vh_bytes: 128 << 20,
            ..Default::default()
        };
        let machine = if targets <= 4 {
            AuroraMachine::small(targets.max(1) as u8, cfg)
        } else {
            AuroraMachine::a300_8(cfg)
        };
        let ves: Vec<u8> = (0..targets.max(1).min(machine.ves().len() as u16) as u8).collect();
        (machine, ves, ProtocolConfig::default().with_batch(batch))
    };
    match kind {
        BackendKind::Local => Offload::new(LocalBackend::spawn_batched(targets, batch, registrar)),
        BackendKind::Veo => {
            let (machine, ves, cfg) = aurora();
            Offload::new(VeoBackend::spawn_with_faults(
                machine, 0, &ves, cfg, plan, recovery, registrar,
            ))
        }
        BackendKind::Dma => {
            let (machine, ves, cfg) = aurora();
            Offload::new(DmaBackend::spawn_with_faults(
                machine, 0, &ves, cfg, plan, recovery, registrar,
            ))
        }
        BackendKind::Tcp => {
            let specs = vec![TargetSpec::default(); targets as usize];
            Offload::new(TcpBackend::spawn_cluster(
                &specs,
                &[],
                recovery,
                batch,
                plan,
                registrar,
            ))
        }
    }
}

/// An [`Offload`] runtime over a **TCP cluster**: targets described by
/// `active` (target `i` gets node id `i + 1`) plus an address book of
/// vacant `reserve` slots for dynamic membership (may be empty). Returns
/// the backend handle alongside the runtime so callers can activate a
/// reserve slot later with [`ham_backend_tcp::TcpBackend::join_target`]
/// (and then admit it to a running [`TargetPool`] via
/// [`TargetPool::add_target`]).
///
/// Each target announces its capabilities (worker lanes, credit limit,
/// memory) and its dedup watermark on every accepted connection. With
/// `opts.recovery` set, a per-target link supervisor reconnects a
/// dropped link with bounded backoff and replays exactly the in-flight
/// frames the re-announced watermark proves unexecuted; work the
/// watermark cannot clear fails with [`OffloadError::TargetLost`] rather
/// than risking double execution.
pub fn tcp_cluster(
    active: &[TargetSpec],
    reserve: &[TargetSpec],
    opts: OffloadOptions,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> (Offload, Arc<TcpBackend>) {
    let backend = TcpBackend::spawn_cluster(
        active,
        reserve,
        opts.recovery,
        opts.batch,
        opts.plan,
        registrar,
    );
    (Offload::new(backend.clone()), backend)
}

/// An [`Offload`] runtime over the in-process reference backend (no
/// Aurora modelling; fastest wall-clock).
pub fn local_offload(
    targets: u16,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    offload_with(
        BackendKind::Local,
        targets,
        OffloadOptions::default(),
        registrar,
    )
}

/// An [`Offload`] runtime over the **VEO-based** protocol (paper §III).
pub fn veo_offload(
    ves: u8,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    offload_with(
        BackendKind::Veo,
        ves.into(),
        OffloadOptions::default(),
        registrar,
    )
}

/// An [`Offload`] runtime over the **DMA-based** protocol (paper §IV) on
/// a default simulated machine with `ves` Vector Engines.
pub fn dma_offload(
    ves: u8,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    offload_with(
        BackendKind::Dma,
        ves.into(),
        OffloadOptions::default(),
        registrar,
    )
}

/// An [`Offload`] runtime over real loopback TCP sockets — the paper's
/// "most generic backend" (§I-A), favouring interoperability over
/// performance.
pub fn tcp_offload(
    targets: u16,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    offload_with(
        BackendKind::Tcp,
        targets,
        OffloadOptions::default(),
        registrar,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::f2f;

    ham::ham_kernel! {
        pub fn ping(ctx) -> u16 { ctx.node }
    }

    #[test]
    fn all_default_constructors_work() {
        for o in [
            local_offload(1, |b| {
                b.register::<ping>();
            }),
            veo_offload(1, |b| {
                b.register::<ping>();
            }),
            dma_offload(1, |b| {
                b.register::<ping>();
            }),
            tcp_offload(1, |b| {
                b.register::<ping>();
            }),
        ] {
            assert_eq!(o.sync(NodeId(1), f2f!(ping)).unwrap(), 1);
            o.shutdown();
        }
    }

    #[test]
    fn eight_ve_machine() {
        let o = dma_offload(8, |b| {
            b.register::<ping>();
        });
        assert_eq!(o.num_nodes(), 9);
        for n in 1..=8 {
            assert_eq!(o.sync(NodeId(n), f2f!(ping)).unwrap(), n);
        }
        o.shutdown();
    }
}
