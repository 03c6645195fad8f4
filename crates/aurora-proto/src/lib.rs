//! Everything the two SX-Aurora backends share: VE process setup
//! through VEO, target memory access for kernels, compute metering,
//! buffer management and VEO-based bulk transfers (`put`/`get`) in
//! [`AuroraCore`], and the backend skeleton itself — spawn, teardown,
//! fault gating, the VE-side message loop — in [`backend`].
//!
//! Both Aurora transports (`ham-backend-veo`, `ham-backend-dma`) sit on
//! this crate, which depends only *downward* (simulator + runtime);
//! each supplies just a [`Protocol`]. Protocol slot geometry
//! ([`ProtocolConfig`], [`SLOT_META`]) lives with the channel core in
//! `ham-offload` and is re-exported here for convenience.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use aurora_mem::VeAddr;
use aurora_sim_core::Clock;
use aurora_telemetry::BackendMetrics;
use ham::{HamError, Registry, RegistryBuilder, TargetMemory};
use ham_offload::backend::{build_registry, RawBuffer, Registrar};
use ham_offload::types::{DeviceType, NodeDescriptor, NodeId};
use ham_offload::OffloadError;
use std::sync::Arc;
use veo_api::VeoProc;
use veos_sim::{AuroraMachine, VeProcess};

pub mod backend;

pub use backend::{AuroraBackend, Protocol, Setup, VeTransport};
pub use ham_offload::chan::{ProtocolConfig, SLOT_META};

/// Registry seed of the host "binary".
pub const HOST_SEED: u64 = 0x5648_0001; // "VH"
/// Registry seed base of the VE "binaries" (one per VE process).
pub const VE_SEED_BASE: u64 = 0x5645_0100; // "VE"

/// [`ham::message::ComputeMeter`] over a VE process: kernel work charged
/// through [`ham::ExecContext::charge_flops`] advances the VE's virtual
/// clock at the Table-I sustained rate — what makes offloaded kernel
/// *durations* (and thus overlap and break-even behaviour) visible on
/// the virtual timeline.
pub(crate) struct VeComputeMeter {
    clock: Clock,
}

impl VeComputeMeter {
    /// Meter advancing `clock` (the VE process's clock).
    pub(crate) fn new(clock: Clock) -> Self {
        Self { clock }
    }
}

impl ham::message::ComputeMeter for VeComputeMeter {
    fn charge_flops(&self, flops: u64) {
        let t0 = self.clock.now();
        let t1 = self
            .clock
            .advance(aurora_sim_core::calib::ve_compute_time(flops));
        aurora_sim_core::trace::record("ve.compute", flops, t0, t1);
    }

    fn cost_ps(&self, flops: u64) -> u64 {
        aurora_sim_core::calib::ve_compute_time(flops).as_ps()
    }
}

/// [`TargetMemory`] over a VE process: kernels read/write VE memory by
/// VEMVA — `buffer_ptr` addresses resolve here.
pub struct VeTargetMemory {
    proc: Arc<VeProcess>,
}

impl VeTargetMemory {
    /// Wrap a VE process.
    pub fn new(proc: Arc<VeProcess>) -> Self {
        Self { proc }
    }
}

impl TargetMemory for VeTargetMemory {
    fn mem_read(&self, addr: u64, out: &mut [u8]) -> Result<(), HamError> {
        self.proc
            .read(VeAddr(addr), out)
            .map_err(|e| HamError::Mem(e.to_string()))
    }

    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), HamError> {
        self.proc
            .write(VeAddr(addr), data)
            .map_err(|e| HamError::Mem(e.to_string()))
    }
}

/// One target's VEO plumbing.
pub struct TargetCore {
    /// The VEO process handle.
    pub proc: Arc<VeoProc>,
}

/// Host-side core shared by both Aurora backends.
pub struct AuroraCore {
    machine: Arc<AuroraMachine>,
    host_socket: u8,
    host_clock: Clock,
    host_registry: Arc<Registry>,
    registrar: Arc<Registrar>,
    targets: Vec<TargetCore>,
    metrics: BackendMetrics,
}

impl AuroraCore {
    /// Set up VE processes on the listed VEs; the host process is pinned
    /// to `host_socket` (the UPI knob of §V-A).
    pub fn new(
        machine: Arc<AuroraMachine>,
        host_socket: u8,
        ves: &[u8],
        registrar: impl Fn(&mut RegistryBuilder) + Send + Sync + 'static,
    ) -> Self {
        let registrar: Arc<Registrar> = Arc::new(registrar);
        let host_clock = Clock::new();
        let host_registry = Arc::new(build_registry(&registrar, HOST_SEED));
        let targets = ves
            .iter()
            .map(|&ve| TargetCore {
                proc: VeoProc::create(Arc::clone(&machine), ve, host_socket, host_clock.clone()),
            })
            .collect();
        let metrics = BackendMetrics::new();
        for node in 1..=ves.len() as u16 {
            metrics.health().register(node);
        }
        Self {
            machine,
            host_socket,
            host_clock,
            host_registry,
            registrar,
            targets,
            metrics,
        }
    }

    /// The shared registrar.
    pub(crate) fn registrar(&self) -> &Arc<Registrar> {
        &self.registrar
    }

    /// The machine.
    pub fn machine(&self) -> &Arc<AuroraMachine> {
        &self.machine
    }

    /// The host process's socket.
    pub fn host_socket(&self) -> u8 {
        self.host_socket
    }

    /// The host clock.
    pub fn host_clock(&self) -> &Clock {
        &self.host_clock
    }

    /// The host registry.
    pub fn host_registry(&self) -> &Arc<Registry> {
        &self.host_registry
    }

    /// The backend's metric registers (shared by whichever protocol
    /// backend wraps this core).
    pub(crate) fn metrics(&self) -> &BackendMetrics {
        &self.metrics
    }

    /// Number of targets.
    pub(crate) fn num_targets(&self) -> u16 {
        self.targets.len() as u16
    }

    /// The VEO plumbing of `node` (1-based).
    pub fn target(&self, node: NodeId) -> Result<&TargetCore, OffloadError> {
        if node.is_host() {
            return Err(OffloadError::BadNode(node));
        }
        self.targets
            .get(node.0 as usize - 1)
            .ok_or(OffloadError::BadNode(node))
    }

    /// Node descriptor (Table I data for VEs).
    pub(crate) fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
        if node.is_host() {
            let cpu = aurora_ve::CpuSpecs::xeon_gold_6126();
            return Ok(NodeDescriptor {
                node,
                name: format!("VH socket {} ({})", self.host_socket, cpu.name),
                device_type: DeviceType::Host,
                memory_bytes: self.machine.config().vh_bytes,
                cores: cpu.cores,
            });
        }
        let t = self.target(node)?;
        let specs = t.proc.process().ve().specs().clone();
        Ok(NodeDescriptor {
            node,
            name: format!("VE{} ({})", t.proc.ve_id(), specs.name),
            device_type: DeviceType::VectorEngine,
            memory_bytes: self.machine.config().hbm_bytes,
            cores: specs.cores,
        })
    }

    /// Allocate on a target (Table II `allocate` → `veo_alloc_mem`).
    pub fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        let t = self.target(node)?;
        t.proc
            .alloc_mem(bytes)
            .map(|a| a.get())
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Free a target allocation.
    pub(crate) fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        let t = self.target(node)?;
        t.proc
            .free_mem(VeAddr(addr))
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Table II `put` over VEO write (both backends, §IV-B): the
    /// caller's bytes go straight to VE memory.
    pub(crate) fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
        self.target(dst.node)?
            .proc
            .write_mem_from(data, VeAddr(dst.addr))
            .map(drop)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Table II `get` over VEO read, straight into `out`.
    pub(crate) fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError> {
        self.target(src.node)?
            .proc
            .read_mem_into(VeAddr(src.addr), out)
            .map(drop)
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veos_sim::MachineConfig;

    fn machine() -> Arc<AuroraMachine> {
        AuroraMachine::small(
            2,
            MachineConfig {
                hbm_bytes: 16 << 20,
                vh_bytes: 32 << 20,
                ..Default::default()
            },
        )
    }

    fn core() -> AuroraCore {
        AuroraCore::new(machine(), 0, &[0, 1], |_b| {})
    }

    #[test]
    fn setup_creates_processes() {
        let c = core();
        assert_eq!(c.num_targets(), 2);
        assert!(c.target(NodeId(1)).is_ok());
        assert!(c.target(NodeId(2)).is_ok());
        assert!(c.target(NodeId(3)).is_err());
        assert!(c.target(NodeId::HOST).is_err());
    }

    #[test]
    fn descriptors_expose_table1() {
        let c = core();
        let ve = c.descriptor(NodeId(1)).unwrap();
        assert_eq!(ve.device_type, DeviceType::VectorEngine);
        assert_eq!(ve.cores, 8);
        assert!(ve.name.contains("Type 10B"));
        let host = c.descriptor(NodeId::HOST).unwrap();
        assert_eq!(host.device_type, DeviceType::Host);
        assert!(host.name.contains("6126"));
    }

    #[test]
    fn alloc_put_get_round_trip() {
        let c = core();
        let addr = c.allocate(NodeId(1), 64).unwrap();
        let buf = RawBuffer {
            node: NodeId(1),
            addr,
            len: 64,
        };
        c.put_bytes(buf, b"through the privileged dma").unwrap();
        let mut out = [0u8; 26];
        c.get_bytes(buf, &mut out).unwrap();
        assert_eq!(&out, b"through the privileged dma");
        c.free(NodeId(1), addr).unwrap();
        // Host clock advanced by at least one write + one read.
        assert!(
            c.host_clock().now()
                >= aurora_sim_core::calib::VEO_WRITE_BASE + aurora_sim_core::calib::VEO_READ_BASE
        );
    }

    #[test]
    fn ve_target_memory_resolves_vemva() {
        let c = core();
        let t = c.target(NodeId(1)).unwrap();
        let addr = c.allocate(NodeId(1), 32).unwrap();
        let mem = VeTargetMemory::new(Arc::clone(t.proc.process()));
        mem.mem_write(addr, b"kernel view").unwrap();
        let mut out = [0u8; 11];
        mem.mem_read(addr, &mut out).unwrap();
        assert_eq!(&out, b"kernel view");
        assert!(mem.mem_read(0x1234, &mut out).is_err(), "unmapped VEMVA");
    }

    #[test]
    fn registries_share_keys_across_seeds() {
        let c = AuroraCore::new(machine(), 0, &[0], |b| {
            b.register::<probe>();
        });
        let ve_reg = build_registry(c.registrar(), VE_SEED_BASE);
        assert_eq!(c.host_registry().names(), ve_reg.names());
    }

    ham::ham_kernel! {
        pub fn probe(_ctx) -> u8 { 1 }
    }
}
