//! The assembled simulated machine.

use crate::daemon::Veos;
use aurora_mem::{MemError, PageSize, PageTable, RangeAllocator, Region, ShmManager, VhAddr};
use aurora_pcie::Topology;
use aurora_ve::VeDevice;
use std::sync::{Arc, Mutex};

/// Base of VH process virtual addresses in the simulation.
pub(crate) const VH_VADDR_BASE: u64 = 0x7000_0000_0000;

/// Configuration of a simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Page size of VH-side allocations (the huge-pages knob, §V-B).
    pub vh_page: PageSize,
    /// Use the improved (1.3.2-4dma) privileged DMA manager (§III-D).
    pub improved_dma: bool,
    /// Simulated HBM per VE in bytes (allocator bound, lazily backed).
    pub hbm_bytes: u64,
    /// Simulated VH memory per socket in bytes.
    pub vh_bytes: u64,
}

impl Default for MachineConfig {
    /// The paper's benchmark configuration (Table III): huge pages on the
    /// VH, improved DMA manager.
    fn default() -> Self {
        Self {
            vh_page: PageSize::Huge2M,
            improved_dma: true,
            hbm_bytes: 256 << 20,
            vh_bytes: 256 << 20,
        }
    }
}

/// One socket's VH process memory: region + allocator + page table.
#[derive(Debug)]
pub struct VhMemory {
    region: Arc<Region>,
    alloc: Mutex<RangeAllocator>,
    page_table: Mutex<PageTable>,
    page: PageSize,
}

impl VhMemory {
    /// Build VH memory of `bytes` with the given page size.
    pub fn new(bytes: u64, page: PageSize) -> Arc<Self> {
        Arc::new(Self {
            region: Region::new(bytes),
            alloc: Mutex::new(RangeAllocator::new(bytes)),
            page_table: Mutex::new(PageTable::new(page)),
            page,
        })
    }

    /// Backing region.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Configured page size.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Allocate `len` bytes of host memory; returns its VH virtual
    /// address. Pages are mapped eagerly (identity inside the region).
    pub fn alloc(&self, len: u64) -> Result<VhAddr, MemError> {
        let p = self.page.bytes();
        // Allocate page-aligned so the mapping is page-granular.
        let off = self
            .alloc
            .lock()
            .unwrap()
            .alloc(len.max(1).next_multiple_of(p), p)?;
        let vaddr = VH_VADDR_BASE + off;
        self.page_table
            .lock()
            .unwrap()
            .map_range(vaddr, off, len.max(1).next_multiple_of(p))?;
        Ok(VhAddr(vaddr))
    }

    /// Free a VH allocation.
    pub fn free(&self, addr: VhAddr) -> Result<(), MemError> {
        let off = addr.get() - VH_VADDR_BASE;
        let len = self
            .alloc
            .lock()
            .unwrap()
            .allocation_len(off)
            .ok_or(MemError::BadFree { offset: off })?;
        self.page_table.lock().unwrap().unmap_range(addr.get(), len);
        self.alloc.lock().unwrap().free(off)
    }

    /// Number of live VH allocations.
    pub fn live_allocations(&self) -> usize {
        self.alloc.lock().unwrap().live_allocations()
    }

    /// Translate a VH virtual address to its region offset.
    pub fn translate(&self, addr: VhAddr) -> Result<u64, MemError> {
        self.page_table.lock().unwrap().translate(addr.get())
    }

    /// Copy host data into the simulated VH memory at `addr` (what a VH
    /// program writing its own buffers does; no virtual cost — local).
    pub fn write(&self, addr: VhAddr, data: &[u8]) -> Result<(), MemError> {
        let off = self.translate(addr)?;
        self.region.write(off, data)
    }

    /// Copy data out of the simulated VH memory at `addr`.
    pub fn read(&self, addr: VhAddr, out: &mut [u8]) -> Result<(), MemError> {
        let off = self.translate(addr)?;
        self.region.read(off, out)
    }
}

/// The simulated SX-Aurora machine.
#[derive(Debug)]
pub struct AuroraMachine {
    config: MachineConfig,
    topology: Topology,
    ves: Vec<Arc<VeDevice>>,
    vh: Vec<Arc<VhMemory>>,
    shm: Arc<ShmManager>,
    veos: Vec<Arc<Veos>>,
}

impl AuroraMachine {
    /// The A300-8 of Table III: 2 sockets, 8 VEs.
    pub fn a300_8(config: MachineConfig) -> Arc<Self> {
        Self::build(Topology::a300_8(), config)
    }

    /// A small machine for tests: one socket, `ves` VEs.
    pub fn small(ves: u8, config: MachineConfig) -> Arc<Self> {
        Self::build(Topology::single_socket(ves), config)
    }

    fn build(topology: Topology, config: MachineConfig) -> Arc<Self> {
        let ves: Vec<Arc<VeDevice>> = (0..topology.ves())
            .map(|v| {
                VeDevice::new(
                    v,
                    topology.ve_socket(v),
                    config.hbm_bytes,
                    Arc::clone(topology.link(v)),
                )
            })
            .collect();
        let vh: Vec<Arc<VhMemory>> = (0..topology.sockets())
            .map(|_| VhMemory::new(config.vh_bytes, config.vh_page))
            .collect();
        let veos: Vec<Arc<Veos>> = ves
            .iter()
            .map(|ve| Veos::new(Arc::clone(ve), config.improved_dma))
            .collect();
        Arc::new(Self {
            config,
            topology,
            ves,
            vh,
            shm: Arc::new(ShmManager::new()),
            veos,
        })
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// System topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// All VE devices.
    pub fn ves(&self) -> &[Arc<VeDevice>] {
        &self.ves
    }

    /// VE device `v`.
    pub fn ve(&self, v: u8) -> &Arc<VeDevice> {
        &self.ves[v as usize]
    }

    /// VH memory of `socket`.
    pub fn vh(&self, socket: u8) -> &Arc<VhMemory> {
        &self.vh[socket as usize]
    }

    /// The machine's SysV shm registry.
    pub fn shm(&self) -> &Arc<ShmManager> {
        &self.shm
    }

    /// The VEOS instance of VE `v`.
    pub fn veos(&self, v: u8) -> &Arc<Veos> {
        &self.veos[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a300_8_assembly() {
        let m = AuroraMachine::a300_8(MachineConfig {
            hbm_bytes: 1 << 20,
            vh_bytes: 1 << 20,
            ..Default::default()
        });
        assert_eq!(m.ves().len(), 8);
        assert_eq!(m.topology().sockets(), 2);
        assert_eq!(m.ve(5).socket(), 1);
    }

    #[test]
    fn vh_alloc_write_read() {
        let m = AuroraMachine::small(1, MachineConfig::default());
        let vh = m.vh(0);
        let a = vh.alloc(1000).unwrap();
        assert!(a.get() >= VH_VADDR_BASE);
        vh.write(a, b"host buffer").unwrap();
        let mut out = [0u8; 11];
        vh.read(a, &mut out).unwrap();
        assert_eq!(&out, b"host buffer");
        vh.free(a).unwrap();
        assert!(vh.translate(a).is_err(), "unmapped after free");
    }

    #[test]
    fn vh_allocations_are_page_aligned() {
        let m = AuroraMachine::small(1, MachineConfig::default());
        let vh = m.vh(0);
        let a = vh.alloc(10).unwrap();
        assert_eq!(a.get() % PageSize::Huge2M.bytes(), 0);
    }

    #[test]
    fn small_pages_config() {
        let m = AuroraMachine::small(
            1,
            MachineConfig {
                vh_page: PageSize::Small4K,
                ..Default::default()
            },
        );
        assert_eq!(m.vh(0).page_size(), PageSize::Small4K);
        let a = m.vh(0).alloc(10).unwrap();
        assert_eq!(a.get() % 4096, 0);
    }

    #[test]
    fn bad_free_rejected() {
        let m = AuroraMachine::small(1, MachineConfig::default());
        assert!(m.vh(0).free(VhAddr(VH_VADDR_BASE + 12345)).is_err());
    }
}
