//! One Vector Engine card.

use crate::specs::VeSpecs;
use aurora_mem::{Dmaatb, MemError, RangeAllocator, Region};
use aurora_pcie::PcieLink;
use std::sync::{Arc, Mutex};

/// Number of DMAATB entries per VE (small, as on real hardware).
pub(crate) const DMAATB_ENTRIES: usize = 256;

/// A Vector Engine device: HBM2, PCIe link, DMAATB, and specs.
///
/// The simulated HBM is allocated lazily sized well below the real
/// 48 GiB; the configured capacity only bounds the allocator.
#[derive(Debug)]
pub struct VeDevice {
    id: u8,
    socket: u8,
    specs: VeSpecs,
    hbm: Arc<Region>,
    hbm_alloc: Mutex<RangeAllocator>,
    link: Arc<PcieLink>,
    dmaatb: Dmaatb,
}

impl VeDevice {
    /// Create VE `id` attached to `socket` with `hbm_bytes` of simulated
    /// device memory on the given link.
    pub fn new(id: u8, socket: u8, hbm_bytes: u64, link: Arc<PcieLink>) -> Arc<Self> {
        Arc::new(Self {
            id,
            socket,
            specs: VeSpecs::type_10b(),
            hbm: Region::new(hbm_bytes),
            hbm_alloc: Mutex::new(RangeAllocator::new(hbm_bytes)),
            link,
            dmaatb: Dmaatb::new(DMAATB_ENTRIES),
        })
    }

    /// Convenience constructor with a private default link (tests).
    pub fn standalone(id: u8, hbm_bytes: u64) -> Arc<Self> {
        Self::new(id, 0, hbm_bytes, Arc::new(PcieLink::default()))
    }

    /// Device index.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Hosting socket (PCIe switch) index.
    pub fn socket(&self) -> u8 {
        self.socket
    }

    /// Hardware specs (Table I).
    pub fn specs(&self) -> &VeSpecs {
        &self.specs
    }

    /// The device memory.
    pub fn hbm(&self) -> &Arc<Region> {
        &self.hbm
    }

    /// The device's PCIe link.
    pub fn link(&self) -> &Arc<PcieLink> {
        &self.link
    }

    /// The device's DMA address translation buffer.
    pub fn dmaatb(&self) -> &Dmaatb {
        &self.dmaatb
    }

    /// Allocate `len` bytes of device memory (8-byte aligned minimum).
    pub fn alloc(&self, len: u64, align: u64) -> Result<u64, MemError> {
        self.hbm_alloc.lock().unwrap().alloc(len, align.max(8))
    }

    /// Free a device allocation.
    pub fn free(&self, offset: u64) -> Result<(), MemError> {
        self.hbm_alloc.lock().unwrap().free(offset)
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> u64 {
        self.hbm_alloc.lock().unwrap().allocated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_construction() {
        let ve = VeDevice::standalone(3, 1 << 20);
        assert_eq!(ve.id(), 3);
        assert_eq!(ve.specs().cores, 8);
        assert_eq!(ve.hbm().len(), 1 << 20);
        assert_eq!(ve.dmaatb().capacity(), DMAATB_ENTRIES);
    }

    #[test]
    fn device_allocation() {
        let ve = VeDevice::standalone(0, 4096);
        let a = ve.alloc(100, 1).unwrap();
        assert_eq!(a % 8, 0, "minimum alignment");
        let b = ve.alloc(100, 64).unwrap();
        assert_eq!(b % 64, 0);
        assert_eq!(ve.allocated_bytes(), 200);
        ve.free(a).unwrap();
        ve.free(b).unwrap();
        assert_eq!(ve.allocated_bytes(), 0);
    }

    #[test]
    fn allocation_exhaustion() {
        let ve = VeDevice::standalone(0, 4096);
        assert!(ve.alloc(8192, 8).is_err());
    }
}
