//! VE processes and their VEMVA address spaces.

use aurora_mem::{MemError, PageSize, PageTable, Region, VeAddr};
use aurora_sim_core::Clock;
use aurora_ve::VeDevice;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Base of VE process virtual addresses (VEMVA), as on real VEs.
pub(crate) const VEMVA_BASE: u64 = 0x6000_0000_0000;

/// A process running on a Vector Engine.
///
/// The VE runs no OS: this object *is* the VEOS-side process image —
/// address space, allocations, and the process's virtual clock. The code
/// of the process executes on host threads spawned by the VEO layer.
#[derive(Debug)]
pub struct VeProcess {
    pid: u32,
    ve: Arc<VeDevice>,
    clock: Clock,
    page_table: Mutex<PageTable>,
    /// vaddr → (hbm offset, len) for live allocations.
    allocations: Mutex<HashMap<u64, (u64, u64)>>,
}

impl VeProcess {
    pub(crate) fn new(pid: u32, ve: Arc<VeDevice>) -> Arc<Self> {
        Arc::new(Self {
            pid,
            ve,
            clock: Clock::new(),
            // VE pages are large (64 MiB native); translation cost on the
            // VE side is negligible next to the VH side's.
            page_table: Mutex::new(PageTable::new(PageSize::Huge64M)),
            allocations: Mutex::new(HashMap::new()),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The device this process runs on.
    pub fn ve(&self) -> &Arc<VeDevice> {
        &self.ve
    }

    /// The process's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Allocate `len` bytes of VE memory; returns the VEMVA.
    ///
    /// The mapping is VEMVA = base + HBM offset, so translation is exact
    /// but still goes through the page table (and is checked).
    pub fn alloc_mem(&self, len: u64) -> Result<VeAddr, MemError> {
        let p = self.page_table.lock().unwrap().page_size();
        let hbm_off = self.ve.alloc(len.max(1), 8)?;
        let vaddr = VEMVA_BASE + hbm_off;
        // Map the pages this allocation touches (identity + base). Page
        // table entries may already exist from neighbouring allocations —
        // identical mappings, so overwriting is harmless.
        let first_page = vaddr / p.bytes() * p.bytes();
        let last_end = (vaddr + len.max(1)).next_multiple_of(p.bytes());
        self.page_table.lock().unwrap().map_range(
            first_page,
            first_page - VEMVA_BASE,
            last_end - first_page,
        )?;
        self.allocations
            .lock()
            .unwrap()
            .insert(vaddr, (hbm_off, len.max(1)));
        Ok(VeAddr(vaddr))
    }

    /// Free a VE allocation.
    pub fn free_mem(&self, addr: VeAddr) -> Result<(), MemError> {
        let (hbm_off, _len) = self
            .allocations
            .lock()
            .unwrap()
            .remove(&addr.get())
            .ok_or(MemError::BadFree { offset: addr.get() })?;
        // Pages stay mapped (other allocations may share them); the HBM
        // range returns to the device allocator.
        self.ve.free(hbm_off)
    }

    /// Translate a VEMVA to its HBM offset, checking `len` stays within
    /// the address space.
    pub fn translate(&self, addr: VeAddr, len: u64) -> Result<u64, MemError> {
        let off = self.page_table.lock().unwrap().translate(addr.get())?;
        if off + len > self.ve.hbm().len() {
            return Err(MemError::OutOfBounds {
                offset: off,
                len,
                size: self.ve.hbm().len(),
            });
        }
        Ok(off)
    }

    /// The backing device memory (for code running "on the VE").
    pub fn hbm(&self) -> &Arc<Region> {
        self.ve.hbm()
    }

    /// Write bytes into process memory at `addr` (local access).
    pub fn write(&self, addr: VeAddr, data: &[u8]) -> Result<(), MemError> {
        let off = self.translate(addr, data.len() as u64)?;
        self.hbm().write(off, data)
    }

    /// Read bytes from process memory at `addr` (local access).
    pub fn read(&self, addr: VeAddr, out: &mut [u8]) -> Result<(), MemError> {
        let off = self.translate(addr, out.len() as u64)?;
        self.hbm().read(off, out)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocations.lock().unwrap().len()
    }

    /// Release-store a 64-bit protocol flag at `addr` (8-aligned VEMVA).
    pub fn store_flag(&self, addr: VeAddr, value: u64) -> Result<(), MemError> {
        let off = self.translate(addr, 8)?;
        self.hbm().store_u64(off, value)
    }

    /// Acquire-load a 64-bit protocol flag at `addr` (8-aligned VEMVA).
    pub fn load_flag(&self, addr: VeAddr) -> Result<u64, MemError> {
        let off = self.translate(addr, 8)?;
        self.hbm().load_u64(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Arc<VeProcess> {
        VeProcess::new(1, VeDevice::standalone(0, 8 << 20))
    }

    #[test]
    fn alloc_translate_roundtrip() {
        let p = proc();
        let a = p.alloc_mem(4096).unwrap();
        assert!(a.get() >= VEMVA_BASE);
        let off = p.translate(a, 4096).unwrap();
        assert_eq!(off, a.get() - VEMVA_BASE);
    }

    #[test]
    fn write_read_through_vemva() {
        let p = proc();
        let a = p.alloc_mem(64).unwrap();
        p.write(a, b"ve local data").unwrap();
        let mut out = [0u8; 13];
        p.read(a, &mut out).unwrap();
        assert_eq!(&out, b"ve local data");
    }

    #[test]
    fn free_returns_memory() {
        let p = proc();
        let before = p.ve().allocated_bytes();
        let a = p.alloc_mem(1000).unwrap();
        assert!(p.ve().allocated_bytes() > before);
        p.free_mem(a).unwrap();
        assert_eq!(p.ve().allocated_bytes(), before);
        assert!(p.free_mem(a).is_err(), "double free");
    }

    #[test]
    fn translate_checks_bounds() {
        let p = proc();
        let a = p.alloc_mem(64).unwrap();
        assert!(p.translate(a, 16 << 20).is_err());
        assert!(p.translate(VeAddr(0x123), 8).is_err(), "unmapped VEMVA");
    }

    #[test]
    fn allocations_do_not_alias() {
        let p = proc();
        let a = p.alloc_mem(256).unwrap();
        let b = p.alloc_mem(256).unwrap();
        p.write(a, &[1u8; 256]).unwrap();
        p.write(b, &[2u8; 256]).unwrap();
        let mut out = [0u8; 256];
        p.read(a, &mut out).unwrap();
        assert_eq!(out, [1u8; 256]);
    }
}
