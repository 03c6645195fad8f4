//! Page tables and page sizes.
//!
//! The privileged DMA path translates virtual to physical addresses page
//! by page inside VEOS (§I-B, §III-D); the number of pages a transfer
//! touches therefore feeds directly into its modeled cost, and the page
//! size is a first-order performance knob ("it is important to use huge
//! pages of at least 2 MiB", §V-B).

use crate::MemError;
use aurora_sim_core::calib;
use std::collections::HashMap;

/// Page sizes supported by the simulated platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB default pages.
    Small4K,
    /// 2 MiB huge pages (the paper's recommendation).
    Huge2M,
    /// 64 MiB VE pages (the VE's native large page).
    Huge64M,
}

impl PageSize {
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Small4K => calib::SMALL_PAGE_BYTES,
            PageSize::Huge2M => calib::HUGE_PAGE_BYTES,
            PageSize::Huge64M => 64 * 1024 * 1024,
        }
    }

    /// Number of pages a range of `len` bytes starting at `addr` touches.
    pub fn pages_touched(self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let p = self.bytes();
        let first = addr / p;
        let last = (addr + len - 1) / p;
        last - first + 1
    }
}

/// A single-level page table for one address space.
///
/// Maps virtual page numbers to physical offsets within one backing
/// memory. Contiguity of the physical side is *not* assumed — exactly why
/// the DMA manager must translate per page.
#[derive(Debug)]
pub struct PageTable {
    page: PageSize,
    /// vpn → physical page offset (byte offset of the frame).
    map: HashMap<u64, u64>,
}

impl PageTable {
    /// New empty table with the given page size.
    pub fn new(page: PageSize) -> Self {
        Self {
            page,
            map: HashMap::new(),
        }
    }

    /// This table's page size.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Map the virtual range `[vaddr, vaddr+len)` to the physical range
    /// starting at `paddr`. Both must be page-aligned; the physical range
    /// is contiguous in this call (callers may issue many calls to build a
    /// scattered mapping).
    pub fn map_range(&mut self, vaddr: u64, paddr: u64, len: u64) -> Result<(), MemError> {
        let p = self.page.bytes();
        if !vaddr.is_multiple_of(p) {
            return Err(MemError::Misaligned {
                offset: vaddr,
                align: p,
            });
        }
        if !paddr.is_multiple_of(p) {
            return Err(MemError::Misaligned {
                offset: paddr,
                align: p,
            });
        }
        let pages = len.div_ceil(p);
        for i in 0..pages {
            self.map.insert(vaddr / p + i, paddr + i * p);
        }
        Ok(())
    }

    /// Remove mappings covering `[vaddr, vaddr+len)`.
    pub fn unmap_range(&mut self, vaddr: u64, len: u64) {
        let p = self.page.bytes();
        let first = vaddr / p;
        let pages = len.div_ceil(p);
        for i in 0..pages {
            self.map.remove(&(first + i));
        }
    }

    /// Translate one virtual address to its physical address.
    pub fn translate(&self, vaddr: u64) -> Result<u64, MemError> {
        let p = self.page.bytes();
        let frame = self
            .map
            .get(&(vaddr / p))
            .ok_or(MemError::NotMapped { addr: vaddr })?;
        Ok(frame + vaddr % p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes() {
        assert_eq!(PageSize::Small4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge64M.bytes(), 64 * 1024 * 1024);
    }

    #[test]
    fn pages_touched_counts_boundaries() {
        let p = PageSize::Small4K;
        assert_eq!(p.pages_touched(0, 0), 0);
        assert_eq!(p.pages_touched(0, 1), 1);
        assert_eq!(p.pages_touched(0, 4096), 1);
        assert_eq!(p.pages_touched(0, 4097), 2);
        assert_eq!(p.pages_touched(4095, 2), 2, "straddles a boundary");
        assert_eq!(p.pages_touched(4096, 4096), 1);
    }

    #[test]
    fn identity_map_translates() {
        let mut pt = PageTable::new(PageSize::Small4K);
        pt.map_range(0, 0, 64 * 1024).unwrap();
        assert_eq!(pt.translate(0).unwrap(), 0);
        assert_eq!(pt.translate(5000).unwrap(), 5000);
        assert_eq!(pt.translate(64 * 1024 - 1).unwrap(), 64 * 1024 - 1);
        assert!(pt.translate(64 * 1024).is_err());
    }

    #[test]
    fn scattered_map_translates_per_page() {
        let mut pt = PageTable::new(PageSize::Small4K);
        // Virtual [0, 8K) → physical frames at 100K and 4K (reversed).
        pt.map_range(0, 100 * 4096, 4096).unwrap();
        pt.map_range(4096, 4096, 4096).unwrap();
        assert_eq!(pt.translate(10).unwrap(), 100 * 4096 + 10);
        assert_eq!(pt.translate(4096 + 10).unwrap(), 4096 + 10);
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new(PageSize::Huge2M);
        let p = PageSize::Huge2M.bytes();
        pt.map_range(0, 0, 4 * p).unwrap();
        pt.unmap_range(p, 2 * p);
        assert!(pt.translate(0).is_ok());
        assert!(pt.translate(p).is_err());
        assert!(pt.translate(3 * p).is_ok());
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut pt = PageTable::new(PageSize::Small4K);
        assert!(matches!(
            pt.map_range(5, 0, 4096),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            pt.map_range(0, 5, 4096),
            Err(MemError::Misaligned { .. })
        ));
    }
}
