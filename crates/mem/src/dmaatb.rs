//! DMAATB — the VE's DMA Address Translation Buffer (§IV-A).
//!
//! The VE has no IOMMU; before VE code can reach VH memory (or expose its
//! own HBM to the user DMA engine), the memory must be *registered* in
//! the DMAATB, which maps a VEHVA (VE Host Virtual Address) window onto
//! the target memory. LHM/SHM instructions and user-DMA descriptors then
//! operate on VEHVAs with **no** on-the-fly OS translation — the very
//! property that makes the paper's DMA protocol 13× cheaper than VEO.
//!
//! The table has a limited number of entries (real DMAATBs are small);
//! registration is the expensive, setup-time operation.

use crate::{MemError, Region, Vehva};
use std::sync::{Arc, Mutex};

/// What a DMAATB entry points at.
#[derive(Clone, Debug)]
pub struct DmaTarget {
    /// The backing memory of the registered range.
    pub region: Arc<Region>,
    /// Byte offset of the registered range inside `region`.
    pub offset: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    vehva: u64,
    len: u64,
    target: DmaTarget,
}

/// The per-VE translation table for host-memory (and local) DMA windows.
#[derive(Debug)]
pub struct Dmaatb {
    entries: Mutex<Vec<Option<Entry>>>,
    next_vehva: Mutex<u64>,
}

/// Fixed VEHVA base so null stays invalid.
const VEHVA_BASE: u64 = 0x1_0000_0000;
/// Registration granularity (64 MiB VE pages are typical for DMAATB).
const VEHVA_ALIGN: u64 = 1 << 16;

impl Dmaatb {
    /// A DMAATB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(vec![None; capacity]),
            next_vehva: Mutex::new(VEHVA_BASE),
        }
    }

    /// Register `len` bytes of `target` and return the VEHVA window base.
    pub fn register(&self, target: DmaTarget, len: u64) -> Result<Vehva, MemError> {
        if target.offset + len > target.region.len() {
            return Err(MemError::OutOfBounds {
                offset: target.offset,
                len,
                size: target.region.len(),
            });
        }
        let mut entries = self.entries.lock().unwrap();
        let slot = entries
            .iter_mut()
            .find(|e| e.is_none())
            .ok_or(MemError::DmaatbFull)?;
        let mut next = self.next_vehva.lock().unwrap();
        let vehva = *next;
        *next += len.next_multiple_of(VEHVA_ALIGN).max(VEHVA_ALIGN);
        *slot = Some(Entry { vehva, len, target });
        Ok(Vehva(vehva))
    }

    /// Drop the registration whose window starts at `vehva`.
    pub fn unregister(&self, vehva: Vehva) -> Result<(), MemError> {
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter_mut() {
            if matches!(e, Some(entry) if entry.vehva == vehva.get()) {
                *e = None;
                return Ok(());
            }
        }
        Err(MemError::NotMapped { addr: vehva.get() })
    }

    /// Translate an access of `len` bytes at `vehva` into the registered
    /// target. The access must lie entirely within one registration
    /// (hardware would raise an exception otherwise).
    pub fn translate(&self, vehva: Vehva, len: u64) -> Result<DmaTarget, MemError> {
        let entries = self.entries.lock().unwrap();
        for e in entries.iter().flatten() {
            if vehva.get() >= e.vehva && vehva.get() + len <= e.vehva + e.len {
                let delta = vehva.get() - e.vehva;
                return Ok(DmaTarget {
                    region: Arc::clone(&e.target.region),
                    offset: e.target.offset + delta,
                });
            }
            // Partially inside → non-contiguous fault.
            if vehva.get() < e.vehva + e.len && vehva.get() + len > e.vehva {
                return Err(MemError::NotContiguous { addr: vehva.get() });
            }
        }
        Err(MemError::NotMapped { addr: vehva.get() })
    }

    /// Number of live registrations.
    pub fn live_entries(&self) -> usize {
        self.entries.lock().unwrap().iter().flatten().count()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(len: u64) -> DmaTarget {
        DmaTarget {
            region: Region::new(len),
            offset: 0,
        }
    }

    #[test]
    fn register_translate_roundtrip() {
        let atb = Dmaatb::new(4);
        let t = target(4096);
        t.region.write(100, b"host data").unwrap();
        let vehva = atb.register(t, 4096).unwrap();
        let tr = atb.translate(vehva.offset(100), 9).unwrap();
        let mut buf = [0u8; 9];
        tr.region.read(tr.offset, &mut buf).unwrap();
        assert_eq!(&buf, b"host data");
    }

    #[test]
    fn distinct_windows() {
        let atb = Dmaatb::new(4);
        let a = atb.register(target(64), 64).unwrap();
        let b = atb.register(target(64), 64).unwrap();
        assert_ne!(a, b);
        assert_eq!(atb.live_entries(), 2);
    }

    #[test]
    fn concurrent_registrations_get_disjoint_aligned_windows() {
        let atb = Dmaatb::new(8);
        let start = std::sync::Barrier::new(8);
        let mut windows: Vec<(Vehva, u64, DmaTarget)> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..=8u64)
                .map(|i| {
                    let (atb, start) = (&atb, &start);
                    s.spawn(move || {
                        let len = i * 40_000;
                        let t = target(len);
                        start.wait();
                        (atb.register(t.clone(), len).unwrap(), len, t)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        windows.sort_by_key(|(v, _, _)| v.get());
        for pair in windows.windows(2) {
            let (v, len, _) = &pair[0];
            assert!(v.get() + len <= pair[1].0.get(), "windows overlap");
        }
        for (v, len, t) in &windows {
            assert_eq!(v.get() % VEHVA_ALIGN, 0, "unaligned window");
            let back = atb.translate(*v, *len).unwrap();
            assert!(Arc::ptr_eq(&back.region, &t.region), "wrong target");
        }
        assert_eq!(atb.live_entries(), 8);
    }

    #[test]
    fn capacity_enforced() {
        let atb = Dmaatb::new(2);
        atb.register(target(64), 64).unwrap();
        atb.register(target(64), 64).unwrap();
        assert!(matches!(
            atb.register(target(64), 64),
            Err(MemError::DmaatbFull)
        ));
    }

    #[test]
    fn unregister_frees_slot() {
        let atb = Dmaatb::new(1);
        let v = atb.register(target(64), 64).unwrap();
        atb.unregister(v).unwrap();
        assert_eq!(atb.live_entries(), 0);
        assert!(atb.register(target(64), 64).is_ok());
        assert!(matches!(
            atb.unregister(Vehva(0x999)),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn out_of_window_access_faults() {
        let atb = Dmaatb::new(2);
        let v = atb.register(target(128), 128).unwrap();
        assert!(atb.translate(v, 128).is_ok());
        assert!(matches!(
            atb.translate(v.offset(120), 16),
            Err(MemError::NotContiguous { .. })
        ));
        assert!(matches!(
            atb.translate(Vehva(1), 8),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn registration_respects_region_bounds() {
        let atb = Dmaatb::new(2);
        let t = DmaTarget {
            region: Region::new(64),
            offset: 32,
        };
        assert!(matches!(
            atb.register(t, 64),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn offset_registration_translates_with_offset() {
        let atb = Dmaatb::new(2);
        let region = Region::new(256);
        region.write(128, &[9u8; 8]).unwrap();
        let v = atb
            .register(
                DmaTarget {
                    region: Arc::clone(&region),
                    offset: 128,
                },
                64,
            )
            .unwrap();
        let t = atb.translate(v, 8).unwrap();
        assert_eq!(t.offset, 128);
        let mut b = [0u8; 8];
        t.region.read(t.offset, &mut b).unwrap();
        assert_eq!(b, [9u8; 8]);
    }
}
