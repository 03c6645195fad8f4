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
//! registration is the expensive, setup-time operation. VE code resolves
//! its registration once ([`Dmaatb::window`]) and then reaches registered
//! memory through the [`DmaWindow`] alone: an access takes no table lock
//! and no reference count, just the window's bounds check.

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

/// One DMAATB registration, resolved: the VEHVA window `[base, end)` and
/// the memory behind it.
///
/// [`DmaWindow::access`] applies the table's fault rules (`NotMapped`
/// outside the window, `NotContiguous` for an access that crosses an
/// edge of it); the caller's [`Region`] access adds the bounds checks.
#[derive(Clone, Debug)]
pub struct DmaWindow {
    base: u64,
    end: u64,
    target: DmaTarget,
}

impl DmaWindow {
    /// VEHVA of the window's first byte.
    pub fn base(&self) -> Vehva {
        Vehva(self.base)
    }

    /// The registered memory and the byte offset of an access of `len`
    /// bytes at `vehva` inside it. The access must lie entirely within
    /// the window (hardware would raise an exception otherwise).
    #[inline]
    pub fn access(&self, vehva: Vehva, len: u64) -> Result<(&Region, u64), MemError> {
        let addr = vehva.get();
        // `None` is an access that runs past the end of the VEHVA space.
        let last = addr.checked_add(len);
        if addr >= self.base && last.is_some_and(|l| l <= self.end) {
            return Ok((&self.target.region, self.target.offset + (addr - self.base)));
        }
        if addr < self.end && last.is_none_or(|l| l > self.base) {
            return Err(MemError::NotContiguous { addr });
        }
        Err(MemError::NotMapped { addr })
    }
}

/// The per-VE translation table for host-memory (and local) DMA windows.
#[derive(Debug)]
pub struct Dmaatb {
    table: Mutex<Table>,
}

#[derive(Debug)]
struct Table {
    entries: Vec<Option<DmaWindow>>,
    /// VEHVA of the next registration; windows are never reused.
    next_vehva: u64,
}

/// Fixed VEHVA base so null stays invalid.
const VEHVA_BASE: u64 = 0x1_0000_0000;
/// Registration granularity (64 MiB VE pages are typical for DMAATB).
const VEHVA_ALIGN: u64 = 1 << 16;

impl Dmaatb {
    /// A DMAATB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            table: Mutex::new(Table {
                entries: vec![None; capacity],
                next_vehva: VEHVA_BASE,
            }),
        }
    }

    /// Register `len` bytes of `target` and return the VEHVA window base.
    pub fn register(&self, target: DmaTarget, len: u64) -> Result<Vehva, MemError> {
        if target
            .offset
            .checked_add(len)
            .is_none_or(|end| end > target.region.len())
        {
            return Err(MemError::OutOfBounds {
                offset: target.offset,
                len,
                size: target.region.len(),
            });
        }
        let mut table = self.table.lock().unwrap();
        let base = table.next_vehva;
        // An exhausted VEHVA space is as full as an exhausted table.
        let next = len
            .checked_next_multiple_of(VEHVA_ALIGN)
            .and_then(|span| base.checked_add(span.max(VEHVA_ALIGN)))
            .ok_or(MemError::DmaatbFull)?;
        let slot = table
            .entries
            .iter_mut()
            .find(|e| e.is_none())
            .ok_or(MemError::DmaatbFull)?;
        // `base + len <= next`, and `offset + len` fits the region: a
        // window's arithmetic cannot overflow.
        *slot = Some(DmaWindow {
            base,
            end: base + len,
            target,
        });
        table.next_vehva = next;
        Ok(Vehva(base))
    }

    /// Drop the registration whose window starts at `vehva`.
    pub fn unregister(&self, vehva: Vehva) -> Result<(), MemError> {
        let mut table = self.table.lock().unwrap();
        let slot = table
            .entries
            .iter_mut()
            .find(|e| e.as_ref().is_some_and(|w| w.base == vehva.get()))
            .ok_or(MemError::NotMapped { addr: vehva.get() })?;
        *slot = None;
        Ok(())
    }

    /// Resolve the registration whose window starts at `vehva`. This is
    /// the one lookup: VE code does it at setup and keeps the window.
    pub fn window(&self, vehva: Vehva) -> Result<DmaWindow, MemError> {
        let table = self.table.lock().unwrap();
        table
            .entries
            .iter()
            .flatten()
            .find(|w| w.base == vehva.get())
            .cloned()
            .ok_or(MemError::NotMapped { addr: vehva.get() })
    }

    /// Number of live registrations.
    pub fn live_entries(&self) -> usize {
        self.table.lock().unwrap().entries.iter().flatten().count()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.table.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn target(len: u64) -> DmaTarget {
        DmaTarget {
            region: Region::new(len),
            offset: 0,
        }
    }

    #[test]
    fn register_window_roundtrip() {
        let atb = Dmaatb::new(4);
        let t = target(4096);
        t.region.write(100, b"host data").unwrap();
        let vehva = atb.register(t, 4096).unwrap();
        let w = atb.window(vehva).unwrap();
        assert_eq!(w.base(), vehva);
        let (region, off) = w.access(vehva.offset(100), 9).unwrap();
        let mut buf = [0u8; 9];
        region.read(off, &mut buf).unwrap();
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
            let w = atb.window(*v).unwrap();
            let (back, _) = w.access(*v, *len).unwrap();
            assert!(std::ptr::eq(back, &*t.region), "wrong target");
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
        assert!(matches!(atb.window(v), Err(MemError::NotMapped { .. })));
        assert!(atb.register(target(64), 64).is_ok());
        assert!(matches!(
            atb.unregister(Vehva(0x999)),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn window_is_found_by_its_base_only() {
        let atb = Dmaatb::new(2);
        let v = atb.register(target(128), 128).unwrap();
        assert!(atb.window(v).is_ok());
        assert!(matches!(
            atb.window(v.offset(8)),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn out_of_window_access_faults() {
        let atb = Dmaatb::new(2);
        let v = atb.register(target(128), 128).unwrap();
        let w = atb.window(v).unwrap();
        assert!(w.access(v, 128).is_ok());
        assert!(matches!(
            w.access(v.offset(120), 16),
            Err(MemError::NotContiguous { .. })
        ));
        assert!(matches!(
            w.access(Vehva(1), 8),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn access_near_the_top_of_the_vehva_space_faults() {
        let atb = Dmaatb::new(2);
        let v = atb.register(target(128), 128).unwrap();
        let w = atb.window(v).unwrap();
        let top = Vehva(u64::MAX - 3);
        assert_eq!(
            w.access(top, 8).unwrap_err(),
            MemError::NotMapped { addr: top.get() }
        );
        assert_eq!(
            w.access(top, 0).unwrap_err(),
            MemError::NotMapped { addr: top.get() }
        );
        // Starts inside the window, runs past the end of the space.
        assert_eq!(
            w.access(v.offset(8), u64::MAX - 3).unwrap_err(),
            MemError::NotContiguous { addr: v.get() + 8 }
        );
        assert!(matches!(
            atb.register(
                DmaTarget {
                    region: Region::new(64),
                    offset: 8,
                },
                u64::MAX - 3,
            ),
            Err(MemError::OutOfBounds { .. })
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
        let w = atb.window(v).unwrap();
        let (r, off) = w.access(v, 8).unwrap();
        assert_eq!(off, 128);
        let mut b = [0u8; 8];
        r.read(off, &mut b).unwrap();
        assert_eq!(b, [9u8; 8]);
    }

    /// The table-wide translation the windows replaced: the first live
    /// entry, in slot order, that holds the access (its slot and target
    /// offset) or that the access partly overlaps. Computed in `u128`,
    /// so it states the rule without overflow.
    fn table_translate(atb: &Dmaatb, vehva: u64, len: u64) -> Result<(usize, u64), MemError> {
        let table = atb.table.lock().unwrap();
        let (v, l) = (vehva as u128, len as u128);
        for (slot, w) in table.entries.iter().enumerate() {
            let Some(w) = w else { continue };
            let (base, end) = (w.base as u128, w.end as u128);
            if v >= base && v + l <= end {
                return Ok((slot, w.target.offset + (vehva - w.base)));
            }
            if v < end && v + l > base {
                return Err(MemError::NotContiguous { addr: vehva });
            }
        }
        Err(MemError::NotMapped { addr: vehva })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every access through the resolved windows faults or lands
        /// exactly where the table-wide lookup does: same slot and
        /// offset, or the same error. Registrations carry offsets, some
        /// are dropped again (so slot order is not VEHVA order), and the
        /// accesses straddle window edges, alignment gaps and the top of
        /// the VEHVA space.
        #[test]
        fn windows_agree_with_the_table(
            regs in proptest::collection::vec((1u64..150_000, 0u64..150_000, 0u64..150_000, 0u8..4), 1..8),
            accesses in proptest::collection::vec((0u8..8, 0usize..8, 0u64..300_000, 0u64..200_000), 1..64),
        ) {
            let atb = Dmaatb::new(6);
            let mut bases = Vec::new();
            for (size, off, len, op) in regs {
                if op == 0 && !bases.is_empty() {
                    atb.unregister(bases.remove(size as usize % bases.len())).unwrap();
                }
                let offset = off % size;
                let len = len % (size - offset + 1);
                let t = DmaTarget { region: Region::new(size), offset };
                match atb.register(t, len) {
                    Ok(v) => bases.push(v),
                    Err(e) => prop_assert_eq!(e, MemError::DmaatbFull),
                }
            }
            prop_assume!(!bases.is_empty());
            let windows: Vec<DmaWindow> = bases.iter().map(|&v| atb.window(v).unwrap()).collect();
            for (kind, pick, delta, len) in accesses {
                let DmaWindow { base, end, .. } = windows[pick % windows.len()];
                let (vehva, len) = match kind {
                    0 => (u64::MAX - delta % 16, len),
                    1 => (base.saturating_sub(delta % 70_000), len),
                    2 => (base + delta, u64::MAX - len % 16),
                    // Ends one byte short of, at, or one past an edge.
                    3 => {
                        let back = (delta % 64).min(end - base);
                        (end - back, (back + len % 3).saturating_sub(1))
                    }
                    4 => {
                        let back = delta % 64;
                        (base - back, (back + len % 3).saturating_sub(1))
                    }
                    5 => (end + delta % 3, len % 64),
                    _ => (base + delta, len),
                };
                let results: Vec<_> = windows
                    .iter()
                    .map(|w| w.access(Vehva(vehva), len).map(|(r, off)| (r as *const Region, off)))
                    .collect();
                match table_translate(&atb, vehva, len) {
                    Ok((slot, off)) => {
                        let table = atb.table.lock().unwrap();
                        let hit = table.entries[slot].as_ref().unwrap();
                        let k = windows.iter().position(|w| w.base == hit.base).unwrap();
                        prop_assert_eq!(
                            results[k].clone(),
                            Ok((Arc::as_ptr(&hit.target.region), off))
                        );
                    }
                    Err(e) => {
                        prop_assert!(results.iter().all(|r| r.is_err()), "{e:?}: {results:?}");
                        let any_split = results
                            .iter()
                            .any(|r| matches!(r, Err(MemError::NotContiguous { .. })));
                        let want = if any_split {
                            MemError::NotContiguous { addr: vehva }
                        } else {
                            MemError::NotMapped { addr: vehva }
                        };
                        prop_assert_eq!(e, want);
                    }
                }
            }
        }
    }
}
