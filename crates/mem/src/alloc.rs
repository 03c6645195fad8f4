//! First-fit range allocator with coalescing.
//!
//! Allocates offsets inside a simulated physical memory or shm segment.
//! Backs `offload::allocate` / `offload::free` (Table II) and VEOS memory
//! management. First-fit with address-ordered free list and eager
//! coalescing — simple, deterministic, and good enough for benchmark
//! allocation patterns.

use crate::MemError;
use std::collections::BTreeMap;

/// Offset allocator over `[0, size)`.
#[derive(Debug, Clone)]
pub struct RangeAllocator {
    /// Free ranges: offset → length; address-ordered, non-adjacent.
    free: BTreeMap<u64, u64>,
    /// Live allocations: offset → length.
    allocated: BTreeMap<u64, u64>,
}

impl RangeAllocator {
    /// Allocator over `size` bytes.
    pub fn new(size: u64) -> Self {
        let mut free = BTreeMap::new();
        if size > 0 {
            free.insert(0, size);
        }
        Self {
            free,
            allocated: BTreeMap::new(),
        }
    }

    /// Sum of allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.values().sum()
    }

    /// Largest free contiguous range.
    pub(crate) fn largest_free(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocated.len()
    }

    /// Allocate `len` bytes aligned to `align` (a power of two).
    ///
    /// Returns the offset of the new allocation.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<u64, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if len == 0 {
            // Zero-sized allocations get a unique non-null offset without
            // consuming space — mirroring malloc(0) returning a valid ptr.
            // We model them as 1-byte allocations for simplicity.
            return self.alloc(1, align);
        }
        let mut found: Option<(u64, u64, u64)> = None; // (range_off, range_len, aligned_off)
        for (&off, &flen) in &self.free {
            let aligned = off.next_multiple_of(align);
            let pad = aligned - off;
            if flen >= pad + len {
                found = Some((off, flen, aligned));
                break;
            }
        }
        let (off, flen, aligned) = found.ok_or(MemError::OutOfMemory {
            requested: len,
            largest_free: self.largest_free(),
        })?;
        self.free.remove(&off);
        let pad = aligned - off;
        if pad > 0 {
            self.free.insert(off, pad);
        }
        let tail = flen - pad - len;
        if tail > 0 {
            self.free.insert(aligned + len, tail);
        }
        self.allocated.insert(aligned, len);
        Ok(aligned)
    }

    /// Free the allocation starting at `offset`.
    pub fn free(&mut self, offset: u64) -> Result<(), MemError> {
        let len = self
            .allocated
            .remove(&offset)
            .ok_or(MemError::BadFree { offset })?;
        self.insert_free(offset, len);
        Ok(())
    }

    /// Size of the live allocation at `offset`, if any.
    pub fn allocation_len(&self, offset: u64) -> Option<u64> {
        self.allocated.get(&offset).copied()
    }

    fn insert_free(&mut self, mut offset: u64, mut len: u64) {
        // Coalesce with predecessor.
        if let Some((&poff, &plen)) = self.free.range(..offset).next_back() {
            debug_assert!(poff + plen <= offset, "free-list overlap");
            if poff + plen == offset {
                self.free.remove(&poff);
                offset = poff;
                len += plen;
            }
        }
        // Coalesce with successor.
        if let Some((&noff, &nlen)) = self.free.range(offset + len..).next() {
            if offset + len == noff {
                self.free.remove(&noff);
                len += nlen;
            }
        }
        self.free.insert(offset, len);
    }
}

// Test-only accessors: the proptests assert them after every operation.
#[cfg(test)]
impl RangeAllocator {
    /// Sum of free bytes.
    fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    /// Debug invariant check: free list sorted, non-overlapping,
    /// non-adjacent, within `[0, size)`, and disjoint from allocations.
    fn check_invariants(&self, size: u64) -> bool {
        let mut prev_end: Option<u64> = None;
        for (&off, &len) in &self.free {
            if len == 0 || off + len > size {
                return false;
            }
            if let Some(pe) = prev_end {
                if off <= pe {
                    return false; // overlap or missed coalescing boundary
                }
                if off == pe {
                    return false; // adjacent — should have coalesced
                }
            }
            prev_end = Some(off + len);
        }
        // Allocations must not overlap free ranges.
        for (&aoff, &alen) in &self.allocated {
            if aoff + alen > size {
                return false;
            }
            for (&foff, &flen) in &self.free {
                if aoff < foff + flen && foff < aoff + alen {
                    return false;
                }
            }
        }
        self.free_bytes() + self.allocated_bytes() == size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_alloc_free() {
        let mut a = RangeAllocator::new(1024);
        let x = a.alloc(100, 1).unwrap();
        let y = a.alloc(200, 1).unwrap();
        assert_ne!(x, y);
        assert_eq!(a.allocated_bytes(), 300);
        a.free(x).unwrap();
        a.free(y).unwrap();
        assert_eq!(a.free_bytes(), 1024);
        assert_eq!(a.largest_free(), 1024, "coalesced back to one block");
        assert!(a.check_invariants(1024));
    }

    #[test]
    fn alignment_respected() {
        let mut a = RangeAllocator::new(1 << 20);
        a.alloc(3, 1).unwrap();
        let x = a.alloc(64, 4096).unwrap();
        assert_eq!(x % 4096, 0);
        let y = a.alloc(10, 256).unwrap();
        assert_eq!(y % 256, 0);
        assert!(a.check_invariants(1 << 20));
    }

    #[test]
    fn out_of_memory() {
        let mut a = RangeAllocator::new(128);
        a.alloc(100, 1).unwrap();
        let err = a.alloc(64, 1).unwrap_err();
        assert!(matches!(
            err,
            MemError::OutOfMemory {
                largest_free: 28,
                ..
            }
        ));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = RangeAllocator::new(128);
        let x = a.alloc(16, 1).unwrap();
        a.free(x).unwrap();
        assert!(matches!(a.free(x), Err(MemError::BadFree { .. })));
        assert!(matches!(a.free(5), Err(MemError::BadFree { .. })));
    }

    #[test]
    fn zero_sized_allocations_are_distinct() {
        let mut a = RangeAllocator::new(128);
        let x = a.alloc(0, 8).unwrap();
        let y = a.alloc(0, 8).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut a = RangeAllocator::new(1000);
        let offs: Vec<u64> = (0..10).map(|_| a.alloc(100, 1).unwrap()).collect();
        assert_eq!(a.free_bytes(), 0);
        // Free every other block: five 100-byte holes.
        for &o in offs.iter().step_by(2) {
            a.free(o).unwrap();
        }
        assert_eq!(a.largest_free(), 100);
        assert!(a.alloc(101, 1).is_err(), "holes are not adjacent");
        // Free the rest: everything coalesces.
        for &o in offs.iter().skip(1).step_by(2) {
            a.free(o).unwrap();
        }
        assert_eq!(a.largest_free(), 1000);
        assert!(a.check_invariants(1000));
    }

    #[test]
    fn allocation_len_query() {
        let mut a = RangeAllocator::new(128);
        let x = a.alloc(48, 1).unwrap();
        assert_eq!(a.allocation_len(x), Some(48));
        assert_eq!(a.allocation_len(x + 1), None);
    }

    proptest! {
        /// Random alloc/free interleavings keep all invariants.
        #[test]
        fn random_ops_preserve_invariants(
            ops in proptest::collection::vec((0u8..2, 1u64..512, 0usize..64), 1..200)
        ) {
            let mut a = RangeAllocator::new(64 * 1024);
            let mut live: Vec<u64> = Vec::new();
            for (kind, len, idx) in ops {
                if kind == 0 || live.is_empty() {
                    let align = 1u64 << (len % 7); // 1..64
                    if let Ok(off) = a.alloc(len, align) {
                        prop_assert_eq!(off % align, 0);
                        live.push(off);
                    }
                } else {
                    let off = live.swap_remove(idx % live.len());
                    prop_assert!(a.free(off).is_ok());
                }
                prop_assert!(a.check_invariants(64 * 1024));
            }
            // Allocations never overlap.
            let mut ranges: Vec<(u64, u64)> = live
                .iter()
                .map(|&o| (o, a.allocation_len(o).unwrap()))
                .collect();
            ranges.sort();
            for w in ranges.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0);
            }
            // Freeing everything returns the arena to a single block.
            for off in live {
                a.free(off).unwrap();
            }
            prop_assert_eq!(a.largest_free(), 64 * 1024);
        }
    }
}
