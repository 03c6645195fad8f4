//! A shared raw-memory region: the backing store of every simulated
//! physical memory.
//!
//! # Safety model
//!
//! A [`Region`] hands out *no* references to its interior; all access goes
//! through bounds-checked copy methods or through `AtomicU64` views
//! created with [`AtomicU64::from_ptr`]. Plain (non-atomic) reads/writes
//! of a byte range are only correct if callers never access the same
//! range concurrently from two threads with at least one writer — this is
//! exactly the ownership discipline of the paper's messaging protocols:
//! a message buffer belongs to the writer until the corresponding flag is
//! published with Release ordering and observed with Acquire ordering.
//! The protocol tests in `ham-backend-*` exercise this invariant under
//! real concurrency.

use crate::MemError;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-size, heap-backed, shareable raw memory.
pub struct Region {
    base: *mut u8,
    len: u64,
    layout: Layout,
}

// SAFETY: the region itself is just a block of bytes; synchronization of
// accesses is the callers' responsibility per the module-level contract.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Alignment of every region base: one simulated small page.
    pub(crate) const BASE_ALIGN: usize = 4096;

    /// Allocate a zero-initialised region of `len` bytes.
    ///
    /// Panics if `len` is zero or exceeds `isize::MAX`.
    pub fn new(len: u64) -> Arc<Region> {
        assert!(len > 0, "zero-sized region");
        let layout =
            Layout::from_size_align(len as usize, Self::BASE_ALIGN).expect("region too large");
        // SAFETY: layout has non-zero size (asserted above).
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "region allocation failed");
        Arc::new(Region { base, len, layout })
    }

    /// Region size in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Always false; regions cannot be empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn check(&self, offset: u64, len: u64) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.len,
            });
        }
        Ok(())
    }

    /// Copy `dst.len()` bytes out of the region starting at `offset`.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, dst.len() as u64)?;
        // SAFETY: range checked; caller upholds the no-concurrent-writer
        // contract for this range.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(offset as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        Ok(())
    }

    /// Copy `src` into the region starting at `offset`.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len() as u64)?;
        // SAFETY: range checked; caller upholds the single-writer contract.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base.add(offset as usize), src.len());
        }
        Ok(())
    }

    /// Copy `len` bytes from `src` at `src_off` into `dst` at `dst_off`.
    /// This is the simulated DMA engine's data path.
    pub fn copy_between(
        src: &Region,
        src_off: u64,
        dst: &Region,
        dst_off: u64,
        len: u64,
    ) -> Result<(), MemError> {
        src.check(src_off, len)?;
        dst.check(dst_off, len)?;
        // SAFETY: both ranges checked. `copy` (memmove) tolerates overlap
        // in case src and dst are the same region.
        unsafe {
            std::ptr::copy(
                src.base.add(src_off as usize),
                dst.base.add(dst_off as usize),
                len as usize,
            );
        }
        Ok(())
    }

    /// An atomic view of the 8-byte word at `offset` (must be 8-aligned).
    ///
    /// Used for protocol notification flags; pair a `store(Release)` by
    /// the producer with a `load(Acquire)` by the consumer to transfer
    /// ownership of the associated buffer range.
    pub fn atomic_u64(&self, offset: u64) -> Result<&AtomicU64, MemError> {
        self.check(offset, 8)?;
        if !offset.is_multiple_of(8) {
            return Err(MemError::Misaligned { offset, align: 8 });
        }
        // SAFETY: in-bounds, aligned, and the region outlives the returned
        // reference (tied to &self). Mixed atomic/non-atomic access to the
        // same word is excluded by the protocol contract.
        Ok(unsafe { AtomicU64::from_ptr(self.base.add(offset as usize) as *mut u64) })
    }

    /// Acquire-load the word at `offset`.
    pub fn load_u64(&self, offset: u64) -> Result<u64, MemError> {
        Ok(self.atomic_u64(offset)?.load(Ordering::Acquire))
    }

    /// Release-store the word at `offset`.
    pub fn store_u64(&self, offset: u64, value: u64) -> Result<(), MemError> {
        self.atomic_u64(offset)?.store(value, Ordering::Release);
        Ok(())
    }

    /// Read a little-endian `u64` with a plain (non-atomic) copy.
    pub fn read_u64_le(&self, offset: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` with a plain (non-atomic) copy.
    pub fn write_u64_le(&self, offset: u64, value: u64) -> Result<(), MemError> {
        self.write(offset, &value.to_le_bytes())
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: base/layout are the values produced by alloc_zeroed.
        unsafe { dealloc(self.base, self.layout) }
    }
}

impl core::fmt::Debug for Region {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Region({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_start_zeroed() {
        let r = Region::new(64);
        let mut buf = [1u8; 64];
        r.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn write_read_round_trip() {
        let r = Region::new(128);
        r.write(16, b"hello aurora").unwrap();
        let mut out = [0u8; 12];
        r.read(16, &mut out).unwrap();
        assert_eq!(&out, b"hello aurora");
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let r = Region::new(32);
        assert!(matches!(
            r.write(30, &[0; 4]),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.read(u64::MAX, &mut [0; 1]),
            Err(MemError::OutOfBounds { .. })
        ));
        // Exactly at the end is fine for zero-length... and for full fit.
        assert!(r.write(28, &[0; 4]).is_ok());
    }

    #[test]
    fn copy_between_regions() {
        let a = Region::new(64);
        let b = Region::new(64);
        a.write(0, b"dma payload").unwrap();
        Region::copy_between(&a, 0, &b, 32, 11).unwrap();
        let mut out = [0u8; 11];
        b.read(32, &mut out).unwrap();
        assert_eq!(&out, b"dma payload");
    }

    #[test]
    fn copy_between_same_region_overlapping() {
        let a = Region::new(32);
        a.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        Region::copy_between(&a, 0, &a, 4, 8).unwrap();
        let mut out = [0u8; 12];
        a.read(0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn atomic_flag_round_trip() {
        let r = Region::new(64);
        r.store_u64(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(r.load_u64(8).unwrap(), 0xDEAD_BEEF);
        assert!(matches!(r.atomic_u64(4), Err(MemError::Misaligned { .. })));
        assert!(matches!(r.atomic_u64(12), Err(MemError::Misaligned { .. })));
        assert!(matches!(
            r.atomic_u64(64),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn le_word_helpers() {
        let r = Region::new(16);
        r.write_u64_le(0, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(r.read_u64_le(0).unwrap(), 0x0102_0304_0506_0708);
        let mut b = [0u8; 8];
        r.read(0, &mut b).unwrap();
        assert_eq!(b[0], 0x08, "little endian on the wire");
    }

    proptest::proptest! {
        /// Any in-bounds write is read back exactly; any out-of-bounds
        /// access errors without touching memory.
        #[test]
        fn prop_write_read_round_trip(
            offset in 0u64..4096,
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let r = Region::new(4096);
            let fits = offset + data.len() as u64 <= 4096;
            let res = r.write(offset, &data);
            proptest::prop_assert_eq!(res.is_ok(), fits);
            if fits {
                let mut out = vec![0u8; data.len()];
                r.read(offset, &mut out).unwrap();
                proptest::prop_assert_eq!(out, data);
            }
        }

        /// copy_between behaves like a memmove between two regions.
        #[test]
        fn prop_copy_between(
            src_off in 0u64..1024,
            dst_off in 0u64..1024,
            len in 0u64..512,
        ) {
            let a = Region::new(2048);
            let b = Region::new(2048);
            let pattern: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
            a.write(0, &pattern).unwrap();
            Region::copy_between(&a, src_off, &b, dst_off, len).unwrap();
            let mut out = vec![0u8; len as usize];
            b.read(dst_off, &mut out).unwrap();
            proptest::prop_assert_eq!(
                out.as_slice(),
                &pattern[src_off as usize..(src_off + len) as usize]
            );
        }
    }

    #[test]
    fn flag_publishes_buffer_across_threads() {
        // The protocol pattern: writer fills a buffer then Release-stores
        // a flag; reader Acquire-loads the flag then reads the buffer.
        let r = Region::new(4096);
        let flag_off = 0;
        let buf_off = 64;
        std::thread::scope(|s| {
            let writer = {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    r.write(buf_off, &[7u8; 256]).unwrap();
                    r.store_u64(flag_off, 1).unwrap();
                })
            };
            let reader = {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    while r.load_u64(flag_off).unwrap() != 1 {
                        std::hint::spin_loop();
                    }
                    let mut out = [0u8; 256];
                    r.read(buf_off, &mut out).unwrap();
                    assert_eq!(out, [7u8; 256]);
                })
            };
            writer.join().unwrap();
            reader.join().unwrap();
        });
    }
}
