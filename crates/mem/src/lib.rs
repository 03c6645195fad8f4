//! # aurora-mem
//!
//! Memory substrate of the simulated SX-Aurora TSUBASA platform:
//!
//! * [`region::Region`] — a shared, bounds-checked raw memory backing a
//!   simulated physical memory (VH DDR4, VE HBM2, SysV shm segments), with
//!   atomic word access for protocol flags;
//! * [`alloc::RangeAllocator`] — first-fit offset allocator with
//!   coalescing, used for device-memory allocation (`offload::allocate`)
//!   and shm carving;
//! * [`page::PageTable`] — virtual→physical page mapping with 4 KiB /
//!   2 MiB / 64 MiB page sizes; translation counts feed the privileged DMA
//!   manager's cost model;
//! * [`shm::ShmManager`] — the SysV shared-memory interface of Fig. 7;
//! * [`dmaatb::Dmaatb`] — the VE-side DMA Address Translation Buffer that
//!   user DMA and LHM/SHM require (§IV-A), and [`dmaatb::DmaWindow`], one
//!   registration resolved once for lock-free access.

#![warn(missing_docs)]
// The one crate built around unsafe: the Region façade (see region.rs
// safety contract). Everything above it is #![deny(unsafe_code)], with
// one exception: ham-offload's sealed `Scalar` byte view.

mod addr;
pub mod alloc;
mod dmaatb;
mod page;
mod region;
mod shm;

pub use addr::{VeAddr, Vehva, VhAddr};
pub use alloc::RangeAllocator;
pub use dmaatb::{DmaTarget, DmaWindow, Dmaatb};
pub use page::{PageSize, PageTable};
pub use region::Region;
pub use shm::{ShmGuard, ShmManager, ShmSegment};

/// Errors of the memory substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Access beyond a region's bounds, i.e. the simulated SIGSEGV.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Region size.
        size: u64,
    },
    /// Offset not aligned as required (e.g. atomic word access).
    Misaligned {
        /// Requested offset.
        offset: u64,
        /// Required alignment.
        align: u64,
    },
    /// Allocation failed: no free range large enough.
    OutOfMemory {
        /// Requested size.
        requested: u64,
        /// Largest currently free contiguous range.
        largest_free: u64,
    },
    /// Freeing an offset that is not an allocation start.
    BadFree {
        /// The offending offset.
        offset: u64,
    },
    /// Virtual address not mapped in a page table / DMAATB.
    NotMapped {
        /// The unmapped address.
        addr: u64,
    },
    /// A range crosses non-contiguous mappings.
    NotContiguous {
        /// Start of the offending range.
        addr: u64,
    },
    /// DMAATB has no free entries.
    DmaatbFull,
    /// SysV shm: key not found or already exists.
    ShmKey {
        /// The offending key.
        key: i32,
    },
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "access [{offset}, {offset}+{len}) beyond region size {size}"
                )
            }
            MemError::Misaligned { offset, align } => {
                write!(f, "offset {offset} not aligned to {align}")
            }
            MemError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of memory: requested {requested}, largest free {largest_free}"
            ),
            MemError::BadFree { offset } => write!(f, "bad free at offset {offset}"),
            MemError::NotMapped { addr } => write!(f, "address {addr:#x} not mapped"),
            MemError::NotContiguous { addr } => {
                write!(f, "range at {addr:#x} crosses non-contiguous mappings")
            }
            MemError::DmaatbFull => write!(f, "DMAATB full"),
            MemError::ShmKey { key } => write!(f, "bad SysV shm key {key}"),
        }
    }
}

impl std::error::Error for MemError {}
