//! SysV shared-memory emulation (Fig. 7).
//!
//! The DMA-based protocol requires the VH to create a SystemV shared
//! memory segment whose key is then used by the VE side to attach and
//! register it in the DMAATB (§IV-A). This module provides the
//! `shmget`/`shmat`/`shmdt`/`shmctl(IPC_RMID)` subset those steps need.

use crate::{MemError, Region};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One shared-memory segment: a key plus its backing region.
#[derive(Debug)]
pub struct ShmSegment {
    key: i32,
    region: Arc<Region>,
    attach_count: Mutex<u32>,
    rmid: Mutex<bool>,
}

impl ShmSegment {
    /// The segment's SysV key.
    pub fn key(&self) -> i32 {
        self.key
    }

    /// The backing memory.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Segment size in bytes.
    pub fn len(&self) -> u64 {
        self.region.len()
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current number of attachments.
    pub(crate) fn attach_count(&self) -> u32 {
        *self.attach_count.lock().unwrap()
    }
}

/// RAII handle for a created segment: marks it for removal
/// (`shmctl(IPC_RMID)`) when dropped, so an unwinding owner cannot leak
/// the key. With SysV semantics the segment's memory survives until the
/// last attachment detaches — in-flight VE-side users are unaffected.
#[derive(Debug)]
pub struct ShmGuard {
    mgr: Arc<ShmManager>,
    seg: Arc<ShmSegment>,
}

impl std::ops::Deref for ShmGuard {
    type Target = ShmSegment;
    fn deref(&self) -> &ShmSegment {
        &self.seg
    }
}

impl Drop for ShmGuard {
    fn drop(&mut self) {
        // The key may already be gone (explicit mark_remove); ignore.
        let _ = self.mgr.mark_remove(self.seg.key());
    }
}

/// System-wide SysV shm registry (one per simulated machine).
#[derive(Debug, Default)]
pub struct ShmManager {
    segments: Mutex<HashMap<i32, Arc<ShmSegment>>>,
}

impl ShmManager {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ShmManager::create` wrapped in a guard that issues
    /// `shmctl(IPC_RMID)` when dropped.
    pub fn create_guarded(self: &Arc<Self>, key: i32, size: u64) -> Result<ShmGuard, MemError> {
        Ok(ShmGuard {
            mgr: Arc::clone(self),
            seg: self.create(key, size)?,
        })
    }

    /// `shmget(key, size, IPC_CREAT | IPC_EXCL)`: create a segment.
    pub(crate) fn create(&self, key: i32, size: u64) -> Result<Arc<ShmSegment>, MemError> {
        let mut segs = self.segments.lock().unwrap();
        if segs.contains_key(&key) {
            return Err(MemError::ShmKey { key });
        }
        let seg = Arc::new(ShmSegment {
            key,
            region: Region::new(size),
            attach_count: Mutex::new(0),
            rmid: Mutex::new(false),
        });
        segs.insert(key, Arc::clone(&seg));
        Ok(seg)
    }

    /// `shmget(key, 0, 0)` + `shmat`: look up and attach.
    pub fn attach(&self, key: i32) -> Result<Arc<ShmSegment>, MemError> {
        let segs = self.segments.lock().unwrap();
        let seg = segs.get(&key).ok_or(MemError::ShmKey { key })?;
        *seg.attach_count.lock().unwrap() += 1;
        Ok(Arc::clone(seg))
    }

    /// `shmdt`: detach. Destroys the segment if it was marked for removal
    /// and this was the last attachment.
    pub fn detach(&self, seg: &Arc<ShmSegment>) {
        let remaining = {
            let mut c = seg.attach_count.lock().unwrap();
            *c = c.saturating_sub(1);
            *c
        };
        if remaining == 0 && *seg.rmid.lock().unwrap() {
            self.segments.lock().unwrap().remove(&seg.key);
        }
    }

    /// `shmctl(IPC_RMID)`: mark for removal; the segment disappears from
    /// the registry once all attachments are gone (SysV semantics).
    pub(crate) fn mark_remove(&self, key: i32) -> Result<(), MemError> {
        let mut segs = self.segments.lock().unwrap();
        let seg = segs.get(&key).ok_or(MemError::ShmKey { key })?;
        *seg.rmid.lock().unwrap() = true;
        if seg.attach_count() == 0 {
            segs.remove(&key);
        }
        Ok(())
    }

    /// Number of registered segments.
    pub fn segment_count(&self) -> usize {
        self.segments.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_attach_roundtrip() {
        let mgr = ShmManager::new();
        let seg = mgr.create(0x4155, 4096).unwrap();
        assert_eq!(seg.key(), 0x4155);
        assert_eq!(seg.len(), 4096);
        let att = mgr.attach(0x4155).unwrap();
        assert_eq!(att.attach_count(), 1);
        // Both handles see the same memory.
        seg.region().write(0, b"from creator").unwrap();
        let mut buf = [0u8; 12];
        att.region().read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"from creator");
    }

    #[test]
    fn duplicate_key_rejected() {
        let mgr = ShmManager::new();
        mgr.create(1, 64).unwrap();
        assert!(matches!(
            mgr.create(1, 64),
            Err(MemError::ShmKey { key: 1 })
        ));
    }

    #[test]
    fn unknown_key_rejected() {
        let mgr = ShmManager::new();
        assert!(matches!(mgr.attach(99), Err(MemError::ShmKey { key: 99 })));
        assert!(matches!(
            mgr.mark_remove(99),
            Err(MemError::ShmKey { key: 99 })
        ));
    }

    #[test]
    fn rmid_with_no_attachments_removes_immediately() {
        let mgr = ShmManager::new();
        mgr.create(7, 64).unwrap();
        assert_eq!(mgr.segment_count(), 1);
        mgr.mark_remove(7).unwrap();
        assert_eq!(mgr.segment_count(), 0);
    }

    #[test]
    fn guard_drop_removes_unattached_segment() {
        let mgr = Arc::new(ShmManager::new());
        {
            let g = mgr.create_guarded(11, 64).unwrap();
            assert_eq!(g.key(), 11);
            assert_eq!(mgr.segment_count(), 1);
        }
        assert_eq!(mgr.segment_count(), 0, "guard drop must IPC_RMID");
    }

    #[test]
    fn guard_drop_defers_to_last_detach() {
        let mgr = Arc::new(ShmManager::new());
        let att = {
            let _g = mgr.create_guarded(12, 64).unwrap();
            mgr.attach(12).unwrap()
        };
        // Guard dropped while attached: memory survives, key is doomed.
        assert_eq!(mgr.segment_count(), 1);
        att.region().write(0, b"ok").unwrap();
        mgr.detach(&att);
        assert_eq!(mgr.segment_count(), 0);
    }

    #[test]
    fn rmid_defers_until_last_detach() {
        let mgr = ShmManager::new();
        mgr.create(7, 64).unwrap();
        let a = mgr.attach(7).unwrap();
        let b = mgr.attach(7).unwrap();
        mgr.mark_remove(7).unwrap();
        assert_eq!(mgr.segment_count(), 1, "still attached");
        assert!(mgr.attach(7).is_ok(), "key visible until destroyed");
        mgr.detach(&a);
        mgr.detach(&b);
        // One extra attach above; detach it too.
        let c = {
            let segs = mgr.segments.lock().unwrap();
            segs.get(&7).cloned()
        };
        if let Some(c) = c {
            mgr.detach(&c);
        }
        assert_eq!(mgr.segment_count(), 0);
    }
}
