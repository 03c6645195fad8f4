//! Pooled frame buffers: the allocation-free wire path.
//!
//! Every message the engine sends or settles used to pass through a
//! fresh `Vec<u8>` — codec encode, frame assembly, `note_sent`'s stored
//! copy, result unframing. A [`FramePool`] recycles those buffers: a
//! [`PooledFrame`] checked out of the pool keeps its capacity when it
//! returns on drop, so a steady-state post → complete cycle performs no
//! heap allocations once the pool (and the per-channel hash maps) are
//! warm. See `tests/alloc_steady_state.rs` for the counting-allocator
//! proof.

use std::sync::{Arc, Mutex};

/// How many idle buffers a pool retains; checkouts beyond this are
/// served by plain allocation and returns beyond it are dropped. Two
/// 64-offload waves keep up to 128 results parked at once; with room
/// for twice that, their buffers return here when claimed instead of
/// being freed and allocated again by the next wave.
const POOL_CAP: usize = 256;

/// A bounded freelist of reusable frame buffers.
#[derive(Debug, Default)]
pub struct FramePool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl FramePool {
    /// A fresh, empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Check out an empty buffer (recycled capacity when available).
    pub fn checkout(self: &Arc<Self>) -> PooledFrame {
        let buf = self.free.lock().unwrap().pop().unwrap_or_default();
        PooledFrame {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    /// Wrap a foreign buffer (e.g. one a receiver thread built) so it
    /// joins the pool when dropped.
    pub fn adopt(self: &Arc<Self>, buf: Vec<u8>) -> PooledFrame {
        PooledFrame {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    /// Idle buffers currently held (tests).
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap().len()
    }
}

/// A byte buffer owned by a [`FramePool`]; dereferences to `Vec<u8>`
/// and returns to the pool (cleared, capacity kept) on drop.
#[derive(Debug, Default)]
pub struct PooledFrame {
    buf: Vec<u8>,
    pool: Option<Arc<FramePool>>,
}

impl PooledFrame {
    /// A frame with no pool: dropped normally. For tests and cold paths.
    pub fn detached(buf: Vec<u8>) -> Self {
        Self { buf, pool: None }
    }
}

impl core::ops::Deref for PooledFrame {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl core::ops::DerefMut for PooledFrame {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledFrame {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            let mut free = pool.free.lock().unwrap();
            if free.len() < POOL_CAP {
                self.buf.clear();
                free.push(core::mem::take(&mut self.buf));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_capacity() {
        let pool = FramePool::new();
        let mut f = pool.checkout();
        f.extend_from_slice(&[1; 512]);
        let cap = f.capacity();
        drop(f);
        assert_eq!(pool.idle(), 1);
        let f2 = pool.checkout();
        assert!(f2.is_empty());
        assert_eq!(f2.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn detached_skips_the_pool() {
        let pool = FramePool::new();
        drop(PooledFrame::detached(vec![1, 2, 3]));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn adopt_joins_the_pool() {
        let pool = FramePool::new();
        drop(pool.adopt(vec![9; 64]));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = FramePool::new();
        let frames: Vec<_> = (0..POOL_CAP + 8).map(|_| pool.checkout()).collect();
        drop(frames);
        assert_eq!(pool.idle(), POOL_CAP);
    }
}
