//! Pooled frame buffers: the allocation-free wire path.
//!
//! Every message the engine sends or settles used to pass through a
//! fresh `Vec<u8>` — codec encode, frame assembly, `note_sent`'s stored
//! copy, result unframing. A [`PooledFrame`] keeps its capacity when it
//! is dropped, so a steady-state post → complete cycle performs no heap
//! allocations once the buffers are warm. See
//! `tests/alloc_steady_state.rs` for the counting-allocator proof.
//!
//! **Where idle buffers live.** Each thread keeps its own cache of at
//! most [`THREAD_CAP`] idle buffers. [`FramePool::checkout`] pops from
//! the calling thread's cache and dropping a [`PooledFrame`] pushes onto
//! it: no lock, no atomic read-modify-write and no refcount on the warm
//! path. A thread whose cache runs dry takes up to `THREAD_CAP / 2`
//! buffers from one process-wide depot (at most [`DEPOT_CAP`] idle
//! buffers) under its lock, and a thread whose cache overflows gives
//! the older half to it. That batch exchange keeps threads that only
//! produce frames (the TCP link thread checks out every result body)
//! or only drop them (the host claims those results) allocation-free
//! too, at one lock per `THREAD_CAP / 2` frames. Buffers a full depot
//! cannot take, and the cache of an exiting thread, are freed.
//!
//! [`FramePool`] itself holds no state: the handle stays so the call
//! sites that thread it through (`ChannelCore::pool`,
//! `TargetChannel::recv`) keep their signatures.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Most idle buffers one thread's cache holds. A thread's own working
/// set — the wire frames of a 64-offload wave, or a device's intake
/// window — cycles through its cache without touching the depot, and a
/// thread that only drops frames passes them on after at most this many.
/// With 64, a TCP wave's host, link and device threads took turns at
/// the depot and kept allocating now and then.
pub const THREAD_CAP: usize = 128;

/// Buffers moved per depot exchange.
const BATCH: usize = THREAD_CAP / 2;

/// Most idle buffers the shared depot holds: four exchanges' worth.
pub const DEPOT_CAP: usize = 256;

/// The shared depot. Its capacity is reserved once, at the first
/// exchange, so exchanges allocate nothing.
static DEPOT: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's idle buffers; capacity reserved on first use.
    static CACHE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

fn depot() -> std::sync::MutexGuard<'static, Vec<Vec<u8>>> {
    // Every exchange leaves the depot a valid list of buffers, so a
    // panic elsewhere while it was held leaves nothing half-updated.
    let mut depot = DEPOT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if depot.capacity() == 0 {
        depot.reserve_exact(DEPOT_CAP);
    }
    depot
}

/// Pop an idle buffer off this thread's cache, refilling it from the
/// depot when it is empty; `None` when both are empty.
fn take() -> Option<Vec<u8>> {
    CACHE
        .try_with(|cache| {
            let mut cache = cache.try_borrow_mut().ok()?;
            if cache.is_empty() {
                if cache.capacity() == 0 {
                    cache.reserve_exact(THREAD_CAP);
                }
                let mut depot = depot();
                let from = depot.len().saturating_sub(BATCH);
                cache.extend(depot.drain(from..));
            }
            cache.pop()
        })
        .ok()
        .flatten()
}

/// Push an emptied buffer onto this thread's cache, first moving the
/// older half of a full cache to the depot (freeing what it has no room
/// for). Dropped when the thread's cache is gone (thread exit).
fn give(buf: Vec<u8>) {
    let _ = CACHE.try_with(|cache| {
        let Ok(mut cache) = cache.try_borrow_mut() else {
            return;
        };
        if cache.len() >= THREAD_CAP {
            let mut depot = depot();
            let room = (DEPOT_CAP - depot.len()).min(BATCH);
            depot.extend(cache.drain(..room));
            drop(depot);
            cache.drain(..BATCH - room);
        } else if cache.capacity() == 0 {
            cache.reserve_exact(THREAD_CAP);
        }
        cache.push(buf);
    });
}

/// The handle frame buffers are checked out through. Stateless: idle
/// buffers live in per-thread caches and one shared depot (see the
/// module docs), so every handle draws on the same buffers.
#[derive(Debug, Default)]
pub struct FramePool;

impl FramePool {
    /// A pool handle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self)
    }

    /// Check out an empty buffer (recycled capacity when available).
    pub fn checkout(self: &Arc<Self>) -> PooledFrame {
        PooledFrame {
            buf: take().unwrap_or_default(),
            pooled: true,
        }
    }

    /// Wrap a foreign buffer (e.g. one a receiver thread built) so it
    /// joins the pool when dropped.
    pub fn adopt(self: &Arc<Self>, buf: Vec<u8>) -> PooledFrame {
        PooledFrame { buf, pooled: true }
    }

    /// Idle buffers in the calling thread's cache (tests).
    pub fn idle(&self) -> usize {
        CACHE.with(|cache| cache.borrow().len())
    }

    /// Idle buffers in the shared depot (tests).
    pub fn depot_idle() -> usize {
        depot().len()
    }
}

/// A byte buffer from a [`FramePool`]; dereferences to `Vec<u8>` and
/// returns to the dropping thread's cache (cleared, capacity kept) on
/// drop.
#[derive(Debug, Default)]
pub struct PooledFrame {
    buf: Vec<u8>,
    pooled: bool,
}

impl PooledFrame {
    /// A frame with no pool: dropped normally. For tests and cold paths.
    pub fn detached(buf: Vec<u8>) -> Self {
        Self { buf, pooled: false }
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
        // A buffer that never held a byte has nothing worth keeping.
        if self.pooled && self.buf.capacity() != 0 {
            let mut buf = core::mem::take(&mut self.buf);
            buf.clear();
            give(buf);
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
        let idle = pool.idle();
        drop(f);
        assert_eq!(pool.idle(), idle + 1);
        let f2 = pool.checkout();
        assert!(f2.is_empty());
        assert_eq!(f2.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.idle(), idle);
    }

    #[test]
    fn detached_skips_the_pool() {
        let pool = FramePool::new();
        let idle = pool.idle();
        drop(PooledFrame::detached(vec![1, 2, 3]));
        assert_eq!(pool.idle(), idle);
    }

    #[test]
    fn adopt_joins_the_pool() {
        let pool = FramePool::new();
        let idle = pool.idle();
        drop(pool.adopt(vec![9; 64]));
        assert_eq!(pool.idle(), idle + 1);
    }

    #[test]
    fn empty_buffers_are_not_kept() {
        let pool = FramePool::new();
        let idle = pool.idle();
        drop(pool.adopt(Vec::new()));
        assert_eq!(pool.idle(), idle);
    }

    /// Dropping far more frames than both caps hold leaves this thread's
    /// cache and the depot within their caps; the overflow is freed.
    #[test]
    fn pool_is_bounded() {
        let pool = FramePool::new();
        let frames: Vec<_> = (0..DEPOT_CAP + 2 * THREAD_CAP)
            .map(|_| pool.adopt(vec![0; 16]))
            .collect();
        drop(frames);
        assert!(pool.idle() <= THREAD_CAP, "{} cached", pool.idle());
        assert!(pool.idle() > THREAD_CAP - BATCH, "a spill keeps half");
        assert!(FramePool::depot_idle() <= DEPOT_CAP);
    }
}
