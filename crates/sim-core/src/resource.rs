//! Shared hardware resources as FIFO virtual-time timelines.
//!
//! A DMA engine, a PCIe link direction, or the VEOS DMA manager can only
//! serve one request at a time. A [`Timeline`] serializes virtual-time
//! reservations: a request that arrives (in virtual time) while the
//! resource is busy is queued behind the in-flight work, exactly like a
//! hardware queue. This is what makes contention (e.g. two VE processes
//! sharing the privileged DMA engine) visible in the modeled numbers.

use crate::time::SimTime;
use std::sync::{Arc, Mutex};

/// A single-server FIFO resource on the virtual time base.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Virtual time until which the resource is committed.
    busy_until: Arc<Mutex<SimTime>>,
}

/// Result of a [`Timeline::reserve`]: when service started and ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Virtual time at which the resource began serving the request.
    pub start: SimTime,
    /// Virtual time at which the request completed.
    pub end: SimTime,
}

impl Timeline {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration`, no earlier than `earliest`.
    ///
    /// Returns the actual service window. FIFO within the lock: the
    /// reservation starts at `max(earliest, busy_until)`.
    pub fn reserve(&self, earliest: SimTime, duration: SimTime) -> Reservation {
        let mut busy_until = self.busy_until.lock().unwrap();
        let start = earliest.max(*busy_until);
        let end = start + duration;
        *busy_until = end;
        Reservation { start, end }
    }

    /// Make the resource idle again (benchmark reuse).
    pub fn reset(&self) {
        *self.busy_until.lock().unwrap() = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let tl = Timeline::new();
        let r = tl.reserve(SimTime::from_ns(10), SimTime::from_ns(5));
        assert_eq!(r.start, SimTime::from_ns(10));
        assert_eq!(r.end, SimTime::from_ns(15));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let tl = Timeline::new();
        let a = tl.reserve(SimTime::ZERO, SimTime::from_ns(100));
        let b = tl.reserve(SimTime::from_ns(30), SimTime::from_ns(50));
        assert_eq!(a.end, SimTime::from_ns(100));
        assert_eq!(b.start, SimTime::from_ns(100), "b waits for a");
        assert_eq!(b.end, SimTime::from_ns(150));
    }

    #[test]
    fn late_request_after_idle_gap() {
        let tl = Timeline::new();
        tl.reserve(SimTime::ZERO, SimTime::from_ns(10));
        let r = tl.reserve(SimTime::from_ns(100), SimTime::from_ns(10));
        assert_eq!(r.start, SimTime::from_ns(100), "idle gap is not billed");
    }

    #[test]
    fn reset_frees_the_resource() {
        let tl = Timeline::new();
        tl.reserve(SimTime::ZERO, SimTime::from_ns(10));
        tl.reserve(SimTime::ZERO, SimTime::from_ns(20));
        tl.reset();
        let r = tl.reserve(SimTime::ZERO, SimTime::from_ns(5));
        assert_eq!(r.start, SimTime::ZERO, "reset frees the resource");
    }

    proptest::proptest! {
        /// Reservations are FIFO and non-overlapping for any interleaving
        /// of requested start times and durations.
        #[test]
        fn prop_fifo_no_overlap(ops in proptest::collection::vec((0u64..10_000, 1u64..1_000), 1..50)) {
            let tl = Timeline::new();
            let mut windows = Vec::new();
            for (earliest, dur) in ops {
                let r = tl.reserve(SimTime::from_ns(earliest), SimTime::from_ns(dur));
                proptest::prop_assert!(r.start >= SimTime::from_ns(earliest));
                proptest::prop_assert_eq!(r.end - r.start, SimTime::from_ns(dur));
                if let Some(prev) = windows.last() {
                    let prev: &Reservation = prev;
                    proptest::prop_assert!(r.start >= prev.end, "FIFO ordering");
                }
                windows.push(r);
            }
        }
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        let tl = Timeline::new();
        let windows: Vec<Reservation> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let tl = tl.clone();
                    s.spawn(move || tl.reserve(SimTime::ZERO, SimTime::from_ns(7)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = windows.clone();
        sorted.sort_by_key(|r| r.start);
        for pair in sorted.windows(2) {
            assert!(pair[0].end <= pair[1].start, "overlap: {pair:?}");
        }
        // Back to back from zero: the last one ends after all sixteen.
        assert_eq!(sorted.last().unwrap().end, SimTime::from_ns(7 * 16));
    }
}
