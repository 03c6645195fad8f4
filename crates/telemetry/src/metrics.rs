//! Lock-free metric primitives.
//!
//! Counters and gauges are plain atomics: safe to bump from the host
//! thread and every simulated target thread without coordination. Unlike
//! spans they are always on — the cost is one relaxed RMW — so steady
//! counters (posts, polls, bytes moved) are available even when no trace
//! session is running.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one; returns the new value.
    #[inline]
    pub fn incr(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed level that rises and falls (live allocator bytes), with a
/// high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    /// Move the level by `delta` (positive or negative), updating the
    /// high-water mark. A decrement can never raise the peak, and a rise
    /// that does not beat it costs a relaxed load, so the CAS runs only
    /// on a new maximum.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 && now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Smallest and largest `u64` sample seen. Recording is two relaxed
/// loads; a CAS runs only when the sample is a new extreme, so a steady
/// stream writes nothing.
#[derive(Debug)]
pub struct MinMax {
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for MinMax {
    fn default() -> Self {
        Self::new()
    }
}

impl MinMax {
    /// No samples yet.
    pub const fn new() -> Self {
        MinMax {
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Fold one sample into the extremes.
    #[inline]
    pub fn record(&self, v: u64) {
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// `(min, max)`, or `None` before the first sample.
    pub fn get(&self) -> Option<(u64, u64)> {
        let (min, max) = (
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
        (min <= max).then_some((min, max))
    }
}

/// Sub-buckets per octave are `2^SUB_BITS`, so a fine bucket is at most
/// 1/8 = 12.5 % of its floor wide.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// First octave with sub-buckets: samples from `2^10` ps (≈ 1 ns) up
/// resolve to 12.5 %.
pub const FINE_LO: u32 = 10;

/// First octave past the sub-bucketed range: `2^42` ps ≈ 4.4 s. Samples
/// at or past it (and below `2^FINE_LO`) keep one bucket per octave.
pub const FINE_HI: u32 = 42;

const FINE_START: usize = FINE_LO as usize;
const FINE_END: usize = FINE_START + (FINE_HI - FINE_LO) as usize * SUB;

/// Buckets of an [`AtomicHistogram`] (and of `sim-core`'s `Histogram`,
/// which shares the layout): one per octave below [`FINE_LO`], eight per
/// octave in `[FINE_LO, FINE_HI)`, one per octave from [`FINE_HI`] to 63.
/// Every `u64` lands somewhere.
pub const HISTOGRAM_BUCKETS: usize = FINE_END + (64 - FINE_HI as usize);

/// Words of a histogram folded to octaves
/// ([`AtomicHistogram::log2_snapshot`]): one per bit of a `u64`.
pub const LOG2_BUCKETS: usize = 64;

/// Bucket of sample `ps`. Its log₂ octave (`63 - leading_zeros`, with 0
/// sharing octave 0) picks the octave; inside the fine range the next
/// three bits below the leading one pick the sub-bucket.
#[inline]
pub const fn bucket_index(ps: u64) -> usize {
    let oct = 63 - (ps | 1).leading_zeros();
    if oct < FINE_LO {
        oct as usize
    } else if oct < FINE_HI {
        let sub = (ps >> (oct - SUB_BITS)) as usize & (SUB - 1);
        FINE_START + (oct - FINE_LO) as usize * SUB + sub
    } else {
        FINE_END + (oct - FINE_HI) as usize
    }
}

/// The log₂ octave bucket `i` lies in — the bucket the 64-word layout
/// would have put its samples in.
#[inline]
pub const fn bucket_octave(i: usize) -> usize {
    if i < FINE_START {
        i
    } else if i < FINE_END {
        FINE_START + (i - FINE_START) / SUB
    } else {
        FINE_HI as usize + (i - FINE_END)
    }
}

/// Lower bound (ps) of bucket `i`. Bucket 0 also holds the sample 0; it
/// reports 1, as the log₂ layout did.
pub const fn bucket_floor(i: usize) -> u64 {
    let oct = bucket_octave(i) as u32;
    if FINE_START <= i && i < FINE_END {
        let sub = ((i - FINE_START) % SUB) as u64;
        (1u64 << oct) + (sub << (oct - SUB_BITS))
    } else {
        1u64 << oct
    }
}

/// Exclusive upper bound (ps) of bucket `i`: the next bucket's floor,
/// `2^64` for the last one. A Prometheus `le` edge.
pub const fn bucket_ceil(i: usize) -> u128 {
    if i + 1 < HISTOGRAM_BUCKETS {
        bucket_floor(i + 1) as u128
    } else {
        1u128 << 64
    }
}

/// Lock-free log-linear histogram of `u64` samples (picoseconds by
/// convention), HdrHistogram-style: see [`HISTOGRAM_BUCKETS`] for the
/// layout.
///
/// Recording is one relaxed RMW on one bucket — always on, safe from any
/// thread, and allocation-free, which is what lets the warm offload
/// completion path keep its zero-heap guarantee. There is no separate
/// total: the count is the sum of the buckets, taken at snapshot time.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHistogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one sample (raw picoseconds).
    #[inline]
    pub fn record_ps(&self, ps: u64) {
        self.buckets[bucket_index(ps)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain copy of the buckets.
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The buckets folded to one word per octave: word `k` counts the
    /// samples whose highest set bit is `k` (0 counts in word 0), as the
    /// 64-bucket log₂ layout did. Summed while loading, with no
    /// intermediate copy. The three ranges are walked separately: a
    /// per-bucket `bucket_octave` index doubles the controller tick's
    /// cost in `telemetry_overhead`.
    pub fn log2_snapshot(&self) -> [u64; LOG2_BUCKETS] {
        let load = |b: &AtomicU64| b.load(Ordering::Relaxed);
        let (low, rest) = self.buckets.split_at(FINE_START);
        let (fine, high) = rest.split_at(FINE_END - FINE_START);
        let mut out = [0u64; LOG2_BUCKETS];
        let (out_low, out_rest) = out.split_at_mut(FINE_START);
        let (out_fine, out_high) = out_rest.split_at_mut(FINE_HI as usize - FINE_START);
        for (o, b) in out_low.iter_mut().zip(low) {
            *o = load(b);
        }
        for (o, octave) in out_fine.iter_mut().zip(fine.chunks_exact(SUB)) {
            *o = octave.iter().map(load).sum();
        }
        for (o, b) in out_high.iter_mut().zip(high) {
            *o = load(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new();
        g.add(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 8);
    }

    #[test]
    fn gauge_peak_survives_drain() {
        let g = Gauge::new();
        g.add(4);
        g.add(-4);
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 4);
    }

    #[test]
    fn gauge_peak_is_the_true_maximum_under_concurrent_rises() {
        const THREADS: i64 = 4;
        const STEPS: i64 = 20_000;
        let g = Gauge::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| (0..STEPS).for_each(|_| g.add(1)));
            }
        });
        assert_eq!(g.get(), THREADS * STEPS);
        assert_eq!(g.peak(), THREADS * STEPS);
    }

    #[test]
    fn min_max_tracks_extremes() {
        let m = MinMax::new();
        assert_eq!(m.get(), None);
        m.record(7);
        assert_eq!(m.get(), Some((7, 7)));
        m.record(3);
        m.record(12);
        m.record(5);
        assert_eq!(m.get(), Some((3, 12)));
        let z = MinMax::new();
        z.record(0);
        assert_eq!(z.get(), Some((0, 0)));
    }

    #[test]
    fn histogram_fits_its_budget() {
        assert_eq!(HISTOGRAM_BUCKETS, 288);
        assert!(std::mem::size_of::<AtomicHistogram>() <= 2560);
    }

    #[test]
    fn coarse_buckets_are_log2_and_fine_ones_split_octaves() {
        let h = AtomicHistogram::new();
        h.record_ps(0); // bucket 0
        h.record_ps(1); // bucket 0
        h.record_ps(2); // bucket 1
        h.record_ps(3); // bucket 1
        h.record_ps(1024); // octave 10, sub-bucket 0
        h.record_ps(1024 + 3 * 128); // octave 10, sub-bucket 3
        h.record_ps(u64::MAX); // the last bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 2);
        assert_eq!(snap[1], 2);
        assert_eq!(snap[FINE_START], 1);
        assert_eq!(snap[FINE_START + 3], 1);
        assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(snap.iter().sum::<u64>(), 7);
        let log2 = h.log2_snapshot();
        assert_eq!((log2[0], log2[1], log2[10], log2[63]), (2, 2, 2, 1));
        assert_eq!(log2.iter().sum::<u64>(), 7);
    }

    #[test]
    fn bucket_edges_are_contiguous() {
        assert_eq!(bucket_floor(0), 1);
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_ceil(i - 1), bucket_floor(i) as u128, "bucket {i}");
            assert!(bucket_floor(i) > bucket_floor(i - 1), "bucket {i}");
        }
        assert_eq!(bucket_floor(FINE_START), 1 << FINE_LO);
        assert_eq!(bucket_floor(FINE_END), 1 << FINE_HI);
        assert_eq!(bucket_ceil(HISTOGRAM_BUCKETS - 1), 1u128 << 64);
    }
}
