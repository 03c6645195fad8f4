//! Lock-free metric primitives and their plain-data readings.
//!
//! Counters and gauges are plain atomics: safe to bump from the host
//! thread and every simulated target thread without coordination. Unlike
//! spans they are always on — the cost is one relaxed RMW — so steady
//! counters (posts, polls, bytes moved) are available even when no trace
//! session is running. An [`AtomicHistogram`] reads out as a
//! [`Histogram`]; a counter, a sum and a [`MinMax`] read out as a
//! [`Summary`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub(crate) const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one; returns the new value.
    #[inline]
    pub(crate) fn incr(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add `n`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed level that rises and falls (live allocator bytes), with a
/// high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub(crate) const fn new() -> Self {
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
    pub(crate) fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 && now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub(crate) fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Smallest and largest `u64` sample seen. Recording is two relaxed
/// loads; a CAS runs only when the sample is a new extreme, so a steady
/// stream writes nothing.
#[derive(Debug)]
pub(crate) struct MinMax {
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
    pub(crate) const fn new() -> Self {
        MinMax {
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Fold one sample into the extremes.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// `(min, max)`, or `None` before the first sample.
    pub(crate) fn get(&self) -> Option<(u64, u64)> {
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
const FINE_LO: u32 = 10;

/// First octave past the sub-bucketed range: `2^42` ps ≈ 4.4 s. Samples
/// at or past it (and below `2^FINE_LO`) keep one bucket per octave.
const FINE_HI: u32 = 42;

const FINE_START: usize = FINE_LO as usize;
const FINE_END: usize = FINE_START + (FINE_HI - FINE_LO) as usize * SUB;

/// Buckets of an [`AtomicHistogram`] and of its [`Histogram`] snapshot:
/// one per octave below `2^10` ps, eight per octave in `[2^10, 2^42)` ps,
/// one per octave from `2^42` to `2^63`. Every `u64` lands somewhere.
pub(crate) const HISTOGRAM_BUCKETS: usize = FINE_END + (64 - FINE_HI as usize);

/// Bucket of sample `ps`. Its log₂ octave (`63 - leading_zeros`, with 0
/// sharing octave 0) picks the octave; inside the fine range the next
/// three bits below the leading one pick the sub-bucket.
#[inline]
const fn bucket_index(ps: u64) -> usize {
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

/// The log₂ octave bucket `i` lies in: `63 - leading_zeros` of its
/// samples (0 for the samples 0 and 1).
#[inline]
const fn bucket_octave(i: usize) -> usize {
    if i < FINE_START {
        i
    } else if i < FINE_END {
        FINE_START + (i - FINE_START) / SUB
    } else {
        FINE_HI as usize + (i - FINE_END)
    }
}

/// Lower bound (ps) of bucket `i`. Bucket 0 also holds the sample 0; it
/// reports 1, the floor of octave 0.
const fn bucket_floor(i: usize) -> u64 {
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
pub(crate) const fn bucket_ceil(i: usize) -> u128 {
    if i + 1 < HISTOGRAM_BUCKETS {
        bucket_floor(i + 1) as u128
    } else {
        1u128 << 64
    }
}

/// Lock-free log-linear histogram of `u64` samples (picoseconds by
/// convention), HdrHistogram-style: 288 buckets, one per octave below
/// `2^10` ps, eight per octave in `[2^10, 2^42)` ps (12.5 % wide), one
/// per octave above.
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
    pub fn snapshot(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Histogram {
            count: buckets.iter().sum(),
            buckets,
        }
    }
}

/// Plain-data log-linear histogram: an [`AtomicHistogram`] snapshot, or
/// the sum of several. Values are picoseconds.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[i]` counts samples in
    /// `[bucket_floor(i), bucket_floor(i + 1))` picoseconds.
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Empty histogram (its buckets cover the whole `u64` ps range).
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The raw buckets, in the [`AtomicHistogram`] layout.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Nearest-rank percentile `p` in [0, 100], in ps, resolved to the
    /// *floor* of the bucket the rank lands in — within 12.5 % of the
    /// sample in the sub-bucketed range. `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_floor(i));
            }
        }
        // p > 100 lands past the last sample; report the top bucket.
        self.nonzero().last().map(|(floor, _)| floor)
    }

    /// Add another histogram's counts into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
    }

    /// Iterate non-empty buckets as `(bucket_floor_ps, count)`.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
    }
}

/// Count, total and extremes of a sample stream: what a lock-free
/// register keeps with one relaxed write per sample. The mean is derived;
/// there is no variance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// `count` samples adding up to `sum`, with `extremes` as
    /// `(min, max)` (`None` when empty).
    pub(crate) fn new(count: u64, sum: f64, extremes: Option<(f64, f64)>) -> Self {
        let (min, max) = extremes.unwrap_or((f64::NAN, f64::NAN));
        Self {
            count,
            sum,
            min,
            max,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`NaN` if empty).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`NaN` if empty).
    pub(crate) fn max(&self) -> f64 {
        self.max
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
        let b = snap.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[1], 2);
        assert_eq!(b[FINE_START], 1);
        assert_eq!(b[FINE_START + 3], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(snap.count(), 7);
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

    /// A histogram of `samples` (ps), through the atomic register.
    fn hist_of(samples: impl IntoIterator<Item = u64>) -> Histogram {
        let h = AtomicHistogram::new();
        for ps in samples {
            h.record_ps(ps);
        }
        h.snapshot()
    }

    #[test]
    fn summary_derives_mean_and_keeps_extremes() {
        let s = Summary::new(4, 20.0, Some((2.0, 9.0)));
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 5.0);
        assert_eq!((s.min(), s.max()), (2.0, 9.0));
        let e = Summary::new(0, 0.0, None);
        assert_eq!(e.mean(), 0.0);
        assert!(e.min().is_nan() && e.max().is_nan());
    }

    #[test]
    fn histogram_buckets() {
        let h = hist_of([1, 3, 1024, 1100, 0]);
        assert_eq!(h.count(), 5);
        let buckets: Vec<_> = h.nonzero().collect();
        assert!(buckets.contains(&(1, 2))); // 0 and 1
        assert!(buckets.contains(&(2, 1))); // 3
        assert!(buckets.contains(&(1024, 2))); // 1024..1152
    }

    #[test]
    fn histogram_percentiles_are_sub_bucket_floors() {
        // p50 and p99 in the same octave: 90 samples at 5 µs, 10 at
        // 7.5 µs, both in [2^22, 2^23) ps.
        let h =
            hist_of(std::iter::repeat_n(5_000_000, 90).chain(std::iter::repeat_n(7_500_000, 10)));
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 < p99, "same octave, different sub-buckets");
        for (floor, sample) in [(p50, 5_000_000u64), (p99, 7_500_000)] {
            assert!(floor <= sample && sample - floor <= floor / 8);
        }
        assert_eq!(h.percentile(90.0), h.percentile(50.0));
        assert_eq!(h.percentile(100.0), h.percentile(99.0));
        assert_eq!(Histogram::new().percentile(50.0), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let h = hist_of([8, 8, 8, 8, 8, u64::MAX]);
        let mut a = hist_of([8]);
        a.merge(&h);
        assert_eq!(a.count(), 7);
        assert_eq!(a.buckets()[3], 6);
        assert_eq!(a.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    proptest::proptest! {
        /// Every sample in the sub-bucketed range lands in a bucket whose
        /// `[floor, ceil)` holds it, and that bucket is at most 12.5 % of
        /// its floor wide.
        #[test]
        fn prop_fine_buckets_hold_their_samples(
            oct in FINE_LO..FINE_HI,
            bits in proptest::arbitrary::any::<u64>(),
        ) {
            let ps = (1u64 << oct) | (bits & ((1u64 << oct) - 1));
            let i = bucket_index(ps);
            proptest::prop_assert!(bucket_floor(i) <= ps);
            proptest::prop_assert!((ps as u128) < bucket_ceil(i));
            let width = bucket_ceil(i) - bucket_floor(i) as u128;
            proptest::prop_assert!(width * 8 <= bucket_floor(i) as u128);
        }

        /// Every `u64` lands in a bucket of its log₂ octave
        /// (`63 - leading_zeros`, 0 in octave 0).
        #[test]
        fn prop_bucket_octave_matches_leading_zeros(
            oct in 0u32..64,
            bits in proptest::arbitrary::any::<u64>(),
        ) {
            let ps = if oct == 0 { bits & 1 } else { (1u64 << oct) | (bits & ((1u64 << oct) - 1)) };
            let old = if ps == 0 { 0 } else { 63 - ps.leading_zeros() as usize };
            proptest::prop_assert_eq!(bucket_octave(bucket_index(ps)), old);
        }
    }
}
