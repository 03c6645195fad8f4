//! Measurement statistics for the benchmark harness.
//!
//! Mirrors the paper's methodology (§V): repeated measurements with
//! warm-up, reported as averages; we additionally keep min/max,
//! percentiles and log-linear histograms because a reproduction should
//! expose its variance.

use crate::time::SimTime;
use aurora_telemetry::metrics::bucket_floor;
use aurora_telemetry::HISTOGRAM_BUCKETS;

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
    pub fn new(count: u64, sum: f64, extremes: Option<(f64, f64)>) -> Self {
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

/// Log-linear histogram of durations, for latency distributions. It has
/// [`aurora_telemetry::AtomicHistogram`]'s bucket layout — eight
/// sub-buckets per octave over `[2^10, 2^42)` ps, one bucket per octave
/// outside it — so a snapshot of one is a value of the other.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[i]` counts samples in
    /// `[bucket_floor(i), bucket_floor(i + 1))` picoseconds.
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram ([`HISTOGRAM_BUCKETS`] buckets cover the whole
    /// `u64` ps range).
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }

    /// A histogram from a plain bucket array (e.g. an
    /// `AtomicHistogram` snapshot).
    pub(crate) fn from_buckets(buckets: [u64; HISTOGRAM_BUCKETS]) -> Self {
        Self {
            count: buckets.iter().sum(),
            buckets: buckets.to_vec(),
        }
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The raw buckets, in the layout of
    /// [`aurora_telemetry::metrics::bucket_index`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Nearest-rank percentile `p` in [0, 100], resolved to the
    /// *floor* of the bucket the rank lands in — within 12.5 % of the
    /// sample in the sub-bucketed range. `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<SimTime> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimTime::from_ps(bucket_floor(i)));
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

    /// Iterate non-empty buckets as `(bucket_floor, count)`.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (SimTime::from_ps(bucket_floor(i)), c))
    }
}

// The unit tests build histograms sample by sample; the runtime only
// builds them from `AtomicHistogram` snapshots.
#[cfg(test)]
impl Histogram {
    /// Record a duration.
    fn record(&mut self, t: SimTime) {
        self.buckets[aurora_telemetry::metrics::bucket_index(t.as_ps())] += 1;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_telemetry::metrics::bucket_index;
    use aurora_telemetry::metrics::{bucket_ceil, bucket_octave, FINE_HI, FINE_LO};

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
        let mut h = Histogram::new();
        h.record(SimTime::from_ps(1));
        h.record(SimTime::from_ps(3));
        h.record(SimTime::from_ps(1024));
        h.record(SimTime::from_ps(1100));
        h.record(SimTime::ZERO);
        assert_eq!(h.count(), 5);
        let buckets: Vec<_> = h.nonzero().collect();
        assert!(buckets.contains(&(SimTime::from_ps(1), 2))); // 0 and 1
        assert!(buckets.contains(&(SimTime::from_ps(2), 1))); // 3
        assert!(buckets.contains(&(SimTime::from_ps(1024), 2))); // 1024..1152
    }

    #[test]
    fn histogram_percentiles_are_sub_bucket_floors() {
        let mut h = Histogram::new();
        // p50 and p99 in the same octave: 90 samples at 5 µs, 10 at
        // 7.5 µs, both in [2^22, 2^23) ps.
        for _ in 0..90 {
            h.record(SimTime::from_us(5));
        }
        for _ in 0..10 {
            h.record(SimTime::from_ns(7_500));
        }
        let p50 = h.percentile(50.0).unwrap().as_ps();
        let p99 = h.percentile(99.0).unwrap().as_ps();
        assert!(p50 < p99, "same octave, different sub-buckets");
        for (floor, sample) in [(p50, 5_000_000u64), (p99, 7_500_000)] {
            assert!(floor <= sample && sample - floor <= floor / 8);
        }
        assert_eq!(h.percentile(90.0), h.percentile(50.0));
        assert_eq!(h.percentile(100.0), h.percentile(99.0));
        assert_eq!(Histogram::new().percentile(50.0), None);
    }

    #[test]
    fn histogram_from_buckets_and_merge() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 5;
        buckets[HISTOGRAM_BUCKETS - 1] = 1;
        let h = Histogram::from_buckets(buckets);
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[3], 5);

        let mut a = Histogram::new();
        a.record(SimTime::from_ps(8));
        a.merge(&h);
        assert_eq!(a.count(), 7);
        assert_eq!(a.buckets()[3], 6);
        assert_eq!(a.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_matches_the_atomic_layout() {
        let atomic = aurora_telemetry::AtomicHistogram::new();
        let mut plain = Histogram::new();
        for ps in [0, 1, 999, 1 << 10, 6_000_000, 6_400_000, 1 << 45, u64::MAX] {
            atomic.record_ps(ps);
            plain.record(SimTime::from_ps(ps));
        }
        assert_eq!(
            Histogram::from_buckets(atomic.snapshot()).buckets(),
            plain.buckets()
        );
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
