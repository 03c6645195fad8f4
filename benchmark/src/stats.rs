//! Sample buffers and order statistics.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of per-round values: middle element, or the mean of
/// the two middle elements for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed
/// here matches one computed from the result files. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Position q·(n+1)/4 on a 1-based scale; like Python, the
        // index is clamped to the data but the offset is not.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Share of a run's windows that make up its "good state": a windowed
/// metric reports the boundary of its best tenth.
pub const GOOD_SHARE: f64 = 0.10;

/// The value a metric reaches or beats in the best [`GOOD_SHARE`] of
/// `values` — the 90th percentile where higher is better, the 10th
/// otherwise — by linear interpolation between order statistics.
pub fn better_decile(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let p = if higher_is_better {
        1.0 - GOOD_SHARE
    } else {
        GOOD_SHARE
    };
    let pos = p * last as f64;
    let (i, frac) = (pos as usize, pos.fract());
    Some(v[i] + (v[(i + 1).min(last)] - v[i]) * frac)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the bounds in `BENCHMARK.json` are sized against.
pub fn rel_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Fixed-size latency sample buffer. Memory is allocated and touched up
/// front so `peak_rss_mib` does not depend on how many operations a
/// round completes; when the buffer fills, every second sample is
/// dropped and the recording stride doubles, so the kept samples stay
/// evenly spread over the whole timed region.
pub struct Samples {
    buf: Vec<u32>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// Default capacity: 2²⁰ samples (4 MiB).
    pub const CAP: usize = 1 << 20;

    pub fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "even decimation needs 2^k slots");
        // Writing non-zero values (`vec![0; cap]` would only map
        // untouched zero pages) makes every page resident now.
        let mut buf = Vec::with_capacity(cap);
        buf.resize(cap, 1);
        buf.clear();
        Self {
            buf,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Record one latency in nanoseconds (saturating at ~4.29 s).
    #[inline]
    pub fn push(&mut self, ns: u64) {
        // `stride` is a power of two: the mask picks every stride-th op.
        if self.seen & (self.stride - 1) == 0 {
            if self.buf.len() == self.cap {
                self.halve();
            }
            if self.seen & (self.stride - 1) == 0 {
                self.buf.push(ns.min(u32::MAX as u64) as u32);
            }
        }
        self.seen += 1;
    }

    #[cold]
    fn halve(&mut self) {
        let kept = self.buf.len() / 2;
        for i in 0..kept {
            self.buf[i] = self.buf[2 * i];
        }
        self.buf.truncate(kept);
        self.stride *= 2;
    }

    /// Operations observed (recorded or skipped by the stride).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Ascending kept samples among observations `from..to`.
    pub fn range_sorted(&self, from: u64, to: u64) -> Vec<u64> {
        // Kept sample `k` is observation `k * stride`.
        let idx = |seen: u64| (seen.div_ceil(self.stride) as usize).min(self.buf.len());
        let mut v: Vec<u64> = self.buf[idx(from)..idx(to)]
            .iter()
            .map(|&x| x as u64)
            .collect();
        v.sort_unstable();
        v
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buf.iter().map(|&x| x as u64).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!((rel_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_decile_picks_the_good_side() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(better_decile(&v, true), Some(9.0));
        assert_eq!(better_decile(&v, false), Some(1.0));
        let (hi, lo) = (
            better_decile(&[1.0, 2.0], true),
            better_decile(&[1.0, 2.0], false),
        );
        assert!((hi.unwrap() - 1.9).abs() < 1e-12 && (lo.unwrap() - 1.1).abs() < 1e-12);
        assert_eq!(better_decile(&[5.0], true), Some(5.0));
        assert_eq!(better_decile(&[], true), None);
    }

    #[test]
    fn window_ranges_survive_decimation() {
        let mut s = Samples::new(8);
        for i in 0..32 {
            s.push(i);
        }
        // Kept: 0, 4, .., 28. Observations 8..20 hold 8, 12, 16.
        assert_eq!(s.range_sorted(8, 20), vec![8, 12, 16]);
        assert_eq!(s.range_sorted(0, 32).len(), 8);
    }

    #[test]
    fn samples_decimate_evenly_when_full() {
        let mut s = Samples::new(8);
        for i in 0..32 {
            s.push(i);
        }
        assert_eq!(s.seen(), 32);
        // Stride doubled twice: every 4th observation survives.
        assert_eq!(s.sorted(), vec![0, 4, 8, 12, 16, 20, 24, 28]);
    }
}
