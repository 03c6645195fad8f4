//! Virtual time with picosecond resolution.
//!
//! Bandwidth modelling needs sub-nanosecond resolution: 8 bytes at
//! 10 GiB/s take ~0.745 ns. A `u64` picosecond counter covers ~213 days of
//! simulated time, far beyond any benchmark run.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in, or span of, virtual time. Unit: picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from a floating-point number of seconds (rounded).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimTime((s * 1e12).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// As floating-point nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// As floating-point microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As floating-point milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction (useful when computing waiting times).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&aurora_telemetry::fmt_ps(self.0))
    }
}

/// Compute the bandwidth, in GiB/s, achieved by moving `bytes` in `t`.
///
/// Returns `f64::INFINITY` for a zero duration (used to guard against
/// division by zero when very small transfers round to zero cost).
pub fn gib_per_sec(bytes: u64, t: SimTime) -> f64 {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    if t == SimTime::ZERO {
        return f64::INFINITY;
    }
    bytes as f64 / GIB / t.as_secs_f64()
}

/// Compute the time a transfer of `bytes` takes at `gib_s` GiB/s.
pub fn time_at_gib_per_sec(bytes: u64, gib_s: f64) -> SimTime {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    assert!(gib_s > 0.0, "bandwidth must be positive");
    SimTime::from_secs_f64(bytes as f64 / (gib_s * GIB))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5e-6), SimTime::from_ns(1_500));
        assert_eq!(SimTime::from_secs_f64(0.5e-9), SimTime::from_ps(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(6.1e-6);
        assert!((t.as_us_f64() - 6.1).abs() < 1e-9);
        assert!((t.as_ns_f64() - 6_100.0).abs() < 1e-6);
        assert!((t.as_secs_f64() - 6.1e-6).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_helpers_are_inverses() {
        let bytes = 1u64 << 20; // 1 MiB
        let t = time_at_gib_per_sec(bytes, 10.0);
        let bw = gib_per_sec(bytes, t);
        assert!((bw - 10.0).abs() < 1e-3, "bw = {bw}");
    }

    #[test]
    fn zero_duration_bandwidth_is_infinite() {
        assert!(gib_per_sec(8, SimTime::ZERO).is_infinite());
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimTime::from_secs_f64(6.1e-6)), "6.100us");
        assert_eq!(format!("{}", SimTime::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::ZERO), "0s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }
}
