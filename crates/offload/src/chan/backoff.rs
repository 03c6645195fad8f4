//! Pacing of every wait loop: host-side waits (`Backoff`) and idle
//! targets ([`Idle`]).
//!
//! **The rule: spin only where another CPU can run the peer.** Targets
//! are threads that share the host's CPUs, so a spinning waiter makes
//! progress only if the side it waits for is running elsewhere at the
//! same time. `spin_pays()` reads that fact once per process from
//! `std::thread::available_parallelism()`, which honours the affinity
//! mask and the cgroup CPU quota: under `taskset -c N` or in a
//! one-CPU container it reads 1, and nothing spins.
//!
//! * `Backoff` paces a host wait: 6 spin rounds (exponentially more
//!   spin hints each), 4 `yield_now` rounds, then sleeps that double up
//!   to 50 µs. When spinning cannot pay, the 6 spin rounds become yield
//!   rounds. Either way the first sleep comes after exactly 10 rounds:
//!   the sleep phase is counted in rounds, not in elapsed time, because
//!   the caller sweeps once per round and recovery deadlines are counted
//!   in sweeps. A deadline of N misses therefore means the same number
//!   of polls on every machine.
//! * [`Idle`] paces an idle target's poll of its next receive slot: it
//!   spins for at most [`SPIN`] of wall time when spinning pays, and
//!   otherwise tells the caller at once to hand the CPU back (yield or
//!   park).
//!
//! Only *wall-clock* scheduling changes; virtual time is untouched.
//! Each blocking host wait that paused counts the [`WaitPhase`] it
//! ended in (`waits_spin`, `waits_yield`, `waits_sleep`).

use aurora_sim_core::{BackendMetrics, WaitPhase};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Spin rounds before the first yield (yield rounds when spinning cannot
/// pay).
const SPIN_ROUNDS: u32 = 6;
/// Rounds before the first sleep.
const YIELD_ROUNDS: u32 = 10;
/// Longest single pause; keeps worst-case added latency small.
const MAX_SLEEP_US: u64 = 50;

/// How long an idle target polls its next receive slot before it hands
/// its CPU back, when spinning pays.
pub const SPIN: Duration = Duration::from_micros(50);

/// Whether spinning can pay: more than one CPU may run this process's
/// threads. Read once per process.
pub(crate) fn spin_pays() -> bool {
    static PAYS: OnceLock<bool> = OnceLock::new();
    *PAYS.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// One wait-loop's backoff state. Create per wait, call
/// [`Backoff::snooze`] once per fruitless round and
/// [`Backoff::record`] once the wait ends.
#[derive(Debug)]
pub(crate) struct Backoff {
    round: u32,
    spin: bool,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Fresh state, spinning first if another CPU can run the peer.
    pub(crate) fn new() -> Self {
        Self::with_spin(spin_pays())
    }

    /// Fresh state with the spin phase forced on or off.
    pub(crate) fn with_spin(spin: bool) -> Self {
        Self { round: 0, spin }
    }

    fn phase_of(&self, round: u32) -> WaitPhase {
        if round < SPIN_ROUNDS && self.spin {
            WaitPhase::Spin
        } else if round < YIELD_ROUNDS {
            WaitPhase::Yield
        } else {
            WaitPhase::Sleep
        }
    }

    /// Pause appropriately for how long this wait has been fruitless:
    /// spin hints → `yield_now` → exponentially longer sleeps capped at
    /// 50 µs.
    pub(crate) fn snooze(&mut self) {
        match self.phase_of(self.round) {
            WaitPhase::Spin => {
                for _ in 0..(1u32 << self.round) {
                    core::hint::spin_loop();
                }
            }
            WaitPhase::Yield => std::thread::yield_now(),
            WaitPhase::Sleep => {
                let exp = (self.round - YIELD_ROUNDS).min(6);
                let us = (1u64 << exp).min(MAX_SLEEP_US);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        self.round = self.round.saturating_add(1);
    }

    /// The phase of the last pause; `None` before the first.
    fn phase(&self) -> Option<WaitPhase> {
        self.round.checked_sub(1).map(|r| self.phase_of(r))
    }

    /// Count the wait that just ended in `metrics`' wait-phase counters.
    /// A wait that never paused is not counted.
    pub(crate) fn record(&self, metrics: &BackendMetrics) {
        if let Some(phase) = self.phase() {
            metrics.on_wait(phase);
        }
    }
}

/// An idle target's poll pacing. Create per idle stretch, call
/// [`Idle::spin`] once per empty poll.
#[derive(Debug)]
pub struct Idle {
    window: Duration,
    since: Option<Instant>,
}

impl Default for Idle {
    fn default() -> Self {
        Self::new()
    }
}

impl Idle {
    /// A fresh idle stretch: a [`SPIN`] window if another CPU can run
    /// the peer, none otherwise.
    pub fn new() -> Self {
        Self::with_spin(spin_pays())
    }

    /// A fresh idle stretch with the spin window forced on or off.
    pub(crate) fn with_spin(spin: bool) -> Self {
        let window = if spin { SPIN } else { Duration::ZERO };
        Self {
            window,
            since: None,
        }
    }

    /// One empty poll. `true`: a spin hint was issued and the window is
    /// still open, so poll again. `false`: the window is over (or there
    /// is none), so hand the CPU back before polling again.
    pub fn spin(&mut self) -> bool {
        if self.window.is_zero() {
            return false;
        }
        let since = *self.since.get_or_insert_with(Instant::now);
        if since.elapsed() < self.window {
            core::hint::spin_loop();
            true
        } else {
            false
        }
    }

    /// The caller parked or served work: the next empty poll opens a
    /// fresh window.
    pub fn reset(&mut self) {
        self.since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The phase of every round from the first to `n`.
    fn phases(spin: bool, n: u32) -> Vec<WaitPhase> {
        let b = Backoff::with_spin(spin);
        (0..n).map(|r| b.phase_of(r)).collect()
    }

    #[test]
    fn snooze_escalates_without_panicking() {
        for spin in [true, false] {
            let mut b = Backoff::with_spin(spin);
            // Enough rounds to walk through every phase, including the
            // saturated tail.
            for _ in 0..64 {
                b.snooze();
            }
            assert!(b.round >= 64);
            assert_eq!(b.phase(), Some(WaitPhase::Sleep));
        }
    }

    #[test]
    fn where_spinning_pays_the_rounds_are_six_spins_four_yields_then_sleeps() {
        use WaitPhase::*;
        let want = [
            [Spin; 6].as_slice(),
            [Yield; 4].as_slice(),
            [Sleep; 6].as_slice(),
        ]
        .concat();
        assert_eq!(phases(true, 16), want);
    }

    #[test]
    fn where_spinning_cannot_pay_no_round_spins_and_the_first_sleep_is_the_eleventh() {
        let p = phases(false, 64);
        assert!(!p.contains(&WaitPhase::Spin));
        assert_eq!(
            p.iter().position(|&x| x == WaitPhase::Sleep),
            Some(YIELD_ROUNDS as usize)
        );
        // And through `snooze`: ten snoozes yield, the eleventh sleeps.
        let mut b = Backoff::with_spin(false);
        for _ in 0..YIELD_ROUNDS {
            b.snooze();
            assert_eq!(b.phase(), Some(WaitPhase::Yield));
        }
        b.snooze();
        assert_eq!(b.phase(), Some(WaitPhase::Sleep));
    }

    #[test]
    fn a_wait_is_counted_in_the_phase_of_its_last_pause() {
        let m = BackendMetrics::new();
        let mut b = Backoff::with_spin(true);
        b.record(&m);
        b.snooze();
        b.record(&m);
        for _ in 0..6 {
            b.snooze();
        }
        b.record(&m);
        for _ in 0..4 {
            b.snooze();
        }
        b.record(&m);
        let s = m.snapshot();
        assert_eq!((s.waits_spin, s.waits_yield, s.waits_sleep), (1, 1, 1));
    }

    #[test]
    fn idle_without_spinning_gives_up_at_once() {
        let mut idle = Idle::with_spin(false);
        assert!(!idle.spin());
        assert!(idle.since.is_none(), "not even the clock is read");
    }

    #[test]
    fn idle_with_spinning_gives_up_after_the_window_and_reset_reopens_it() {
        let mut idle = Idle::with_spin(true);
        for _ in 0..2 {
            let t = Instant::now();
            while idle.spin() {}
            assert!(t.elapsed() >= SPIN, "the window lasts SPIN");
            assert!(!idle.spin(), "and stays closed");
            idle.reset();
        }
    }
}
