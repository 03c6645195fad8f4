//! LHM / SHM — the VE's Load/Store Host Memory instructions (§IV-A).
//!
//! Single-64-bit-word access to DMAATB-registered memory, issued from VE
//! code (the paper uses inline assembly; here, methods on the unit) on
//! VEHVAs inside a [`DmaWindow`] resolved at setup:
//!
//! * **LHM** (load): a synchronous, non-pipelined PCIe read round trip —
//!   720 ns/word, hence Table IV's 0.01 GiB/s;
//! * **SHM** (store): posted writes that pipeline through the link's
//!   credit window — fast for the first ~256 byte, throttled afterwards
//!   (Table IV: 0.06 GiB/s), which is why the paper suggests them for
//!   small VE→VH messages.
//!
//! `peek_word` exists for polling loops: a real atomic load with **zero
//! virtual cost**. Charging every failed poll would make modeled latency
//! depend on host-OS scheduling; instead the protocols charge exactly one
//! LHM on the successful poll and join the producer's in-band timestamp,
//! i.e. polling is modeled as arrival-driven (documented in DESIGN.md).

use aurora_mem::{DmaWindow, MemError, Vehva};
use aurora_pcie::{Direction, PcieLink};
use aurora_sim_core::calib;
use aurora_sim_core::{Clock, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The LHM/SHM execution unit of one VE core.
///
/// Stores share a posted-write credit window: a store stream issued
/// while credits are drained (within [`calib::SHM_CREDIT_REPLENISH`] of
/// the previous stream's end) runs entirely at the steady rate; after an
/// idle gap the full window is available again. This is what separates
/// Table IV's sustained 0.06 GiB/s from §V-B's fast single-word flags.
#[derive(Clone, Debug)]
pub struct LhmShmUnit {
    link: Arc<PcieLink>,
    extra_one_way: SimTime,
    /// When the credit window is full again (ps). It publishes no other
    /// data, so its update is `Relaxed`.
    credits_free_at: Arc<AtomicU64>,
}

impl LhmShmUnit {
    /// Unit on the given link with no UPI penalty.
    pub fn new(link: Arc<PcieLink>) -> Self {
        Self::with_extra_latency(link, SimTime::ZERO)
    }

    /// Unit with additional per-crossing latency (remote socket).
    pub fn with_extra_latency(link: Arc<PcieLink>, extra_one_way: SimTime) -> Self {
        Self {
            link,
            extra_one_way,
            credits_free_at: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The cost `stream_cost` gives for the credit window available at
    /// `now`; the stream drains the window until it ends plus the
    /// replenish time.
    fn take_window(&self, now: SimTime, stream_cost: impl Fn(u64) -> SimTime) -> SimTime {
        let mut cost = SimTime::ZERO;
        let _ =
            self.credits_free_at
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free_at| {
                    let window = if now.as_ps() >= free_at {
                        calib::shm_stream().window_words
                    } else {
                        0
                    };
                    cost = stream_cost(window);
                    Some((now + cost + calib::SHM_CREDIT_REPLENISH).as_ps())
                });
        cost
    }

    /// LHM: load one 64-bit word from registered memory. Synchronous
    /// round trip; `clock` advances by the word cost.
    pub fn lhm(&self, clock: &Clock, win: &DmaWindow, src: Vehva) -> Result<u64, MemError> {
        let (region, off) = win.access(src, 8)?;
        let v = region.atomic_u64(off)?.load(Ordering::Acquire);
        let t0 = clock.now();
        let t1 = clock.advance(calib::LHM_WORD + self.extra_one_way * 2);
        aurora_sim_core::trace::record("lhm.word", 8, t0, t1);
        Ok(v)
    }

    /// Zero-virtual-cost atomic peek for polling loops. See module docs.
    pub fn peek_word(&self, win: &DmaWindow, src: Vehva) -> Result<u64, MemError> {
        let (region, off) = win.access(src, 8)?;
        Ok(region.atomic_u64(off)?.load(Ordering::Acquire))
    }

    /// SHM: store one 64-bit word to registered memory (Release). Posted;
    /// the returned time is when the word lands in destination memory —
    /// what an in-band timestamp should carry.
    pub fn shm(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        dst: Vehva,
        value: u64,
    ) -> Result<SimTime, MemError> {
        let (region, off) = win.access(dst, 8)?;
        let t0 = clock.now();
        let cost = self.take_window(t0, |w| calib::shm_stream().transfer_time_with_window(1, w))
            + self.extra_one_way;
        let done = clock.advance(cost);
        aurora_sim_core::trace::record("shm.word", 8, t0, done);
        region.atomic_u64(off)?.store(value, Ordering::Release);
        Ok(done)
    }

    /// SHM a *timestamp flag*: compute this store's landing time, store
    /// that time (in ps) as the flag's value, and return it. The paper's
    /// DMA protocol uses this for result notification — a non-zero flag
    /// doubles as the in-band virtual timestamp.
    pub fn shm_timestamp(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        dst: Vehva,
    ) -> Result<SimTime, MemError> {
        let (region, off) = win.access(dst, 8)?;
        let t0 = clock.now();
        let cost = self.take_window(t0, |w| calib::shm_stream().transfer_time_with_window(1, w))
            + self.extra_one_way;
        let done = clock.advance(cost);
        aurora_sim_core::trace::record("shm.flag", 8, t0, done);
        region
            .atomic_u64(off)?
            .store(done.as_ps(), std::sync::atomic::Ordering::Release);
        Ok(done)
    }

    /// SHM a stream of words to consecutive registered addresses,
    /// modelling write-combining across the whole stream (one setup, one
    /// credit window). Returns the landing time of the last word.
    pub fn shm_stream(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        dst: Vehva,
        words: &[u64],
    ) -> Result<SimTime, MemError> {
        let len = (words.len() * 8) as u64;
        let (region, off) = win.access(dst, len)?;
        for (i, w) in words.iter().enumerate() {
            region.write_u64_le(off + (i * 8) as u64, *w)?;
        }
        let stream = self.take_window(clock.now(), |win| {
            calib::shm_stream().transfer_time_with_window(words.len() as u64, win)
        });
        let wire = self
            .link
            .occupy_for(Direction::Ve2Vh, clock.now(), stream, len);
        Ok(clock.join(wire.end + self.extra_one_way))
    }

    /// LHM a stream of words from consecutive registered addresses.
    /// Loads do not pipeline: each word is a full round trip.
    pub fn lhm_stream(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        src: Vehva,
        out: &mut [u64],
    ) -> Result<SimTime, MemError> {
        let len = (out.len() * 8) as u64;
        let (region, off) = win.access(src, len)?;
        for (i, w) in out.iter_mut().enumerate() {
            *w = region.read_u64_le(off + (i * 8) as u64)?;
        }
        let per_word = calib::LHM_WORD + self.extra_one_way * 2;
        Ok(clock.advance(per_word * out.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_mem::{DmaTarget, Dmaatb, Region};

    /// `host`, registered whole and resolved.
    fn window(host: &Arc<Region>) -> DmaWindow {
        let atb = Dmaatb::new(1);
        let target = DmaTarget {
            region: Arc::clone(host),
            offset: 0,
        };
        atb.window(atb.register(target, host.len()).unwrap())
            .unwrap()
    }

    fn setup() -> (LhmShmUnit, DmaWindow, Arc<Region>, Vehva) {
        let unit = LhmShmUnit::new(Arc::new(PcieLink::default()));
        let host = Region::new(1 << 20);
        let win = window(&host);
        let vehva = win.base();
        (unit, win, host, vehva)
    }

    #[test]
    fn lhm_reads_host_word() {
        let (unit, win, host, vehva) = setup();
        host.store_u64(16, 0xABCD).unwrap();
        let clock = Clock::new();
        assert_eq!(unit.lhm(&clock, &win, vehva.offset(16)).unwrap(), 0xABCD);
        assert_eq!(clock.now(), calib::LHM_WORD);
    }

    #[test]
    fn shm_writes_host_word() {
        let (unit, win, host, vehva) = setup();
        let clock = Clock::new();
        let done = unit.shm(&clock, &win, vehva.offset(8), 77).unwrap();
        assert_eq!(host.load_u64(8).unwrap(), 77);
        assert_eq!(done, clock.now());
        // One word ≈ 160 ns (§V-B derivation).
        assert!(done < SimTime::from_ns(200), "one-word SHM = {done}");
    }

    #[test]
    fn peek_costs_nothing() {
        let (unit, win, host, vehva) = setup();
        host.store_u64(0, 5).unwrap();
        let clock = Clock::new();
        assert_eq!(unit.peek_word(&win, vehva).unwrap(), 5);
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn shm_stream_two_regimes() {
        let (unit, win, host, vehva) = setup();
        let words: Vec<u64> = (0..64).collect();
        let clock = Clock::new();
        unit.shm_stream(&clock, &win, vehva, &words).unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(host.read_u64_le((i * 8) as u64).unwrap(), *w);
        }
        let t64 = clock.now();
        // 64 words: 32 fast + 32 steady.
        let expect = calib::shm_stream().transfer_time(64);
        assert_eq!(t64, expect);
    }

    #[test]
    fn lhm_stream_is_per_word_round_trips() {
        let (unit, win, host, vehva) = setup();
        for i in 0..16u64 {
            host.write_u64_le(i * 8, i * i).unwrap();
        }
        let clock = Clock::new();
        let mut out = [0u64; 16];
        unit.lhm_stream(&clock, &win, vehva, &mut out).unwrap();
        assert_eq!(out[15], 225);
        assert_eq!(clock.now(), calib::LHM_WORD * 16);
    }

    #[test]
    fn shm_beats_udma_only_up_to_256_bytes() {
        // §V-B cross-check at the unit level.
        let (unit, win, _host, vehva) = setup();
        let shm_32w = {
            let c = Clock::new();
            unit.shm_stream(&c, &win, vehva, &vec![0u64; 32]).unwrap();
            c.now()
        };
        let shm_64w = {
            let c = Clock::new();
            unit.shm_stream(&c, &win, vehva, &vec![0u64; 64]).unwrap();
            c.now()
        };
        assert!(shm_32w < calib::UDMA_SETUP, "SHM wins at 256 B");
        assert!(shm_64w > calib::UDMA_SETUP, "user DMA wins at 512 B");
    }

    #[test]
    fn upi_adds_latency() {
        let link = Arc::new(PcieLink::default());
        let near = LhmShmUnit::new(Arc::clone(&link));
        let far = LhmShmUnit::with_extra_latency(link, calib::UPI_HOP);
        let win = window(&Region::new(64));
        let vehva = win.base();
        let c1 = Clock::new();
        near.lhm(&c1, &win, vehva).unwrap();
        let c2 = Clock::new();
        far.lhm(&c2, &win, vehva).unwrap();
        assert_eq!(c2.now() - c1.now(), calib::UPI_HOP * 2);
    }
}
