//! The VE user DMA engine (§IV-A).
//!
//! Each VE core owns a user DMA engine that VE code programs directly —
//! no VEOS involvement, no on-the-fly translation: source/destination on
//! the host side are VEHVAs inside a [`DmaWindow`] that VE code resolved
//! from the DMAATB once, at setup. This is the fast path of the paper's
//! DMA protocol.
//!
//! Costs follow `calib::udma_*`: ~1.45 µs setup plus the streaming time
//! at 10.6 (VH⇒VE) / 11.1 (VE⇒VH) GiB/s, serialized per engine and
//! occupying the PCIe wire so contention is modeled.

use aurora_mem::{DmaWindow, MemError, Region, Vehva};
use aurora_pcie::{Direction, PcieLink};
use aurora_sim_core::calib;
use aurora_sim_core::{Clock, SimTime, Timeline};
use std::sync::Arc;

/// One user DMA engine (one per VE core).
#[derive(Clone, Debug)]
pub struct UserDma {
    link: Arc<PcieLink>,
    engine: Timeline,
    /// Extra one-way latency (UPI hop) for the current host pairing.
    extra_one_way: SimTime,
}

impl UserDma {
    /// Engine on the given link with no UPI penalty.
    pub fn new(link: Arc<PcieLink>) -> Self {
        Self::with_extra_latency(link, SimTime::ZERO)
    }

    /// Engine with an additional one-way latency per link crossing
    /// (offloading host process pinned to the remote socket).
    pub fn with_extra_latency(link: Arc<PcieLink>, extra_one_way: SimTime) -> Self {
        Self {
            link,
            engine: Timeline::new(),
            extra_one_way,
        }
    }

    /// DMA *read*: fetch `len` bytes of DMAATB-registered (host) memory at
    /// `src` into local memory `dst` at `dst_off`. Returns the virtual
    /// completion time; `clock` is advanced to it.
    ///
    /// A read is a non-posted round trip: request out, data back — two
    /// extra-latency crossings when UPI is involved.
    pub fn read_host(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        src: Vehva,
        dst: &Region,
        dst_off: u64,
        len: u64,
    ) -> Result<SimTime, MemError> {
        let (host, host_off) = win.access(src, len)?;
        // Real data movement.
        Region::copy_between(host, host_off, dst, dst_off, len)?;
        // Virtual cost.
        let setup = calib::UDMA_SETUP + self.extra_one_way * 2;
        let issue = self.engine.reserve(clock.now(), setup);
        let base = aurora_sim_core::time::time_at_gib_per_sec(len, calib::UDMA_VH2VE_GIB_S);
        let stream = base + self.fault_delay(base, clock.now());
        let wire = self
            .link
            .occupy_for(Direction::Vh2Ve, issue.end, stream, len);
        aurora_sim_core::trace::record("udma.read", len, issue.start, wire.end);
        Ok(clock.join(wire.end))
    }

    /// DMA *write*: push `len` bytes of local memory `src` at `src_off`
    /// into DMAATB-registered (host) memory at `dst`. Posted: one
    /// extra-latency crossing when UPI is involved.
    pub fn write_host(
        &self,
        clock: &Clock,
        win: &DmaWindow,
        src: &Region,
        src_off: u64,
        dst: Vehva,
        len: u64,
    ) -> Result<SimTime, MemError> {
        let (host, host_off) = win.access(dst, len)?;
        Region::copy_between(src, src_off, host, host_off, len)?;
        let setup = calib::UDMA_SETUP + self.extra_one_way;
        let issue = self.engine.reserve(clock.now(), setup);
        let base = aurora_sim_core::time::time_at_gib_per_sec(len, calib::UDMA_VE2VH_GIB_S);
        let stream = base + self.fault_delay(base, clock.now());
        let wire = self
            .link
            .occupy_for(Direction::Ve2Vh, issue.end, stream, len);
        aurora_sim_core::trace::record("udma.write", len, issue.start, wire.end);
        Ok(clock.join(wire.end))
    }

    /// Injected engine-level delay (stalls, partial-transfer
    /// retransmissions) for one descriptor of streaming time `base`,
    /// drawn from the fault plan armed on this engine's link. Zero
    /// without a plan.
    fn fault_delay(&self, base: SimTime, now: SimTime) -> SimTime {
        match self.link.faults() {
            Some((plan, actor)) => plan.dma_delay(*actor, base, now),
            None => SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_mem::{DmaTarget, Dmaatb};

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

    fn setup() -> (UserDma, DmaWindow, Arc<Region>, Vehva, Arc<Region>) {
        let link = Arc::new(PcieLink::default());
        let dma = UserDma::new(link);
        let host = Region::new(1 << 20);
        let win = window(&host);
        let vehva = win.base();
        let local = Region::new(1 << 20);
        (dma, win, host, vehva, local)
    }

    #[test]
    fn read_host_moves_data_and_time() {
        let (dma, win, host, vehva, local) = setup();
        host.write(64, b"from the host").unwrap();
        let clock = Clock::new();
        let done = dma
            .read_host(&clock, &win, vehva.offset(64), &local, 0, 13)
            .unwrap();
        let mut buf = [0u8; 13];
        local.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"from the host");
        // Small transfer ≈ setup cost.
        assert!(done >= calib::UDMA_SETUP);
        assert!(done < calib::UDMA_SETUP + SimTime::from_ns(100));
        assert_eq!(clock.now(), done);
    }

    #[test]
    fn write_host_moves_data_and_time() {
        let (dma, win, host, vehva, local) = setup();
        local.write(0, b"to the host").unwrap();
        let clock = Clock::new();
        dma.write_host(&clock, &win, &local, 0, vehva.offset(128), 11)
            .unwrap();
        let mut buf = [0u8; 11];
        host.read(128, &mut buf).unwrap();
        assert_eq!(&buf, b"to the host");
    }

    #[test]
    fn large_transfer_rate_matches_calibration() {
        let (dma, win, _host, vehva, local) = setup();
        let clock = Clock::new();
        let len = 1 << 20;
        let done = dma.read_host(&clock, &win, vehva, &local, 0, len).unwrap();
        let bw = aurora_sim_core::time::gib_per_sec(len, done);
        assert!(
            (bw - calib::UDMA_VH2VE_GIB_S).abs() / calib::UDMA_VH2VE_GIB_S < 0.05,
            "bw = {bw}"
        );
    }

    #[test]
    fn ve2vh_faster_than_vh2ve() {
        let (dma, win, _host, vehva, local) = setup();
        let len = 1 << 20;
        let c1 = Clock::new();
        let t_read = dma.read_host(&c1, &win, vehva, &local, 0, len).unwrap();
        let dma2 = UserDma::new(Arc::new(PcieLink::default()));
        let c2 = Clock::new();
        let t_write = dma2.write_host(&c2, &win, &local, 0, vehva, len).unwrap();
        assert!(t_write < t_read, "posted writes beat non-posted reads");
    }

    #[test]
    fn upi_penalty_applies() {
        let link = Arc::new(PcieLink::default());
        let near = UserDma::new(Arc::clone(&link));
        let far = UserDma::with_extra_latency(link, calib::UPI_HOP);
        let win = window(&Region::new(4096));
        let vehva = win.base();
        let local = Region::new(4096);
        let c1 = Clock::new();
        let t_near = near.read_host(&c1, &win, vehva, &local, 0, 8).unwrap();
        let c2 = Clock::new();
        let t_far = far.read_host(&c2, &win, vehva, &local, 0, 8).unwrap();
        assert_eq!(t_far - t_near, calib::UPI_HOP * 2, "read = round trip");
    }

    #[test]
    fn unregistered_vehva_faults() {
        let (dma, win, _h, _v, local) = setup();
        let clock = Clock::new();
        assert!(matches!(
            dma.read_host(&clock, &win, Vehva(0x42), &local, 0, 8),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn engine_serializes_requests() {
        let (dma, win, _host, vehva, local) = setup();
        let clock = Clock::new();
        let len = 1 << 16;
        let t1 = dma.read_host(&clock, &win, vehva, &local, 0, len).unwrap();
        // Second request from the same virtual instant queues behind the
        // first on the engine timeline; issue from a fresh clock at 0.
        let clock2 = Clock::new();
        let t2 = dma.read_host(&clock2, &win, vehva, &local, 0, len).unwrap();
        assert!(t2 > t1, "engine busy-until serializes: {t1} then {t2}");
    }
}
