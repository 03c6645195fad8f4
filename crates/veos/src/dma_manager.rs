//! The privileged ("system") DMA manager inside VEOS (§I-B, §III-D).
//!
//! VEO's `read_mem`/`write_mem` land here. The engine is shared by all
//! cores of one VE and driven with *absolute* addresses: every transfer
//! pays (a) the three-component software hop — pseudo-process → VEOS →
//! kernel modules — reflected in the large per-operation base cost, and
//! (b) on-the-fly virtual→physical translation of the VH buffer, page by
//! page. The *improved* manager (VEOS 1.3.2-4dma) performs bulk
//! translations overlapped with descriptor generation and the DMA itself,
//! shrinking (b) to a residual; the *classic* manager pays it in full —
//! which is the huge-page/manager ablation of the evaluation.

use crate::machine::VhMemory;
use crate::process::VeProcess;
use aurora_mem::{MemError, VeAddr, VhAddr};
use aurora_pcie::Direction;
use aurora_sim_core::{calib, Clock, SimTime, Timeline};
use std::sync::Arc;

/// A VH-side buffer handed to the DMA manager.
#[derive(Clone, Debug)]
pub struct HostSlice {
    /// The socket memory the buffer lives in.
    pub vh: Arc<VhMemory>,
    /// VH virtual address of the buffer start.
    pub vaddr: VhAddr,
}

/// The privileged DMA manager of one VEOS instance.
#[derive(Debug)]
pub struct DmaManager {
    improved: bool,
    engine: Timeline,
}

impl DmaManager {
    /// Build a manager; `improved` selects the 1.3.2-4dma behaviour.
    pub fn new(improved: bool) -> Self {
        Self {
            improved,
            engine: Timeline::new(),
        }
    }

    fn per_page(&self) -> SimTime {
        if self.improved {
            calib::VEOS_PAGE_COST_IMPROVED
        } else {
            calib::VEOS_PAGE_COST_CLASSIC
        }
    }

    /// `veo_write_mem`: VH buffer → VE process memory. Advances `clock`
    /// (the calling VH process) to completion and returns that time.
    pub fn write_ve(
        &self,
        clock: &Clock,
        host: &HostSlice,
        proc: &VeProcess,
        dst: VeAddr,
        len: u64,
    ) -> Result<SimTime, MemError> {
        self.transfer(clock, host, proc, dst, len, true)
    }

    /// `veo_read_mem`: VE process memory → VH buffer.
    pub fn read_ve(
        &self,
        clock: &Clock,
        host: &HostSlice,
        proc: &VeProcess,
        src: VeAddr,
        len: u64,
    ) -> Result<SimTime, MemError> {
        self.transfer(clock, host, proc, src, len, false)
    }

    /// Two-phase variant: reserve engine + wire for a transfer of `len`
    /// bytes and return the completion time **without moving data**.
    ///
    /// The paper's protocols need a notification flag whose *value*
    /// encodes the virtual time at which it lands in VE memory; a caller
    /// uses `quote_write` to learn that time, embeds it, and performs the
    /// raw copy itself (payload first, flag last with Release ordering).
    pub fn quote_write(
        &self,
        clock: &Clock,
        host: &HostSlice,
        proc: &VeProcess,
        len: u64,
    ) -> Result<SimTime, MemError> {
        self.quote(clock, host, proc, len, true)
    }

    fn quote(
        &self,
        clock: &Clock,
        host: &HostSlice,
        proc: &VeProcess,
        len: u64,
        write: bool,
    ) -> Result<SimTime, MemError> {
        let model = calib::veo_transfer(write, host.vh.page_size().bytes(), self.improved);
        let pages = host.vh.page_size().pages_touched(host.vaddr.get(), len);
        let setup = model.setup + self.per_page() * pages;
        let issue = self.engine.reserve(clock.now(), setup);
        let dir = if write {
            Direction::Vh2Ve
        } else {
            Direction::Ve2Vh
        };
        let wire = proc.ve().link().occupy_for(
            dir,
            issue.end,
            aurora_sim_core::time::time_at_gib_per_sec(len, model.gib_per_sec),
            len,
        );
        aurora_sim_core::trace::record(
            if write {
                "veo.write_mem"
            } else {
                "veo.read_mem"
            },
            len,
            issue.start,
            wire.end,
        );
        Ok(clock.join(wire.end))
    }

    fn transfer(
        &self,
        clock: &Clock,
        host: &HostSlice,
        proc: &VeProcess,
        ve_addr: VeAddr,
        len: u64,
        write: bool,
    ) -> Result<SimTime, MemError> {
        // --- real data movement -------------------------------------
        let vh_off = host.vh.translate(host.vaddr)?;
        let ve_off = proc.translate(ve_addr, len)?;
        if write {
            aurora_mem::Region::copy_between(host.vh.region(), vh_off, proc.hbm(), ve_off, len)?;
        } else {
            aurora_mem::Region::copy_between(proc.hbm(), ve_off, host.vh.region(), vh_off, len)?;
        }

        // --- virtual cost (the SegmentedModel of `calib`) ------------
        self.quote(clock, host, proc, len, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AuroraMachine, MachineConfig};
    use aurora_mem::PageSize;
    use aurora_sim_core::time::gib_per_sec;

    fn setup(cfg: MachineConfig) -> (Arc<AuroraMachine>, Arc<VeProcess>, DmaManager) {
        let m = AuroraMachine::small(1, cfg);
        let proc = crate::daemon::Veos::new(Arc::clone(m.ve(0)), cfg.improved_dma).create_process();
        let mgr = DmaManager::new(cfg.improved_dma);
        (m, proc, mgr)
    }

    #[test]
    fn write_moves_data_to_ve() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = Arc::clone(m.vh(0));
        let src = vh.alloc(64).unwrap();
        vh.write(src, b"payload for ve").unwrap();
        let dst = proc.alloc_mem(64).unwrap();
        let clock = Clock::new();
        mgr.write_ve(&clock, &HostSlice { vh, vaddr: src }, &proc, dst, 14)
            .unwrap();
        let mut out = [0u8; 14];
        proc.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"payload for ve");
        // Small transfer ≈ base latency.
        let t = clock.now();
        assert!(t >= calib::VEO_WRITE_BASE, "t = {t}");
        assert!(t < calib::VEO_WRITE_BASE + SimTime::from_us(2));
    }

    #[test]
    fn read_moves_data_to_vh() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = Arc::clone(m.vh(0));
        let dst = vh.alloc(64).unwrap();
        let src = proc.alloc_mem(64).unwrap();
        proc.write(src, b"result from ve").unwrap();
        let clock = Clock::new();
        let t = mgr
            .read_ve(
                &clock,
                &HostSlice {
                    vh: Arc::clone(&vh),
                    vaddr: dst,
                },
                &proc,
                src,
                14,
            )
            .unwrap();
        let mut out = [0u8; 14];
        vh.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"result from ve");
        assert!(t >= calib::VEO_READ_BASE);
    }

    #[test]
    fn improved_hugepages_hits_table4_peak() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = Arc::clone(m.vh(0));
        let len = 64u64 << 20;
        let src = vh.alloc(len).unwrap();
        let dst = proc.alloc_mem(len).unwrap();
        let clock = Clock::new();
        let t = mgr
            .write_ve(&clock, &HostSlice { vh, vaddr: src }, &proc, dst, len)
            .unwrap();
        let bw = gib_per_sec(len, t);
        assert!((bw - 9.9).abs() / 9.9 < 0.05, "write bw = {bw}");
    }

    #[test]
    fn classic_small_pages_is_translation_bound() {
        let cfg = MachineConfig {
            vh_page: PageSize::Small4K,
            improved_dma: false,
            ..Default::default()
        };
        let (m, proc, mgr) = setup(cfg);
        let vh = Arc::clone(m.vh(0));
        let len = 16u64 << 20;
        let src = vh.alloc(len).unwrap();
        let dst = proc.alloc_mem(len).unwrap();
        let clock = Clock::new();
        let t = mgr
            .write_ve(&clock, &HostSlice { vh, vaddr: src }, &proc, dst, len)
            .unwrap();
        let bw = gib_per_sec(len, t);
        assert!(bw < 2.0, "classic/4K bw = {bw} (motivates 1.3.2-4dma)");
    }

    #[test]
    fn read_direction_is_faster_at_peak() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = Arc::clone(m.vh(0));
        let len = 64u64 << 20;
        let a = vh.alloc(len).unwrap();
        let d = proc.alloc_mem(len).unwrap();
        let cw = Clock::new();
        let tw = mgr
            .write_ve(
                &cw,
                &HostSlice {
                    vh: Arc::clone(&vh),
                    vaddr: a,
                },
                &proc,
                d,
                len,
            )
            .unwrap();
        // Fresh manager/link so occupancy does not carry over.
        let (m2, proc2, mgr2) = setup(MachineConfig::default());
        let vh2 = Arc::clone(m2.vh(0));
        let a2 = vh2.alloc(len).unwrap();
        let d2 = proc2.alloc_mem(len).unwrap();
        let cr = Clock::new();
        let tr = mgr2
            .read_ve(&cr, &HostSlice { vh: vh2, vaddr: a2 }, &proc2, d2, len)
            .unwrap();
        assert!(tr < tw, "VE⇒VH beats VH⇒VE (Table IV)");
    }

    #[test]
    fn engine_is_shared_and_serializes() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = Arc::clone(m.vh(0));
        let src = vh.alloc(64).unwrap();
        let dst = proc.alloc_mem(64).unwrap();
        let host = HostSlice { vh, vaddr: src };
        let c1 = Clock::new();
        let t1 = mgr.write_ve(&c1, &host, &proc, dst, 8).unwrap();
        let c2 = Clock::new();
        let t2 = mgr.write_ve(&c2, &host, &proc, dst, 8).unwrap();
        assert!(t2 > t1, "second op queues behind the first");
    }
}
