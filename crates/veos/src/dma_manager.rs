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
use aurora_mem::{MemError, PageSize, Region, VeAddr, VhAddr};
use aurora_pcie::Direction;
use aurora_sim_core::{calib, Clock, SimTime, Timeline};

/// The VH end of a transfer; the variant names the direction.
///
/// A VH buffer is priced by the pages `[addr, addr + len)` touches. The
/// caller's own bytes are priced as a page-aligned VH buffer of their
/// length, which is what every buffer [`VhMemory::alloc`] hands out is.
#[derive(Debug)]
pub enum HostBuf<'a> {
    /// VH buffer → VE: `len` bytes at a VH virtual address.
    VhToVe(VhAddr, u64),
    /// VE → VH buffer: `len` bytes to a VH virtual address.
    VeToVh(VhAddr, u64),
    /// The caller's bytes → VE, copied once.
    SliceToVe(&'a [u8]),
    /// VE → the caller's slice, copied once.
    VeToSlice(&'a mut [u8]),
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

    /// Two-phase variant: reserve engine + wire for a write of `len`
    /// bytes from a page-aligned buffer in `vh_page` pages and return the
    /// completion time **without moving data**.
    ///
    /// The paper's protocols need a notification flag whose *value*
    /// encodes the virtual time at which it lands in VE memory; a caller
    /// uses `quote_write` to learn that time, embeds it, and performs the
    /// raw copy itself (payload first, flag last with Release ordering).
    pub fn quote_write(
        &self,
        clock: &Clock,
        vh_page: PageSize,
        proc: &VeProcess,
        len: u64,
    ) -> SimTime {
        self.quote(clock, vh_page, 0, proc, len, true)
    }

    /// The one pricing routine: per-operation setup plus the translation
    /// of the VH pages `[vh_start, vh_start + len)` touches on the engine,
    /// then the wire. Advances `clock` to completion and returns it.
    fn quote(
        &self,
        clock: &Clock,
        vh_page: PageSize,
        vh_start: u64,
        proc: &VeProcess,
        len: u64,
        write: bool,
    ) -> SimTime {
        let model = calib::veo_transfer(write, vh_page.bytes(), self.improved);
        let pages = vh_page.pages_touched(vh_start, len);
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
        clock.join(wire.end)
    }

    /// `veo_write_mem`/`veo_read_mem`: move the bytes between `host` and
    /// `proc`'s memory at `ve_addr`, then price the transfer. `vh` is the
    /// calling process's VH memory: it holds a VH buffer and sets the
    /// page size every transfer is priced in. Advances `clock` (the
    /// calling VH process) to completion and returns that time. Both
    /// ranges are checked before a byte moves, so a rejected read leaves
    /// the caller's slice untouched.
    pub fn transfer(
        &self,
        clock: &Clock,
        vh: &VhMemory,
        host: HostBuf<'_>,
        proc: &VeProcess,
        ve_addr: VeAddr,
    ) -> Result<SimTime, MemError> {
        let (len, write) = match &host {
            HostBuf::VhToVe(_, len) => (*len, true),
            HostBuf::VeToVh(_, len) => (*len, false),
            HostBuf::SliceToVe(src) => (src.len() as u64, true),
            HostBuf::VeToSlice(dst) => (dst.len() as u64, false),
        };
        // --- real data movement -------------------------------------
        let ve_off = proc.translate(ve_addr, len)?;
        let hbm = proc.hbm();
        let vh_start = match host {
            HostBuf::VhToVe(src, _) => {
                Region::copy_between(vh.region(), vh.translate(src)?, hbm, ve_off, len)?;
                src.get()
            }
            HostBuf::VeToVh(dst, _) => {
                Region::copy_between(hbm, ve_off, vh.region(), vh.translate(dst)?, len)?;
                dst.get()
            }
            HostBuf::SliceToVe(src) => {
                hbm.write(ve_off, src)?;
                0
            }
            HostBuf::VeToSlice(dst) => {
                hbm.read(ve_off, dst)?;
                0
            }
        };

        // --- virtual cost (the SegmentedModel of `calib`) ------------
        Ok(self.quote(clock, vh.page_size(), vh_start, proc, len, write))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AuroraMachine, MachineConfig};
    use aurora_sim_core::time::gib_per_sec;
    use std::sync::Arc;

    fn setup(cfg: MachineConfig) -> (Arc<AuroraMachine>, Arc<VeProcess>, DmaManager) {
        let m = AuroraMachine::small(1, cfg);
        let proc = crate::daemon::Veos::new(Arc::clone(m.ve(0)), cfg.improved_dma).create_process();
        let mgr = DmaManager::new(cfg.improved_dma);
        (m, proc, mgr)
    }

    #[test]
    fn write_moves_data_to_ve() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = m.vh(0);
        let src = vh.alloc(64).unwrap();
        vh.write(src, b"payload for ve").unwrap();
        let dst = proc.alloc_mem(64).unwrap();
        let clock = Clock::new();
        mgr.transfer(&clock, vh, HostBuf::VhToVe(src, 14), &proc, dst)
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
        let vh = m.vh(0);
        let dst = vh.alloc(64).unwrap();
        let src = proc.alloc_mem(64).unwrap();
        proc.write(src, b"result from ve").unwrap();
        let clock = Clock::new();
        let t = mgr
            .transfer(&clock, vh, HostBuf::VeToVh(dst, 14), &proc, src)
            .unwrap();
        let mut out = [0u8; 14];
        vh.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"result from ve");
        assert!(t >= calib::VEO_READ_BASE);
    }

    /// A rejected transfer moves no byte and charges no time.
    #[test]
    fn an_unmapped_or_out_of_range_ve_address_moves_nothing() {
        let (m, proc, mgr) = setup(MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 16 << 20,
            ..Default::default()
        });
        // Maps the one 64 MiB VE page, which holds the end of HBM.
        proc.alloc_mem(64).unwrap();
        let clock = Clock::new();
        let mut dst = [7u8; 16];
        let past_hbm_end = VeAddr(crate::process::VEMVA_BASE + proc.hbm().len() - 8);
        for ve in [VeAddr(0x1234), past_hbm_end] {
            let read = HostBuf::VeToSlice(&mut dst);
            assert!(mgr.transfer(&clock, m.vh(0), read, &proc, ve).is_err());
        }
        assert_eq!(dst, [7; 16]);
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    /// The caller's bytes are priced as a page-aligned VH buffer of the
    /// same length: every length, page size, manager and direction
    /// completes at the same virtual time as a [`VhMemory::alloc`]
    /// buffer on a fresh machine.
    #[test]
    fn a_slice_costs_what_a_page_aligned_vh_buffer_costs() {
        const MIB: u64 = 1 << 20;
        for len in [1, 4096, 4097, 2 * MIB, 2 * MIB + 1, 16 * MIB] {
            for vh_page in [PageSize::Small4K, PageSize::Huge2M] {
                for improved_dma in [true, false] {
                    let cfg = MachineConfig {
                        vh_page,
                        improved_dma,
                        hbm_bytes: 32 * MIB,
                        vh_bytes: 32 * MIB,
                    };
                    for write in [true, false] {
                        let time = |slice: bool| {
                            let (m, proc, mgr) = setup(cfg);
                            let vh = m.vh(0);
                            let ve = proc.alloc_mem(len).unwrap();
                            let at = vh.alloc(len).unwrap();
                            let mut bytes = vec![0u8; len as usize];
                            let host = match (slice, write) {
                                (true, true) => HostBuf::SliceToVe(&bytes),
                                (true, false) => HostBuf::VeToSlice(&mut bytes),
                                (false, true) => HostBuf::VhToVe(at, len),
                                (false, false) => HostBuf::VeToVh(at, len),
                            };
                            mgr.transfer(&Clock::new(), vh, host, &proc, ve).unwrap()
                        };
                        assert_eq!(
                            time(true),
                            time(false),
                            "{len} bytes, {vh_page:?}, improved {improved_dma}, write {write}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn improved_hugepages_hits_table4_peak() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = m.vh(0);
        let len = 64u64 << 20;
        let src = vh.alloc(len).unwrap();
        let dst = proc.alloc_mem(len).unwrap();
        let clock = Clock::new();
        let t = mgr
            .transfer(&clock, vh, HostBuf::VhToVe(src, len), &proc, dst)
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
        let vh = m.vh(0);
        let len = 16u64 << 20;
        let src = vh.alloc(len).unwrap();
        let dst = proc.alloc_mem(len).unwrap();
        let clock = Clock::new();
        let t = mgr
            .transfer(&clock, vh, HostBuf::VhToVe(src, len), &proc, dst)
            .unwrap();
        let bw = gib_per_sec(len, t);
        assert!(bw < 2.0, "classic/4K bw = {bw} (motivates 1.3.2-4dma)");
    }

    #[test]
    fn read_direction_is_faster_at_peak() {
        let len = 64u64 << 20;
        // A fresh machine and manager per direction, so occupancy does
        // not carry over.
        let time = |write: bool| {
            let (m, proc, mgr) = setup(MachineConfig::default());
            let vh = m.vh(0);
            let a = vh.alloc(len).unwrap();
            let d = proc.alloc_mem(len).unwrap();
            let host = if write {
                HostBuf::VhToVe(a, len)
            } else {
                HostBuf::VeToVh(a, len)
            };
            mgr.transfer(&Clock::new(), vh, host, &proc, d).unwrap()
        };
        assert!(time(false) < time(true), "VE⇒VH beats VH⇒VE (Table IV)");
    }

    #[test]
    fn engine_is_shared_and_serializes() {
        let (m, proc, mgr) = setup(MachineConfig::default());
        let vh = m.vh(0);
        let src = vh.alloc(64).unwrap();
        let dst = proc.alloc_mem(64).unwrap();
        let t1 = mgr
            .transfer(&Clock::new(), vh, HostBuf::VhToVe(src, 8), &proc, dst)
            .unwrap();
        let t2 = mgr
            .transfer(&Clock::new(), vh, HostBuf::VhToVe(src, 8), &proc, dst)
            .unwrap();
        assert!(t2 > t1, "second op queues behind the first");
    }
}
