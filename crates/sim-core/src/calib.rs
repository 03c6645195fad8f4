//! Calibration constants for the simulated SX-Aurora TSUBASA A300-8.
//!
//! Every constant is derived from a number in the paper (section given in
//! the comment). Where the paper reports only a derived quantity (a ratio,
//! a crossover), the primitive constant is solved from it; the derivation
//! is spelled out so reviewers can re-check the arithmetic.
//!
//! Known tension in the paper's own numbers (documented in
//! `EXPERIMENTS.md`): §V-B states SHM beats VEO's host-initiated read up to
//! 32 KiB *and* SHM tops out at 0.06 GiB/s *and* (via Fig. 9) the
//! HAM-over-VEO offload costs 432 µs built from a handful of VEO
//! read/write operations. No smooth `latency + size/bandwidth` model for
//! VEO satisfies all three; we prioritise Fig. 9 and Table IV exactly,
//! which places our SHM-vs-VEO-read crossover near 8 KiB instead of
//! 32 KiB (inequality direction preserved).

use crate::model::{BurstModel, LinkModel, SegmentedModel};
use crate::time::SimTime;

// ---------------------------------------------------------------------------
// PCIe Gen3 x16 (§V, first paragraph)
// ---------------------------------------------------------------------------

/// Achievable ceiling given the VE's 256 B max payload and PCIe protocol
/// overhead: 91 % of the 14.7 GiB/s raw Gen3 x16 peak, i.e. 13.4 GiB/s
/// (§V, citing \[25\]).
pub const PCIE_EFFECTIVE_GIB_S: f64 = 13.4;

/// Extra one-way latency per UPI hop when the offloading process runs on
/// the second CPU socket. §V-A: "adds up to 1 µs to the DMA measurement";
/// the DMA round trip crosses the link six times (LHM poll = 2, DMA fetch
/// = 2, DMA result write = 1, SHM flag = 1), so ~170 ns per crossing.
pub const UPI_HOP: SimTime = SimTime::from_ns(170);

// ---------------------------------------------------------------------------
// VE user DMA (§IV-A, §V-B)
// ---------------------------------------------------------------------------

/// Setup cost of one user-DMA request issued by VE code.
///
/// Solved from §V-B: the SHM store of a single 64-bit word is "89 %
/// faster" than user DMA and at 256 byte still "16 %" faster; with the SHM
/// model below (160 ns for one word, 1.214 µs for 32 words) both pin the
/// small-transfer user-DMA cost at ≈ 1.45 µs. The same value makes LHM
/// (720 ns/word) "only faster for one or two words" (§V-B).
pub const UDMA_SETUP: SimTime = SimTime::from_ns(1450);

/// Sustained user-DMA bandwidth VH ⇒ VE (Table IV): 10.6 GiB/s.
pub const UDMA_VH2VE_GIB_S: f64 = 10.6;

/// Sustained user-DMA bandwidth VE ⇒ VH (Table IV): 11.1 GiB/s.
///
/// VE⇒VH are posted PCIe writes, VH⇒VE are non-posted reads — hence the
/// ≤ 5 % direction asymmetry the paper observes (§V-B).
pub const UDMA_VE2VH_GIB_S: f64 = 11.1;

/// User-DMA transfer model, VH ⇒ VE (a DMA *read* of host memory).
pub fn udma_vh2ve() -> LinkModel {
    LinkModel::new(UDMA_SETUP, UDMA_VH2VE_GIB_S)
}

/// User-DMA transfer model, VE ⇒ VH (a DMA *write* to host memory).
pub fn udma_ve2vh() -> LinkModel {
    LinkModel::new(UDMA_SETUP, UDMA_VE2VH_GIB_S)
}

// ---------------------------------------------------------------------------
// LHM / SHM instructions (§IV-A, §V-B)
// ---------------------------------------------------------------------------

/// Cost of one LHM (Load Host Memory) 64-bit word: a synchronous,
/// non-pipelined PCIe read round trip. 720 ns/word yields the 0.01 GiB/s
/// of Table IV and keeps LHM ahead of user DMA only for 1–2 words (§V-B):
/// 2 × 720 ns = 1.44 µs ≤ 1.45 µs, 3 × 720 ns = 2.16 µs > 1.45 µs.
pub const LHM_WORD: SimTime = SimTime::from_ns(720);

/// SHM (Store Host Memory) instruction-stream model. Posted writes
/// pipeline through the PCIe credit window; once credits are exhausted the
/// stream throttles to a steady-state rate.
///
/// Solved from §V-B + Table IV:
/// * 1 word 89 % faster than user DMA (1.45 µs) → T(1) ≈ 160 ns,
/// * 32 words (256 B) 16 % faster → T(32) ≈ 1.214 µs,
///   ⇒ setup = 126 ns, fast word = 34 ns,
/// * steady state 0.06 GiB/s → 124 ns/word,
/// * window = 32 words = 256 B = one max-payload TLP of write-combining.
pub fn shm_stream() -> BurstModel {
    BurstModel {
        setup: SimTime::from_ns(126),
        window_words: 32,
        word_fast: SimTime::from_ps(34_000),
        word_steady: SimTime::from_ps(124_000),
    }
}

/// Idle time after which the SHM posted-write credit window is fully
/// replenished. In a back-to-back bandwidth loop credits never recover,
/// so sustained SHM streams run at the steady rate (Table IV's
/// 0.06 GiB/s), while a single small message after idle — the protocol's
/// result-notification pattern — gets the fast window (§V-B's 89 %/16 %
/// wins over user DMA).
pub const SHM_CREDIT_REPLENISH: SimTime = SimTime::from_ns(2_000);

// ---------------------------------------------------------------------------
// VEO data transfers (§III-D, §V-B)
// ---------------------------------------------------------------------------

/// Base latency of one `veo_write_mem` (VH ⇒ VE), small transfer.
///
/// Solved jointly with [`VEO_READ_BASE`] from Fig. 9: the HAM-over-VEO
/// offload (two writes: message + flag; two reads: result flag poll +
/// result message) costs 70.8 × 6.1 µs ≈ 432 µs, and one VEO operation is
/// on the order of the 79.9 µs native VEO call: 85 + 85 + 131 + 131 =
/// 432 µs. The cost reflects the three-component VH software path
/// (pseudo-process → VEOS → kernel modules) plus on-the-fly V2P
/// translation (§III-D).
pub const VEO_WRITE_BASE: SimTime = SimTime::from_us(85);

/// Base latency of one `veo_read_mem` (VE ⇒ VH), small transfer.
/// See [`VEO_WRITE_BASE`]. Reads are non-posted and dearer.
pub const VEO_READ_BASE: SimTime = SimTime::from_us(131);

/// Sustained VEO write bandwidth VH ⇒ VE with huge pages + improved DMA
/// manager (Table IV): 9.9 GiB/s.
pub(crate) const VEO_WRITE_GIB_S: f64 = 9.9;

/// Sustained VEO read bandwidth VE ⇒ VH (Table IV): 10.4 GiB/s.
pub(crate) const VEO_READ_GIB_S: f64 = 10.4;

/// Per-page translation overhead of the *improved* (1.3.2-4dma) DMA
/// manager: bulk translations overlapped with descriptor generation and
/// the DMA itself (§III-D), so the residual per-2-MiB-page cost is small.
pub const VEOS_PAGE_COST_IMPROVED: SimTime = SimTime::from_ns(400);

/// Per-page translation overhead of the *classic* DMA manager: each page
/// translated on the fly, synchronously, inside VEOS (§III-D). Dominates
/// large transfers when not overlapped.
pub const VEOS_PAGE_COST_CLASSIC: SimTime = SimTime::from_ns(2_500);

/// Huge-page size used on the VH side for peak bandwidth (§V-B: "at least
/// 2 MiB").
pub const HUGE_PAGE_BYTES: u64 = 2 * 1024 * 1024;

/// Default small-page size.
pub const SMALL_PAGE_BYTES: u64 = 4 * 1024;

/// VEO transfer model for a given direction / page size / DMA manager
/// generation. The `improved + huge pages` configuration reproduces the
/// Fig. 10 VEO series; the others are the ablation the paper motivates
/// (§III-D: ≥ 11 GB/s only "with the improved DMA manager … when huge
/// pages are employed").
pub fn veo_transfer(write: bool, page_bytes: u64, improved: bool) -> SegmentedModel {
    let per_page = if improved {
        VEOS_PAGE_COST_IMPROVED
    } else {
        VEOS_PAGE_COST_CLASSIC
    };
    SegmentedModel {
        setup: if write { VEO_WRITE_BASE } else { VEO_READ_BASE },
        segment_bytes: page_bytes,
        per_segment: per_page,
        gib_per_sec: if write {
            VEO_WRITE_GIB_S
        } else {
            VEO_READ_GIB_S
        },
    }
}

// ---------------------------------------------------------------------------
// VEO native function offload (Fig. 9)
// ---------------------------------------------------------------------------

/// Cost of one native VEO function call round trip (`veo_call_async` +
/// `veo_call_wait_result` of an empty kernel). Fig. 9: the DMA protocol is
/// "13.1× faster than a native VEO offload" at 6.1 µs ⇒ 79.9 µs.
pub const VEO_CALL_ROUNDTRIP: SimTime = SimTime::from_ns(79_910);

// ---------------------------------------------------------------------------
// HAM framework costs (Fig. 9, §V-A)
// ---------------------------------------------------------------------------

/// Target end-to-end cost of an empty offload over the DMA backend
/// (Fig. 9): 6.1 µs — "only 5 µs of framework overhead on top of the
/// 1.2 µs PCIe round-trip time".
pub const DMA_OFFLOAD_TARGET: SimTime = SimTime::from_ns(6_100);

/// Host-side per-message framework cost: functor serialisation, buffer
/// bookkeeping, future creation.
pub const HAM_HOST_OVERHEAD: SimTime = SimTime::from_ns(700);

/// Target-side per-message framework cost: handler-key lookup, functor
/// deserialisation and invocation, result serialisation.
pub const HAM_TARGET_OVERHEAD: SimTime = SimTime::from_ns(900);

/// Host-side cost of writing a message + flag into local (shared) memory
/// and, later, of polling/consuming the result from local memory.
pub const HAM_LOCAL_MEM_TOUCH: SimTime = SimTime::from_ns(150);

// ---------------------------------------------------------------------------
// Compute rates (Table I)
// ---------------------------------------------------------------------------

/// Sustained fraction of peak a well-vectorised kernel achieves; applied
/// to both sides so the VE/VH speedup matches the Table I peak ratio.
pub(crate) const SUSTAINED_EFFICIENCY: f64 = 0.5;

/// VE sustained compute rate: Table I peak (2150.4 GFLOPS) x efficiency.
pub(crate) const VE_SUSTAINED_GFLOPS: f64 = 2150.4 * SUSTAINED_EFFICIENCY;

/// Virtual compute time of `flops` on the VE.
pub fn ve_compute_time(flops: u64) -> SimTime {
    SimTime::from_secs_f64(flops as f64 / (VE_SUSTAINED_GFLOPS * 1e9))
}

// ---------------------------------------------------------------------------
// Benchmark methodology (§V)
// ---------------------------------------------------------------------------

/// Offload-cost repetitions used by the paper: 10⁶ (§V). The simulator is
/// deterministic, so the repro binaries default to fewer but accept the
/// paper's count.
pub const PAPER_OFFLOAD_REPS: u64 = 1_000_000;

/// Data-transfer repetitions per size used by the paper: 10³ (§V).
pub const PAPER_TRANSFER_REPS: u64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::gib_per_sec;

    const US: f64 = 1.0; // readability for literals below

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs()
    }

    #[test]
    fn fig9_component_sum_matches_432us() {
        // HAM over VEO: write msg + write flag + read flag + read result.
        let total = VEO_WRITE_BASE + VEO_WRITE_BASE + VEO_READ_BASE + VEO_READ_BASE;
        assert!(
            close(total.as_us_f64(), 432.0 * US, 0.01),
            "HAM/VEO = {total}"
        );
        // Ratios of Fig. 9.
        let veo = VEO_CALL_ROUNDTRIP.as_us_f64();
        assert!(close(total.as_us_f64() / veo, 5.4, 0.02));
        assert!(close(veo / 6.1, 13.1, 0.02));
        assert!(close(total.as_us_f64() / 6.1, 70.8, 0.02));
    }

    #[test]
    fn shm_claims() {
        let shm = shm_stream();
        let udma_small = UDMA_SETUP.as_ns_f64(); // wire time of 8..256 B is negligible
        let one = shm.transfer_time(1).as_ns_f64();
        let w32 = shm.transfer_time(32).as_ns_f64();
        // §V-B: "89 % faster transfer times for a single word"
        assert!(close(1.0 - one / udma_small, 0.89, 0.02), "one = {one}");
        // "... down to 16 % for 256 Byte"
        assert!(close(1.0 - w32 / udma_small, 0.16, 0.05), "w32 = {w32}");
        // Beyond 256 B user DMA wins (crossover at max payload).
        let w64 = shm.transfer_time(64).as_ns_f64();
        assert!(w64 > udma_small);
        // Table IV: SHM max 0.06 GiB/s (large transfers).
        let big_words = (4u64 << 20) / 8;
        let bw = gib_per_sec(4 << 20, shm.transfer_time(big_words));
        assert!(close(bw, 0.06, 0.08), "shm bw = {bw}");
    }

    #[test]
    fn lhm_claims() {
        // Table IV: LHM 0.01 GiB/s.
        let bw = gib_per_sec(4 << 20, LHM_WORD * ((4u64 << 20) / 8));
        assert!(close(bw, 0.01, 0.08), "lhm bw = {bw}");
        // §V-B: faster than user DMA only for one or two words.
        assert!((LHM_WORD * 2).as_ns_f64() <= UDMA_SETUP.as_ns_f64());
        assert!((LHM_WORD * 3).as_ns_f64() > UDMA_SETUP.as_ns_f64());
    }

    #[test]
    fn table4_veo_and_udma_peaks() {
        let big = 256u64 << 20;
        let w = veo_transfer(true, HUGE_PAGE_BYTES, true);
        let r = veo_transfer(false, HUGE_PAGE_BYTES, true);
        let bw_w = gib_per_sec(big, w.transfer_time(big));
        let bw_r = gib_per_sec(big, r.transfer_time(big));
        assert!(close(bw_w, 9.9, 0.02), "veo write peak = {bw_w}");
        assert!(close(bw_r, 10.4, 0.02), "veo read peak = {bw_r}");
        let bw_u_w = gib_per_sec(big, udma_vh2ve().transfer_time(big));
        let bw_u_r = gib_per_sec(big, udma_ve2vh().transfer_time(big));
        assert!(close(bw_u_w, 10.6, 0.02));
        assert!(close(bw_u_r, 11.1, 0.02));
        // §V-B: "at least 7 %" difference for large transfers,
        assert!(bw_u_w / bw_w >= 1.05);
        assert!(bw_u_r / bw_r >= 1.05);
        // and ≤ 5 % asymmetry between directions per method.
        assert!(bw_r / bw_w <= 1.055);
        assert!(bw_u_r / bw_u_w <= 1.05);
    }

    #[test]
    fn saturation_points() {
        // §V-B: user DMA close to peak already at 1 MiB; VEO needs tens of
        // MiB.
        let udma = udma_vh2ve();
        let at_1mib = gib_per_sec(1 << 20, udma.transfer_time(1 << 20));
        assert!(at_1mib / UDMA_VH2VE_GIB_S > 0.95, "udma@1MiB = {at_1mib}");
        let veo = veo_transfer(true, HUGE_PAGE_BYTES, true);
        let veo_1mib = gib_per_sec(1 << 20, veo.transfer_time(1 << 20));
        assert!(veo_1mib / VEO_WRITE_GIB_S < 0.7, "veo@1MiB = {veo_1mib}");
        let veo_64mib = gib_per_sec(64 << 20, veo.transfer_time(64 << 20));
        assert!(
            veo_64mib / VEO_WRITE_GIB_S > 0.95,
            "veo@64MiB = {veo_64mib}"
        );
    }

    #[test]
    fn classic_dma_manager_is_translation_bound() {
        let classic = veo_transfer(true, SMALL_PAGE_BYTES, false);
        let bw = gib_per_sec(256 << 20, classic.transfer_time(256 << 20));
        // 4 KiB / 2.5 µs ≈ 1.5 GiB/s: an order of magnitude below peak —
        // the motivation for the 1.3.2-4dma manager (§III-D).
        assert!(bw < 2.0, "classic bw = {bw}");
    }

    #[test]
    fn small_message_ratios_are_large() {
        // §V-B reports 24× (VH⇒VE) / 35× (VE⇒VH) advantages of user DMA
        // over VEO for small messages; our Fig.-9-exact calibration makes
        // these ~59×/~90×. Assert the inequality direction and order of
        // magnitude (see EXPERIMENTS.md).
        let ratio_w = VEO_WRITE_BASE.as_ns_f64() / UDMA_SETUP.as_ns_f64();
        let ratio_r = VEO_READ_BASE.as_ns_f64() / UDMA_SETUP.as_ns_f64();
        assert!(ratio_w > 20.0 && ratio_w < 120.0);
        assert!(ratio_r > ratio_w && ratio_r < 150.0);
    }
}
