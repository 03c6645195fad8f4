//! Per-component breakdown of the 6.1 µs DMA offload (§V-A's "6.1 µs
//! adds only 5 µs of framework overhead to the 1.2 µs PCIe round-trip
//! time"), computed from the calibrated component costs and checked
//! against the end-to-end measurement.

use crate::harness::Row;
use aurora_sim_core::{calib, SimTime};

/// The critical-path components of one empty offload over the DMA
/// protocol (Fig. 8), in order.
pub(crate) fn dma_offload_components() -> Vec<(&'static str, SimTime)> {
    let shm_flag = calib::shm_stream().transfer_time(1);
    // Empty offload message: 32 B header + ~30 B functor payload fits
    // the first 256 B DMA fetch; result frame is a single small DMA.
    let dma_fetch = calib::udma_vh2ve().transfer_time(256);
    let dma_result = calib::udma_ve2vh().transfer_time(64);
    vec![
        (
            "VH: serialise functor, bookkeeping",
            calib::HAM_HOST_OVERHEAD,
        ),
        ("VH: local message write + flag", calib::HAM_LOCAL_MEM_TOUCH),
        ("VE: LHM poll of request flag", calib::LHM_WORD),
        ("VE: user-DMA fetch of message", dma_fetch),
        ("VE: SHM reset of request flag", shm_flag),
        (
            "VE: dispatch, execute, serialise",
            calib::HAM_TARGET_OVERHEAD,
        ),
        ("VE: user-DMA deposit of result", dma_result),
        ("VE: SHM result flag", shm_flag),
        (
            "VH: local poll + result read",
            calib::HAM_LOCAL_MEM_TOUCH * 2,
        ),
    ]
}

/// Render the breakdown as rows, ending with the sum and the Fig. 9
/// target.
pub fn run() -> Vec<Row> {
    let comps = dma_offload_components();
    let mut rows: Vec<Row> = comps
        .iter()
        .map(|(label, t)| Row {
            label: (*label).to_string(),
            x: 0,
            value: t.as_us_f64(),
            unit: "us",
            paper: None,
        })
        .collect();
    let total: SimTime = comps.iter().map(|(_, t)| *t).sum();
    rows.push(Row {
        label: "sum of components".into(),
        x: 0,
        value: total.as_us_f64(),
        unit: "us",
        paper: Some(6.1),
    });
    let pcie = comps
        .iter()
        .filter(|(l, _)| l.contains("LHM") || l.contains("DMA") || l.contains("SHM"))
        .map(|(_, t)| *t)
        .sum::<SimTime>();
    rows.push(Row {
        label: "of which transport (vs 1.2 us PCIe RTT floor)".into(),
        x: 0,
        value: pcie.as_us_f64(),
        unit: "us",
        paper: None,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_the_fig9_value() {
        let total: SimTime = dma_offload_components().iter().map(|(_, t)| *t).sum();
        let us = total.as_us_f64();
        assert!((us - 6.1).abs() / 6.1 < 0.03, "component sum = {us} us");
    }

    #[test]
    fn framework_share_matches_the_5us_statement() {
        // §V-A: ~5 µs of framework overhead on top of the PCIe floor.
        let total: SimTime = dma_offload_components().iter().map(|(_, t)| *t).sum();
        let beyond_pcie = total - SimTime::from_ns(1200);
        let us = beyond_pcie.as_us_f64();
        assert!((4.0..6.0).contains(&us), "framework share = {us} us");
    }
}
