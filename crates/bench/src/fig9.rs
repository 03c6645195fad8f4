//! Fig. 9 — function offload cost, VH to local VE.
//!
//! Four series: native VEO call, HAM-Offload over the VEO backend,
//! HAM-Offload over the DMA backend, and the DMA backend offloading from
//! the second CPU socket (the "+up to 1 µs" note of §V-A).

use crate::harness::{
    benchmark_machine, mean_empty_offload_us, mean_native_veo_call_us, BenchConfig, Row,
};
use aurora_workloads::kernels::register_all;
use ham_backend_dma::DmaBackend;
use ham_backend_veo::{ProtocolConfig, VeoBackend};
use ham_offload::Offload;

/// Paper values (µs), derived in `calib`: VEO native 79.9, HAM/VEO 432,
/// HAM/DMA 6.1.
pub(crate) const PAPER_VEO_NATIVE_US: f64 = 79.9;
/// HAM over the VEO backend (5.4× the native call).
pub(crate) const PAPER_HAM_VEO_US: f64 = 432.0;
/// HAM over the DMA backend.
pub(crate) const PAPER_HAM_DMA_US: f64 = 6.1;

/// Run the Fig. 9 experiment.
pub fn run(cfg: &BenchConfig) -> Vec<Row> {
    let mut rows = Vec::new();

    // Native VEO call.
    let m = benchmark_machine(cfg);
    let veo_native = mean_native_veo_call_us(&m, cfg);
    rows.push(Row {
        label: "VEO (native call)".into(),
        x: 0,
        value: veo_native,
        unit: "us",
        paper: Some(PAPER_VEO_NATIVE_US),
    });

    // HAM-Offload over the VEO backend.
    let m = benchmark_machine(cfg);
    let o = Offload::new(VeoBackend::spawn(
        m,
        0,
        &[0],
        ProtocolConfig::default(),
        register_all,
    ));
    let ham_veo = mean_empty_offload_us(&o, cfg);
    o.shutdown();
    rows.push(Row {
        label: "HAM-Offload (VEO backend)".into(),
        x: 0,
        value: ham_veo,
        unit: "us",
        paper: Some(PAPER_HAM_VEO_US),
    });

    // HAM-Offload over the DMA backend, socket 0.
    let m = benchmark_machine(cfg);
    let o = Offload::new(DmaBackend::spawn(
        m,
        0,
        &[0],
        ProtocolConfig::default(),
        register_all,
    ));
    let ham_dma = mean_empty_offload_us(&o, cfg);
    o.shutdown();
    rows.push(Row {
        label: "HAM-Offload (DMA backend)".into(),
        x: 0,
        value: ham_dma,
        unit: "us",
        paper: Some(PAPER_HAM_DMA_US),
    });

    // DMA backend from the second socket (UPI hops).
    let m = benchmark_machine(cfg);
    let o = Offload::new(DmaBackend::spawn(
        m,
        1,
        &[0],
        ProtocolConfig::default(),
        register_all,
    ));
    let ham_dma_s2 = mean_empty_offload_us(&o, cfg);
    o.shutdown();
    rows.push(Row {
        label: "HAM-Offload (DMA backend, 2nd socket)".into(),
        x: 0,
        value: ham_dma_s2,
        unit: "us",
        paper: Some(PAPER_HAM_DMA_US + 1.0),
    });

    // Derived ratios.
    rows.push(Row {
        label: "ratio HAM/VEO : VEO native (paper 5.4x)".into(),
        x: 0,
        value: ham_veo / veo_native,
        unit: "x",
        paper: Some(5.4),
    });
    rows.push(Row {
        label: "ratio VEO native : HAM/DMA (paper 13.1x)".into(),
        x: 0,
        value: veo_native / ham_dma,
        unit: "x",
        paper: Some(13.1),
    });
    rows.push(Row {
        label: "ratio HAM/VEO : HAM/DMA (paper 70.8x)".into(),
        x: 0,
        value: ham_veo / ham_dma,
        unit: "x",
        paper: Some(70.8),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_reproduces_within_tolerance() {
        let rows = run(&BenchConfig::quick());
        for r in &rows {
            let paper = r.paper.expect("all fig9 rows have paper values");
            let rel = (r.value - paper).abs() / paper;
            // Shape tolerance: 10 % on every bar and ratio.
            assert!(
                rel < 0.10,
                "{}: measured {} vs paper {}",
                r.label,
                r.value,
                paper
            );
        }
    }
}
