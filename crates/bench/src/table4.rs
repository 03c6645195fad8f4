//! Table IV — maximum PCIe bandwidths per transfer method and direction.

use crate::harness::{
    benchmark_machine, size_grid, transfer_bandwidth, BenchConfig, Dir, Method, Row, SHM_LHM_MAX,
};

/// The paper's Table IV, as `(method, VH⇒VE, VE⇒VH)` in GiB/s.
pub(crate) const PAPER: [(&str, f64, f64); 3] = [
    ("VEO Read/Write", 9.9, 10.4),
    ("VE User DMA", 10.6, 11.1),
    ("VE SHM/LHM", 0.01, 0.06),
];

/// Run the Table IV experiment: max bandwidth over the size sweep.
pub fn run(cfg: &BenchConfig) -> Vec<Row> {
    let machine = benchmark_machine(cfg);
    let mut rows = Vec::new();
    for (method, paper_w, paper_r) in [
        (Method::VeoReadWrite, PAPER[0].1, PAPER[0].2),
        (Method::VeUserDma, PAPER[1].1, PAPER[1].2),
        (Method::VeShmLhm, PAPER[2].1, PAPER[2].2),
    ] {
        for (dir, paper) in [(Dir::Vh2Ve, paper_w), (Dir::Ve2Vh, paper_r)] {
            let max = if method == Method::VeShmLhm {
                SHM_LHM_MAX.min(cfg.max_transfer)
            } else {
                cfg.max_transfer
            };
            let best = size_grid(max)
                .into_iter()
                .map(|b| transfer_bandwidth(&machine, method, dir, b, cfg))
                .fold(f64::NAN, f64::max);
            rows.push(Row {
                label: format!("{} {}", dir.label(), method.label()),
                x: 0,
                value: best,
                unit: "GiB/s",
                paper: Some(paper),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_within_tolerance() {
        let rows = run(&BenchConfig::quick());
        for r in &rows {
            let paper = r.paper.expect("table IV cells have paper values");
            let rel = (r.value - paper).abs() / paper;
            assert!(rel < 0.10, "{}: {} vs paper {}", r.label, r.value, paper);
        }
    }
}
