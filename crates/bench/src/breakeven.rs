//! Offload break-even analysis (§V-B, closing paragraph).
//!
//! "Offloading only pays off as reduced time to solution, if the gain by
//! either faster program execution on the offload target, or by using
//! host and target in parallel, exceeds the offload overhead. […] Lower
//! overhead means that more code of an application becomes a feasible
//! target for offloading, and offloads can become more fine-grained."
//!
//! This module quantifies that: given the Table I peak rates and the
//! measured per-offload overheads, compute the minimum kernel size at
//! which each offload path wins over host execution.

use crate::harness::Row;
use aurora_sim_core::calib;
use aurora_sim_core::SimTime;
use aurora_ve::{CpuSpecs, VeSpecs};

/// Sustained fraction of peak a well-vectorised kernel achieves (same
/// assumption applied to both sides, so it cancels in the speedup).
pub(crate) const EFFICIENCY: f64 = 0.5;

/// The execution-rate model used for the analysis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExecModel {
    /// Host sustained GFLOPS.
    pub(crate) host_gflops: f64,
    /// VE sustained GFLOPS.
    pub(crate) ve_gflops: f64,
}

impl ExecModel {
    /// From Table I peaks at [`EFFICIENCY`].
    pub(crate) fn table1() -> Self {
        Self {
            host_gflops: CpuSpecs::xeon_gold_6126().peak_gflops * EFFICIENCY,
            ve_gflops: VeSpecs::type_10b().peak_gflops * EFFICIENCY,
        }
    }

    /// Host execution time of a kernel of `flops`.
    pub(crate) fn host_time(&self, flops: f64) -> SimTime {
        SimTime::from_secs_f64(flops / (self.host_gflops * 1e9))
    }

    /// Minimum kernel size (flops) where `overhead + T_ve < T_host`.
    ///
    /// Solves `overhead = flops/host_rate − flops/ve_rate`.
    pub(crate) fn breakeven_flops(&self, overhead: SimTime) -> f64 {
        let host_rate = self.host_gflops * 1e9;
        let ve_rate = self.ve_gflops * 1e9;
        assert!(ve_rate > host_rate, "no win possible");
        overhead.as_secs_f64() / (1.0 / host_rate - 1.0 / ve_rate)
    }

    /// The host-side duration of the break-even kernel — the offload
    /// *granularity* each protocol makes feasible.
    pub(crate) fn breakeven_host_time(&self, overhead: SimTime) -> SimTime {
        self.host_time(self.breakeven_flops(overhead))
    }
}

/// Offload paths compared, `(label, per-offload overhead)`.
pub(crate) fn overheads() -> Vec<(&'static str, SimTime)> {
    vec![
        ("HAM-Offload (DMA backend)", calib::DMA_OFFLOAD_TARGET),
        ("VEO (native call)", calib::VEO_CALL_ROUNDTRIP),
        (
            "HAM-Offload (VEO backend)",
            calib::VEO_WRITE_BASE * 2 + calib::VEO_READ_BASE * 2,
        ),
    ]
}

/// Run the analysis.
pub fn run() -> Vec<Row> {
    let model = ExecModel::table1();
    let mut rows = Vec::new();
    for (label, overhead) in overheads() {
        let flops = model.breakeven_flops(overhead);
        let granularity = model.breakeven_host_time(overhead);
        rows.push(Row {
            label: format!("{label}: break-even kernel"),
            x: flops as u64,
            value: granularity.as_us_f64(),
            unit: "us host-time",
            paper: None,
        });
    }
    // The headline: how much finer-grained the DMA protocol lets
    // offloads become.
    let dma = model.breakeven_host_time(calib::DMA_OFFLOAD_TARGET);
    let ham_veo = model.breakeven_host_time(calib::VEO_WRITE_BASE * 2 + calib::VEO_READ_BASE * 2);
    rows.push(Row {
        label: "granularity gain, DMA vs VEO backend".into(),
        x: 0,
        value: ham_veo.as_us_f64() / dma.as_us_f64(),
        unit: "x finer",
        paper: Some(70.8),
    });
    rows
}

/// *Measured* break-even: offload `compute_burn` kernels of increasing
/// size through the real DMA-backend protocol (kernels charge modeled VE
/// compute time via the meter) and find the smallest kernel whose
/// offloaded time beats the host execution model.
pub fn run_measured(cfg: &crate::harness::BenchConfig) -> Vec<Row> {
    use aurora_workloads::kernels::{compute_burn, register_all};
    use ham::f2f;
    use ham_backend_dma::DmaBackend;
    use ham_backend_veo::ProtocolConfig;
    use ham_offload::types::NodeId;
    use ham_offload::Offload;

    let o = Offload::new(DmaBackend::spawn(
        crate::harness::benchmark_machine(cfg),
        0,
        &[0],
        ProtocolConfig::default(),
        register_all,
    ));
    for _ in 0..cfg.warmup {
        o.sync(NodeId(1), f2f!(compute_burn, 0)).expect("warmup");
    }
    let model = ExecModel::table1();
    let mut rows = Vec::new();
    let mut crossover_flops = None;
    let mut flops = 1u64 << 20;
    while flops <= 1 << 26 {
        let t0 = o.backend().host_clock().now();
        o.sync(NodeId(1), f2f!(compute_burn, flops))
            .expect("offload");
        let offloaded = o.backend().host_clock().now() - t0;
        let host = model.host_time(flops as f64);
        if crossover_flops.is_none() && offloaded < host {
            crossover_flops = Some(flops);
        }
        rows.push(Row {
            label: format!(
                "{} Mflop kernel: offload {:.1} us vs host {:.1} us",
                flops >> 20,
                offloaded.as_us_f64(),
                host.as_us_f64()
            ),
            x: flops,
            value: offloaded.as_us_f64() / host.as_us_f64(),
            unit: "x of host",
            paper: None,
        });
        flops *= 2;
    }
    o.shutdown();
    let predicted = model.breakeven_flops(calib::DMA_OFFLOAD_TARGET);
    rows.push(Row {
        label: "measured crossover (flops, power-of-two grid)".into(),
        x: crossover_flops.unwrap_or(0),
        value: crossover_flops.unwrap_or(0) as f64 / predicted,
        unit: "x of analytic",
        paper: Some(1.0),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_crossover_brackets_the_analytic_one() {
        let rows = run_measured(&crate::harness::BenchConfig::quick());
        let crossover = rows.last().unwrap();
        assert!(crossover.x > 0, "a crossover must exist in the sweep");
        // Power-of-two grid: the first winning size is within 2x of the
        // analytic break-even point.
        assert!(
            crossover.value >= 0.9 && crossover.value <= 2.1,
            "measured/analytic = {}",
            crossover.value
        );
        // Below the crossover offloading loses, above it wins.
        let below: Vec<&Row> = rows.iter().filter(|r| r.x < crossover.x).collect();
        let above: Vec<&Row> = rows
            .iter()
            .filter(|r| r.x >= crossover.x && r.unit == "x of host")
            .collect();
        assert!(below.iter().all(|r| r.value > 1.0), "{below:?}");
        assert!(above.iter().all(|r| r.value < 1.0), "{above:?}");
    }

    #[test]
    fn ve_is_faster_at_peak() {
        let m = ExecModel::table1();
        assert!(m.ve_gflops > 2.0 * m.host_gflops);
    }

    #[test]
    fn breakeven_scales_linearly_with_overhead() {
        let m = ExecModel::table1();
        let a = m.breakeven_flops(SimTime::from_us(10));
        let b = m.breakeven_flops(SimTime::from_us(20));
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn at_breakeven_offload_equals_host() {
        let m = ExecModel::table1();
        let overhead = calib::DMA_OFFLOAD_TARGET;
        let flops = m.breakeven_flops(overhead);
        let host = m.host_time(flops);
        let offloaded = overhead + SimTime::from_secs_f64(flops / (m.ve_gflops * 1e9));
        let rel = (host.as_ns_f64() - offloaded.as_ns_f64()).abs() / host.as_ns_f64();
        assert!(rel < 1e-6, "host {host}, offloaded {offloaded}");
    }

    #[test]
    fn dma_grants_the_fig9_granularity_factor() {
        let rows = run();
        let gain = rows.last().unwrap();
        // Break-even granularity scales linearly in overhead, so the
        // gain equals the Fig. 9 cost ratio (70.8x).
        assert!(
            (gain.value - 70.8).abs() / 70.8 < 0.02,
            "gain {}",
            gain.value
        );
    }

    #[test]
    fn dma_breakeven_is_tens_of_microseconds() {
        let m = ExecModel::table1();
        let g = m.breakeven_host_time(calib::DMA_OFFLOAD_TARGET);
        // ~6 µs overhead with a ~2.15x speedup → breakeven ~11-12 µs of
        // host work; the VEO backend needs ~800 µs kernels.
        assert!(g.as_us_f64() > 8.0 && g.as_us_f64() < 16.0, "g = {g}");
        let veo = m.breakeven_host_time(calib::VEO_WRITE_BASE * 2 + calib::VEO_READ_BASE * 2);
        assert!(veo.as_us_f64() > 600.0, "veo backend breakeven = {veo}");
    }
}
