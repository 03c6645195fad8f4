//! Shared measurement machinery.

use aurora_mem::{DmaTarget, DmaWindow, Dmaatb, PageSize};
use aurora_sim_core::{Clock, SimTime};
use aurora_ve::{LhmShmUnit, UserDma};
use ham_offload::types::NodeId;
use ham_offload::Offload;
use std::sync::Arc;
use veo_api::VeoProc;
use veos_sim::{AuroraMachine, MachineConfig};

/// Repetition counts and memory sizing for a harness run.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Offload-cost repetitions (paper: 10⁶; deterministic sim needs far
    /// fewer for a stable mean).
    pub(crate) offload_reps: u32,
    /// Data-transfer repetitions per size (paper: 10³).
    pub(crate) transfer_reps: u32,
    /// Warm-up iterations (paper: 10).
    pub(crate) warmup: u32,
    /// Largest transfer size exercised (paper: 256 MiB).
    pub(crate) max_transfer: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            offload_reps: 200,
            transfer_reps: 3,
            warmup: 10,
            max_transfer: 256 << 20,
        }
    }
}

impl BenchConfig {
    /// A fast configuration for CI/tests.
    pub fn quick() -> Self {
        Self {
            offload_reps: 50,
            transfer_reps: 1,
            warmup: 5,
            max_transfer: 16 << 20,
        }
    }
}

/// Parse the repro binaries' common flags:
/// `--quick`, `--reps N`, `--max-mib M`, `--paper-reps` (the full 10⁶/10³
/// repetition counts of §V).
pub fn parse_config(args: impl Iterator<Item = String>) -> BenchConfig {
    let args: Vec<String> = args.collect();
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    if args.iter().any(|a| a == "--paper-reps") {
        cfg.offload_reps = aurora_sim_core::calib::PAPER_OFFLOAD_REPS as u32;
        cfg.transfer_reps = aurora_sim_core::calib::PAPER_TRANSFER_REPS as u32;
    }
    if let Some(w) = args.windows(2).find(|w| w[0] == "--reps") {
        if let Ok(n) = w[1].parse() {
            cfg.offload_reps = n;
        }
    }
    if let Some(w) = args.windows(2).find(|w| w[0] == "--max-mib") {
        if let Ok(n) = w[1].parse::<u64>() {
            cfg.max_transfer = n << 20;
        }
    }
    cfg
}

/// One output row of a repro harness.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (series / method name).
    pub label: String,
    /// Independent variable (bytes, or unused).
    pub x: u64,
    /// Measured value.
    pub value: f64,
    /// The unit of `value`.
    pub unit: &'static str,
    /// The paper's value, when it reports one for this cell.
    pub paper: Option<f64>,
}

impl Row {
    /// Render as a CSV line.
    pub fn csv(&self) -> String {
        match self.paper {
            Some(p) => format!(
                "{},{},{:.4},{},{}",
                self.label, self.x, self.value, self.unit, p
            ),
            None => format!("{},{},{:.4},{},", self.label, self.x, self.value, self.unit),
        }
    }
}

/// Render rows as an aligned text table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<42} {:>14} {:>14} {:>10} {:>12}\n",
        "series", "x", "measured", "unit", "paper"
    ));
    for r in rows {
        let paper = r
            .paper
            .map(|p| format!("{p:.3}"))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<42} {:>14} {:>14.4} {:>10} {:>12}\n",
            r.label, r.x, r.value, r.unit, paper
        ));
    }
    out
}

/// The paper's benchmark machine (Table III) with memory scaled to the
/// configured maximum transfer size.
pub fn benchmark_machine(cfg: &BenchConfig) -> Arc<AuroraMachine> {
    AuroraMachine::a300_8(MachineConfig {
        hbm_bytes: cfg.max_transfer + (16 << 20),
        vh_bytes: 2 * cfg.max_transfer + (32 << 20),
        ..Default::default()
    })
}

/// A machine with explicit page-size / DMA-manager configuration
/// (ablations).
pub(crate) fn machine_with(
    cfg: &BenchConfig,
    vh_page: PageSize,
    improved_dma: bool,
) -> Arc<AuroraMachine> {
    AuroraMachine::a300_8(MachineConfig {
        hbm_bytes: cfg.max_transfer + (16 << 20),
        vh_bytes: 2 * cfg.max_transfer + (32 << 20),
        vh_page,
        improved_dma,
    })
}

/// Mean cost (µs) of offloading an empty kernel through `offload`,
/// using the paper's warm-up + average methodology.
pub fn mean_empty_offload_us(offload: &Offload, cfg: &BenchConfig) -> f64 {
    use aurora_workloads::kernels::whoami;
    use ham::f2f;
    for _ in 0..cfg.warmup {
        offload
            .sync(NodeId(1), f2f!(whoami))
            .expect("warmup offload");
    }
    let t0 = offload.backend().host_clock().now();
    for _ in 0..cfg.offload_reps {
        offload.sync(NodeId(1), f2f!(whoami)).expect("offload");
    }
    let elapsed = offload.backend().host_clock().now() - t0;
    elapsed.as_us_f64() / cfg.offload_reps as f64
}

/// Mean cost (µs) of a native VEO call of an empty kernel.
pub fn mean_native_veo_call_us(machine: &Arc<AuroraMachine>, cfg: &BenchConfig) -> f64 {
    let proc = VeoProc::create(Arc::clone(machine), 0, 0, Clock::new());
    proc.load_library(veo_api::KernelLibrary::new().with("empty", |_, _| 0));
    let ctx = proc.open_context();
    let sym = proc.get_sym("empty").expect("symbol");
    let run = |reps: u32| {
        for _ in 0..reps {
            let req = ctx
                .call_async(&sym, veo_api::ArgsStack::new())
                .expect("call");
            ctx.wait_result(req).expect("result");
        }
    };
    run(cfg.warmup);
    let t0 = proc.host_clock().now();
    run(cfg.offload_reps);
    let elapsed = proc.host_clock().now() - t0;
    ctx.close();
    elapsed.as_us_f64() / cfg.offload_reps as f64
}

/// Transfer methods of Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Method {
    /// VH-initiated `veo_read_mem`/`veo_write_mem` (§III-D).
    VeoReadWrite,
    /// VE-initiated user DMA (§IV).
    VeUserDma,
    /// VE-initiated SHM/LHM instructions (§IV).
    VeShmLhm,
}

impl Method {
    /// Display label matching the paper's legend.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Method::VeoReadWrite => "VEO Read/Write",
            Method::VeUserDma => "VE User DMA",
            Method::VeShmLhm => "VE SHM/LHM",
        }
    }
}

/// Transfer directions of Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Host to Vector Engine.
    Vh2Ve,
    /// Vector Engine to host.
    Ve2Vh,
}

impl Dir {
    /// Display label matching the paper.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Dir::Vh2Ve => "VH=>VE",
            Dir::Ve2Vh => "VE=>VH",
        }
    }
}

/// Measure the bandwidth (GiB/s) of moving `bytes` once per repetition
/// with `method` in `dir` on a fresh machine.
///
/// Each `(method, dir, size)` point uses fresh engines so occupancy from
/// other points does not leak in — matching per-point benchmark runs.
pub(crate) fn transfer_bandwidth(
    machine: &Arc<AuroraMachine>,
    method: Method,
    dir: Dir,
    bytes: u64,
    cfg: &BenchConfig,
) -> f64 {
    let reps = cfg.transfer_reps.max(1);
    let total = bytes * reps as u64;
    let elapsed = match method {
        Method::VeoReadWrite => veo_transfer_time(machine, dir, bytes, reps, cfg.warmup),
        Method::VeUserDma => udma_transfer_time(machine, dir, bytes, reps, cfg.warmup),
        Method::VeShmLhm => shm_lhm_transfer_time(machine, dir, bytes, reps, cfg.warmup),
    };
    aurora_sim_core::time::gib_per_sec(total, elapsed)
}

/// Bandwidth (GiB/s) of a *single* transfer issued from idle — the
/// credit-replenished state a protocol's flag/notification stores see.
/// Distinguishes §V-B's single-message claims from the saturated-loop
/// bandwidths of Fig. 10 / Table IV.
pub(crate) fn single_transfer_bandwidth(method: Method, dir: Dir, bytes: u64) -> f64 {
    let cfg = BenchConfig {
        transfer_reps: 1,
        warmup: 0,
        max_transfer: bytes.next_power_of_two().max(1 << 20),
        ..BenchConfig::quick()
    };
    // A fresh machine per measurement: no engine/wire occupancy carries
    // over from other points (each point is its own benchmark run).
    let machine = benchmark_machine(&cfg);
    transfer_bandwidth(&machine, method, dir, bytes, &cfg)
}

fn veo_transfer_time(
    machine: &Arc<AuroraMachine>,
    dir: Dir,
    bytes: u64,
    reps: u32,
    warmup: u32,
) -> SimTime {
    let proc = VeoProc::create(Arc::clone(machine), 0, 0, Clock::new());
    let vh = machine.vh(0);
    let host_buf = vh.alloc(bytes).expect("VH buffer");
    let ve_buf = proc.alloc_mem(bytes).expect("VE buffer");
    let run = |n: u32| {
        for _ in 0..n {
            match dir {
                Dir::Vh2Ve => proc.write_mem(host_buf, ve_buf, bytes).expect("write"),
                Dir::Ve2Vh => proc.read_mem(ve_buf, host_buf, bytes).expect("read"),
            };
        }
    };
    run(warmup.min(2));
    let t0 = proc.host_clock().now();
    run(reps);
    let elapsed = proc.host_clock().now() - t0;
    vh.free(host_buf).expect("free VH buffer");
    proc.free_mem(ve_buf).expect("free VE buffer");
    proc.destroy();
    elapsed
}

/// VE-side benchmark rig: a host segment's resolved DMAATB window, fresh
/// engines, and a VE clock — the raw mechanisms of §IV, reached the way
/// the DMA protocol reaches them, driven directly as the paper's
/// microbenchmarks do.
struct VeRig {
    window: DmaWindow,
    hbm: Arc<aurora_mem::Region>,
    hbm_off: u64,
    udma: UserDma,
    lhm_shm: LhmShmUnit,
    clock: Clock,
}

fn ve_rig(machine: &Arc<AuroraMachine>, bytes: u64) -> VeRig {
    let ve = machine.ve(0);
    let seg = aurora_mem::Region::new(bytes.max(8));
    let atb = Dmaatb::new(8);
    let vehva = atb
        .register(
            DmaTarget {
                region: seg,
                offset: 0,
            },
            bytes.max(8),
        )
        .expect("register");
    let window = atb.window(vehva).expect("just registered");
    let hbm_off = ve.alloc(bytes.max(8), 8).expect("HBM staging");
    let link = Arc::clone(ve.link());
    VeRig {
        window,
        hbm: Arc::clone(ve.hbm()),
        hbm_off,
        udma: UserDma::new(Arc::clone(&link)),
        lhm_shm: LhmShmUnit::new(link),
        clock: Clock::new(),
    }
}

fn udma_transfer_time(
    machine: &Arc<AuroraMachine>,
    dir: Dir,
    bytes: u64,
    reps: u32,
    warmup: u32,
) -> SimTime {
    let rig = ve_rig(machine, bytes);
    let run = |n: u32| {
        for _ in 0..n {
            match dir {
                Dir::Vh2Ve => rig
                    .udma
                    .read_host(
                        &rig.clock,
                        &rig.window,
                        rig.window.base(),
                        &rig.hbm,
                        rig.hbm_off,
                        bytes,
                    )
                    .expect("dma read"),
                Dir::Ve2Vh => rig
                    .udma
                    .write_host(
                        &rig.clock,
                        &rig.window,
                        &rig.hbm,
                        rig.hbm_off,
                        rig.window.base(),
                        bytes,
                    )
                    .expect("dma write"),
            };
        }
    };
    run(warmup.min(2));
    let t0 = rig.clock.now();
    run(reps);
    machine.ve(0).free(rig.hbm_off).expect("free staging");
    rig.clock.now() - t0
}

fn shm_lhm_transfer_time(
    machine: &Arc<AuroraMachine>,
    dir: Dir,
    bytes: u64,
    reps: u32,
    warmup: u32,
) -> SimTime {
    let rig = ve_rig(machine, bytes);
    let words = (bytes.div_ceil(8)).max(1) as usize;
    let mut inbuf = vec![0u64; words];
    let outbuf: Vec<u64> = (0..words as u64).collect();
    let mut run = |n: u32| {
        for _ in 0..n {
            match dir {
                // LHM loads host memory into the VE.
                Dir::Vh2Ve => {
                    rig.lhm_shm
                        .lhm_stream(&rig.clock, &rig.window, rig.window.base(), &mut inbuf)
                        .expect("lhm");
                }
                // SHM stores VE data into host memory.
                Dir::Ve2Vh => {
                    rig.lhm_shm
                        .shm_stream(&rig.clock, &rig.window, rig.window.base(), &outbuf)
                        .expect("shm");
                }
            }
        }
    };
    run(warmup.min(2));
    let t0 = rig.clock.now();
    run(reps);
    machine.ve(0).free(rig.hbm_off).expect("free staging");
    rig.clock.now() - t0
}

/// The power-of-two size grid of Fig. 10: 8 B … `max` (SHM/LHM capped at
/// 4 MiB in the paper "due to prohibitive runtimes").
pub(crate) fn size_grid(max: u64) -> Vec<u64> {
    let mut sizes = Vec::new();
    let mut s = 8u64;
    while s <= max {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// The paper's SHM/LHM measurement cap.
pub(crate) const SHM_LHM_MAX: u64 = 4 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_grid_is_powers_of_two() {
        let g = size_grid(64);
        assert_eq!(g, vec![8, 16, 32, 64]);
    }

    #[test]
    fn row_csv_renders() {
        let r = Row {
            label: "VEO Read/Write".into(),
            x: 1024,
            value: 1.5,
            unit: "GiB/s",
            paper: Some(9.9),
        };
        assert_eq!(r.csv(), "VEO Read/Write,1024,1.5000,GiB/s,9.9");
        let r2 = Row { paper: None, ..r };
        assert!(r2.csv().ends_with("GiB/s,"));
    }

    #[test]
    fn parse_config_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let d = parse_config(args(&[]).into_iter());
        assert_eq!(d.offload_reps, BenchConfig::default().offload_reps);
        let q = parse_config(args(&["--quick"]).into_iter());
        assert_eq!(q.max_transfer, BenchConfig::quick().max_transfer);
        let r = parse_config(args(&["--reps", "7"]).into_iter());
        assert_eq!(r.offload_reps, 7);
        let m = parse_config(args(&["--max-mib", "2"]).into_iter());
        assert_eq!(m.max_transfer, 2 << 20);
        let p = parse_config(args(&["--paper-reps"]).into_iter());
        assert_eq!(
            p.offload_reps as u64,
            aurora_sim_core::calib::PAPER_OFFLOAD_REPS
        );
        // Bad values fall back silently.
        let b = parse_config(args(&["--reps", "x"]).into_iter());
        assert_eq!(b.offload_reps, BenchConfig::default().offload_reps);
    }

    #[test]
    fn udma_bandwidth_peaks_match_table4() {
        let cfg = BenchConfig::quick();
        let m = benchmark_machine(&cfg);
        let bw = transfer_bandwidth(&m, Method::VeUserDma, Dir::Ve2Vh, 16 << 20, &cfg);
        assert!((bw - 11.1).abs() / 11.1 < 0.05, "bw = {bw}");
    }

    #[test]
    fn veo_small_transfers_are_slow() {
        let cfg = BenchConfig::quick();
        let m = benchmark_machine(&cfg);
        let bw = transfer_bandwidth(&m, Method::VeoReadWrite, Dir::Vh2Ve, 8, &cfg);
        assert!(bw < 0.001, "8-byte VEO write at {bw} GiB/s");
    }

    #[test]
    fn shm_beats_lhm() {
        let cfg = BenchConfig::quick();
        let m = benchmark_machine(&cfg);
        let shm = transfer_bandwidth(&m, Method::VeShmLhm, Dir::Ve2Vh, 64 << 10, &cfg);
        let lhm = transfer_bandwidth(&m, Method::VeShmLhm, Dir::Vh2Ve, 64 << 10, &cfg);
        assert!(shm > lhm, "shm {shm} vs lhm {lhm}");
    }
}
