//! Metric tables — the single source for `BENCHMARK.json`
//! (`hotpath manifest` prints it from these) — and the `name unit
//! value n` rows every child process reports in.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (negative = better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric the driver gates: `bound` is the share of the
/// parent's median by which it may worsen.
pub struct Gated {
    pub metric: Metric,
    pub bound: f64,
    /// Reported once per 250 ms window of the timed region rather than
    /// once per round, and summarised by the better decile over all
    /// windows of a run rather than the median over rounds (README,
    /// "Windows").
    pub windowed: bool,
}

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Wall-clock end-to-end metrics, every workload, timed rounds only.
/// Bounds come from `hotpath aa` on the machine named in the README:
/// three times the typical run-to-run spread, at least 0.10 and at most
/// the driver's maximum of 0.25.
pub const END_TO_END: &[Gated] = &[
    Gated {
        metric: m("setup_s", "s", Lower),
        bound: 0.25,
        windowed: false,
    },
    Gated {
        metric: m("ops_per_s", "1/s", Higher),
        bound: 0.25,
        windowed: true,
    },
    Gated {
        metric: m("lat_ns_p50", "ns", Lower),
        bound: 0.25,
        windowed: true,
    },
    Gated {
        metric: m("cpu_us_per_op", "us", Lower),
        bound: 0.25,
        windowed: true,
    },
    Gated {
        metric: m("peak_rss_mib", "MiB", Lower),
        bound: 0.10,
        windowed: false,
    },
];

/// End-to-end in meaning but not gated by the driver, whose contract
/// excludes a metric that reads exactly the same on every run (virtual
/// time on `sync_*` and `bulk_dma`, by design) or that is zero
/// (`failed_share`, always). Both are checked for exactness inside the
/// benchmark instead, and reported with the per-layer metrics.
pub const END_TO_END_EXACT: &[Metric] = &[
    m("virt_us_per_op", "virt_us", Lower),
    m("failed_share", "ratio", Lower),
];

/// Per-layer metrics: layer = module name. Virtual-time rows carry the
/// unit `virt_us`, never a wall-clock unit.
pub const PER_LAYER: &[Metric] = &[
    // runtime (offload::runtime, future)
    m("runtime.post_ns_p50", "ns", Lower),
    m("runtime.wait_ns_p50", "ns", Lower),
    m("runtime.put_ns_p50.1mib", "ns", Lower),
    m("runtime.put_ns_p50.4kib", "ns", Lower),
    m("runtime.get_ns_p50.1mib", "ns", Lower),
    m("runtime.get_ns_p50.4kib", "ns", Lower),
    m("runtime.lat_ns_p99", "ns", Lower),
    m("runtime.lat_ns_p999", "ns", Lower),
    m("runtime.samples", "count", Higher),
    m("runtime.slow_window_share", "ratio", Lower),
    // chan
    m("chan.polls_per_op", "count", Lower),
    m("chan.poll_miss_share", "ratio", Lower),
    m("chan.frames_per_op", "count", Lower),
    m("chan.msgs_per_frame", "count", Higher),
    m("chan.inflight_peak", "count", Higher),
    m("chan.resends", "count", Lower),
    m("chan.timeouts", "count", Lower),
    m("chan.core.cycle_ns", "ns", Lower),
    m("chan.core.stage_flush_ns", "ns", Lower),
    m("chan.engine.loopback_ns", "ns", Lower),
    m("chan.pool.checkout_ns", "ns", Lower),
    // device
    m("device.dispatch_ns", "ns", Lower),
    m("device.batch_dispatch_ns", "ns", Lower),
    m("device.steals_per_kop", "count", Lower),
    m("device.lane_task_imbalance", "ratio", Lower),
    // sched
    m("sched.pick_ns", "ns", Lower),
    m("sched.resubmits", "count", Lower),
    m("sched.placement_imbalance", "ratio", Lower),
    // ham
    m("ham.codec.encode_ns.1kib", "ns", Lower),
    m("ham.codec.decode_ns.1kib", "ns", Lower),
    m("ham.registry.encode_msg_ns", "ns", Lower),
    m("ham.registry.execute_ns", "ns", Lower),
    // tcp
    m("tcp.frame_ns", "ns", Lower),
    // platform model: wall cost of simulating
    m("veo.write_mem_ns.4kib", "ns", Lower),
    m("veo.read_mem_ns.4kib", "ns", Lower),
    m("veo.write_mem_ns.1mib", "ns", Lower),
    m("pcie.occupy_ns.1mib", "ns", Lower),
    // telemetry
    m("telemetry.hist_record_ns", "ns", Lower),
    m("telemetry.trace_record_off_ns", "ns", Lower),
    m("telemetry.trace_record_on_ns", "ns", Lower),
    m("trace.overhead_share", "ratio", Lower),
    // local: the bimodal case, ungated by design
    m("local.sync_ns_p50", "ns", Lower),
    m("local.sync_fast_share", "ratio", Higher),
    // virt: modelled time per offload by span category (traced run)
    m("virt.ham.host_overhead.us_per_op", "virt_us", Lower),
    m("virt.ham.target_overhead.us_per_op", "virt_us", Lower),
    m("virt.udma.read.us_per_op", "virt_us", Lower),
    m("virt.udma.write.us_per_op", "virt_us", Lower),
    m("virt.shm.flag.us_per_op", "virt_us", Lower),
    m("virt.shm.word.us_per_op", "virt_us", Lower),
    m("virt.lhm.word.us_per_op", "virt_us", Lower),
    m("virt.ve.compute.us_per_op", "virt_us", Lower),
    m("virt.vh.local_post.us_per_op", "virt_us", Lower),
    m("virt.vh.local_consume.us_per_op", "virt_us", Lower),
    m("virt.chan.batch_flush.us_per_op", "virt_us", Lower),
    m("virt.pcie.down.us_per_op", "virt_us", Lower),
    m("virt.pcie.up.us_per_op", "virt_us", Lower),
    m("virt.veo.write_mem.us_per_op", "virt_us", Lower),
    m("virt.veo.read_mem.us_per_op", "virt_us", Lower),
    m("virt.other.us_per_op", "virt_us", Lower),
    m("model.err_share.dma_sync", "ratio", Lower),
    m("model.err_share.veo_sync", "ratio", Lower),
    // proc
    m("proc.user_s", "s", Lower),
    m("proc.sys_s", "s", Lower),
    m("proc.sys_share", "ratio", Lower),
    m("proc.ctx_vol_per_op", "count", Lower),
    m("proc.ctx_invol_per_op", "count", Lower),
    m("proc.threads", "count", Lower),
    m("proc.allocs_per_op", "count", Lower),
    m("proc.alloc_bytes_per_op", "B", Lower),
];

/// Span categories the existing `TraceSession` emits today, i.e. the
/// `virt.<category>.us_per_op` rows above; anything else a later change
/// adds lands in `virt.other.us_per_op` until the benchmark names it.
pub const VIRT_CATEGORIES: &[&str] = &[
    "ham.host_overhead",
    "ham.target_overhead",
    "udma.read",
    "udma.write",
    "shm.flag",
    "shm.word",
    "lhm.word",
    "ve.compute",
    "vh.local_post",
    "vh.local_consume",
    "chan.batch_flush",
    "pcie.down",
    "pcie.up",
    "veo.write_mem",
    "veo.read_mem",
];

/// One reported value: `name unit value n` (`n` = samples behind it).
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: u64,
}

impl Row {
    pub fn new(name: impl Into<String>, unit: &str, value: f64, n: u64) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value,
            n,
        }
    }

    /// A row for a metric of the tables above, unit taken from there.
    pub fn of(name: &str, value: f64, n: u64) -> Self {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is in no table"));
        Self::new(name, unit, value, n)
    }

    pub fn line(&self) -> String {
        format!("{} {} {} {}", self.name, self.unit, self.value, self.n)
    }

    pub fn parse(line: &str) -> Option<Row> {
        let mut it = line.split_whitespace();
        let row = Row {
            name: it.next()?.to_string(),
            unit: it.next()?.to_string(),
            value: it.next()?.parse().ok()?,
            n: it.next()?.parse().ok()?,
        };
        it.next().is_none().then_some(row)
    }
}

/// One number from everything reported under `name` in a run: the
/// better decile over windows for a windowed metric, the median over
/// rounds for any other.
pub fn aggregate(name: &str, values: &[f64]) -> Option<f64> {
    match END_TO_END
        .iter()
        .find(|g| g.windowed && g.metric.name == name)
    {
        Some(g) => crate::stats::better_decile(values, g.metric.better == Higher),
        None => crate::stats::median(values),
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|g| &g.metric)
        .chain(END_TO_END_EXACT)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_lines_round_trip() {
        let r = Row::of("lat_ns_p50", 2034.0, 1_500_000);
        assert_eq!(Row::parse(&r.line()), Some(r));
        assert_eq!(Row::parse("# comment line"), None);
        assert_eq!(Row::parse("a b 1.5 3 extra"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|g| g.metric.name)
            .chain(END_TO_END_EXACT.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(PER_LAYER.len() + END_TO_END_EXACT.len() <= 128);
        for g in END_TO_END {
            assert!(g.bound > 0.0 && g.bound <= 0.25);
        }
        for c in VIRT_CATEGORIES {
            assert!(unit_of(&format!("virt.{c}.us_per_op")) == Some("virt_us"));
        }
    }

    #[test]
    fn windowed_metrics_take_the_better_decile() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(aggregate("ops_per_s", &v), Some(9.0));
        assert_eq!(aggregate("lat_ns_p50", &v), Some(1.0));
        assert_eq!(aggregate("setup_s", &v), Some(5.0));
        assert_eq!(aggregate("chan.polls_per_op", &v), Some(5.0));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worsening(100.0, 120.0) < 0.0);
    }
}
