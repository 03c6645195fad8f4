//! What runs inside one child process: a timed round, or the traced run.

use crate::alloc::counted;
use crate::metrics::{Row, VIRT_CATEGORIES};
use crate::procstat::ProcStat;
use crate::spans::{NoRec, Rec, SpanRec};
use crate::stats::{better_decile, percentile, Samples};
use crate::workloads::{self, Bench, Spec, Traffic};
use aurora_sim_core::trace::TraceSession;
use aurora_sim_core::{HealthEventKind, MetricsSnapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

/// Everything a child reports back.
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that errored, answered wrongly, or leaked.
    pub failed: u64,
    pub input_digest: u64,
    /// Violated invariants (quiescence, isolation, model exactness).
    pub violations: Vec<String>,
}

impl Outcome {
    /// Print rows as `name unit value n`, meta as `#key value`.
    pub fn print(&self) {
        for r in &self.rows {
            println!("{}", r.line());
        }
        println!("#input_digest {:016x}", self.input_digest);
        println!("#attempted {}", self.attempted);
        println!("#failed {}", self.failed);
        for v in &self.violations {
            println!("#violation {v}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Largest minus smallest; 0 for an empty set.
fn range(v: &[f64]) -> f64 {
    let hi = v.iter().copied().fold(f64::MIN, f64::max);
    let lo = v.iter().copied().fold(f64::MAX, f64::min);
    (hi - lo).max(0.0)
}

fn warm_up(bench: &mut Bench, spec: &Spec) -> u64 {
    (0..spec.warmup_units)
        .map(|i| bench.unit(i, &mut NoRec))
        .sum()
}

/// `chan`, `device` and `sched` rows from register deltas over `ops`.
fn layer_rows(
    bench: &Bench,
    before: &MetricsSnapshot,
    placed_before: &[u64],
    ops: u64,
    rows: &mut Vec<Row>,
) {
    let after = bench.offload().metrics_snapshot();
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(&after) - f(before)) as f64;
    let (polls, frames) = (d(|m| m.polls), d(|m| m.frames_sent));
    let opsf = ops as f64;
    let mut row = |name: &str, v: f64| rows.push(Row::of(name, v, ops));
    row("chan.polls_per_op", polls / opsf);
    row("chan.poll_miss_share", ratio(d(|m| m.retries), polls));
    row("chan.frames_per_op", frames / opsf);
    row("chan.msgs_per_frame", ratio(d(|m| m.msgs_sent), frames));
    row("chan.inflight_peak", after.inflight_peak as f64);
    row("chan.resends", d(|m| m.resends));
    row("chan.timeouts", d(|m| m.timeouts));
    row("device.steals_per_kop", d(|m| m.steals) * 1000.0 / opsf);
    let tasks: Vec<f64> = after
        .lanes
        .iter()
        .map(|l| {
            let was = before.lanes.iter().find(|b| b.lane == l.lane);
            (l.tasks - was.map_or(0, |b| b.tasks)) as f64
        })
        .collect();
    let mean = tasks.iter().sum::<f64>() / tasks.len().max(1) as f64;
    row("device.lane_task_imbalance", ratio(range(&tasks), mean));
    if let Some(pool) = bench.pool() {
        let placed: Vec<f64> = placed(pool)
            .iter()
            .zip(placed_before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let total: f64 = placed.iter().sum();
        row("sched.placement_imbalance", ratio(range(&placed), total));
        let health = bench.offload().backend().metrics().health().events();
        let failovers = health
            .iter()
            .filter(|e| e.kind == HealthEventKind::Failover)
            .count();
        row("sched.resubmits", failovers as f64);
    }
}

/// Completions per pool target.
fn placed(pool: &ham_offload::TargetPool) -> Vec<u64> {
    let snap = pool.metrics_snapshot();
    snap.targets.iter().map(|t| t.completions).collect()
}

/// `docs/repro_all_output.txt` (Fig. 9) pins the modelled cost of an
/// empty offload to four decimals; a run that reads otherwise has
/// changed the model, not the wall clock.
pub fn model_violation(what: &str, virt_us: f64, pinned_us: f64) -> Option<String> {
    ((virt_us - pinned_us).abs() >= 5e-5).then(|| {
        format!("{what}: modelled {virt_us:.4} us per offload, the calibration says {pinned_us}")
    })
}

/// The timed region is cut into windows of this length; a round ends at
/// the first window boundary past its `--seconds`.
const WINDOW: Duration = Duration::from_millis(250);

/// One closed window of the timed region.
struct Window {
    /// Units completed since the round began, at window close.
    end_seen: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// One timed round: set up, warm up, measure for `seconds`, verify.
/// `spawned_at` is when the parent started this process, so `setup_s`
/// includes exec and dynamic linking; without it, process entry.
pub fn timed(name: &str, seed: u64, seconds: f64, spawned_at: Option<SystemTime>) -> Outcome {
    let entered = Instant::now();
    let spec = workloads::spec(name).expect("known workload");
    let (mut bench, input_digest) = workloads::build(name, seed).expect("known workload");
    let mut failed = warm_up(&mut bench, spec);
    let mut samples = Samples::new(Samples::CAP);
    let offload = bench.offload().clone();
    let clock = offload.backend().host_clock().clone();
    let placed0 = bench.pool().map(placed).unwrap_or_default();
    let m0 = offload.metrics_snapshot();
    let p0 = ProcStat::read();
    let v0 = clock.now();
    let setup_s = match spawned_at.and_then(|t| t.elapsed().ok()) {
        Some(d) => d.as_secs_f64(),
        None => entered.elapsed().as_secs_f64(),
    };

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mut t, mut i) = (t0, spec.warmup_units);
    let mut windows: Vec<Window> = Vec::with_capacity(1024);
    let (mut w_start, mut w_cpu) = (t0, crate::procstat::cpu_seconds());
    loop {
        failed += bench.unit(i, &mut NoRec);
        let now = Instant::now();
        samples.push((now - t).as_nanos() as u64);
        t = now;
        i += 1;
        if now - w_start >= WINDOW {
            let cpu = crate::procstat::cpu_seconds();
            windows.push(Window {
                end_seen: samples.seen(),
                wall_s: (now - w_start).as_secs_f64(),
                cpu_s: (cpu.0 + cpu.1) - (w_cpu.0 + w_cpu.1),
            });
            (w_start, w_cpu) = (now, cpu);
            if now >= deadline {
                break;
            }
        }
    }
    let virt = clock.now() - v0;
    let p = ProcStat::read().since(&p0);
    let m1 = offload.metrics_snapshot();

    let units = samples.seen();
    let ops = units * spec.ops_per_unit;
    let attempted = (units + spec.warmup_units) * spec.ops_per_unit;
    failed += bench.drain();
    let mut violations = bench.leaks();
    failed += violations.len() as u64;
    let traffic = Traffic {
        ops,
        posts: m1.posts - m0.posts,
        frames: m1.frames_sent - m0.frames_sent,
        msgs: m1.msgs_sent - m0.msgs_sent,
    };
    violations.extend((spec.isolation)(&traffic).map(|v| format!("{name}: {v}")));
    let virt_us = virt.as_us_f64() / ops as f64;
    if let Some(pinned) = spec.pinned_virt_us {
        violations.extend(model_violation(name, virt_us, pinned));
    }

    let sorted = samples.sorted();
    let pct = |p| percentile(&sorted, p).unwrap_or(0) as f64;
    let cpu_s = p.user_s + p.sys_s;
    let n = sorted.len() as u64;
    let mut rows = vec![
        Row::of("setup_s", setup_s, 1),
        Row::of("virt_us_per_op", virt_us, ops),
        Row::of("peak_rss_mib", p.peak_rss_mib, 1),
        Row::of("failed_share", failed as f64 / attempted as f64, attempted),
        Row::of("runtime.lat_ns_p99", pct(0.99), n),
        Row::of("runtime.lat_ns_p999", pct(0.999), n),
        Row::of("runtime.samples", n as f64, n),
        Row::of("proc.user_s", p.user_s, 1),
        Row::of("proc.sys_s", p.sys_s, 1),
        Row::of("proc.sys_share", ratio(p.sys_s, cpu_s), 1),
        Row::of("proc.ctx_vol_per_op", p.ctx_vol as f64 / ops as f64, ops),
        Row::of(
            "proc.ctx_invol_per_op",
            p.ctx_invol as f64 / ops as f64,
            ops,
        ),
        Row::of("proc.threads", p.threads as f64, 1),
    ];
    // The windowed metrics: one row per window, pooled by the parent.
    let mut rates = Vec::with_capacity(windows.len());
    let mut from = 0;
    for w in &windows {
        let w_ops = (w.end_seen - from) * spec.ops_per_unit;
        let lat = samples.range_sorted(from, w.end_seen);
        rates.push(w_ops as f64 / w.wall_s);
        rows.push(Row::of("ops_per_s", w_ops as f64 / w.wall_s, w_ops));
        rows.push(Row::of(
            "cpu_us_per_op",
            w.cpu_s * 1e6 / w_ops as f64,
            w_ops,
        ));
        if let Some(p50) = percentile(&lat, 0.5) {
            rows.push(Row::of("lat_ns_p50", p50 as f64, lat.len() as u64));
        }
        from = w.end_seen;
    }
    // How much of the round ran visibly below its own good state.
    let good = better_decile(&rates, true).expect("a round closes at least one window");
    let slow = rates.iter().filter(|&&r| r < 0.8 * good).count();
    let share = slow as f64 / rates.len() as f64;
    rows.push(Row::of(
        "runtime.slow_window_share",
        share,
        rates.len() as u64,
    ));
    layer_rows(&bench, &m0, &placed0, ops, &mut rows);
    bench.offload().shutdown();
    Outcome {
        rows,
        attempted,
        failed,
        input_digest,
        violations,
    }
}

/// `units` units from `first` on: wall ns per op, and failures.
fn pass<R: Rec>(bench: &mut Bench, rec: &mut R, first: u64, units: u64, ops: u64) -> (f64, u64) {
    let t = Instant::now();
    let bad = (first..first + units).map(|i| bench.unit(i, rec)).sum();
    (t.elapsed().as_nanos() as f64 / ops as f64, bad)
}

/// The traced run: passes of a fixed count of units, plain and with
/// `TraceSession` on plus the benchmark's spans around every call, so
/// that they differ by tracing alone. Writes the span file.
pub fn traced(name: &str, seed: u64, out_dir: &Path, smoke: bool) -> std::io::Result<Outcome> {
    let spec = workloads::spec(name).expect("known workload");
    let (mut bench, input_digest) = workloads::build(name, seed).expect("known workload");
    let mut failed = warm_up(&mut bench, spec);
    let units = if smoke {
        spec.traced_units / 10
    } else {
        spec.traced_units
    };
    let ops = units * spec.ops_per_unit;
    let first = spec.warmup_units;

    // plain, traced, plain: the two plain passes bracket the traced one
    // so drift (caches warming, the scheduler settling) cancels in
    // their mean. Allocations are counted in every pass, keeping them
    // comparable, but reported from the first plain one: the trace
    // session's own event buffers are not the program's allocations.
    let mut plain_ns = 0.0;
    let ((ns, bad), allocs, alloc_bytes) =
        counted(|| pass(&mut bench, &mut NoRec, first, units, ops));
    plain_ns += ns / 2.0;
    failed += bad;
    let mut rec = SpanRec::with_capacity((units * (2 * spec.ops_per_unit + 2)) as usize);
    let session = TraceSession::start();
    let ((traced_ns, bad), _, _) =
        counted(|| pass(&mut bench, &mut rec, first + units, units, ops));
    let trace = session.finish();
    failed += bad;
    let ((ns, bad), _, _) = counted(|| pass(&mut bench, &mut NoRec, first + 2 * units, units, ops));
    plain_ns += ns / 2.0;
    failed += bad;

    failed += bench.drain();
    let mut violations = bench.leaks();
    failed += violations.len() as u64;
    bench.offload().shutdown();

    let mut rows = vec![
        Row::of(
            "trace.overhead_share",
            (traced_ns - plain_ns) / plain_ns,
            ops,
        ),
        Row::of("proc.allocs_per_op", allocs as f64 / ops as f64, ops),
        Row::of(
            "proc.alloc_bytes_per_op",
            alloc_bytes as f64 / ops as f64,
            ops,
        ),
    ];
    for (metric, spans) in [
        ("runtime.post_ns_p50", &["runtime.post", "sched.submit"][..]),
        ("runtime.wait_ns_p50", &["runtime.wait", "sched.wait_all"]),
        ("runtime.put_ns_p50.1mib", &["runtime.put.1mib"]),
        ("runtime.put_ns_p50.4kib", &["runtime.put.4kib"]),
        ("runtime.get_ns_p50.1mib", &["runtime.get.1mib"]),
        ("runtime.get_ns_p50.4kib", &["runtime.get.4kib"]),
    ] {
        let mut d: Vec<u64> = spans.iter().flat_map(|s| rec.durations(s)).collect();
        d.sort_unstable();
        if let Some(p50) = percentile(&d, 0.5) {
            rows.push(Row::of(metric, p50 as f64, d.len() as u64));
        }
    }
    let mut virt_ps: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in &trace.events {
        let known = VIRT_CATEGORIES.contains(&e.category);
        let slot = virt_ps
            .entry(if known { e.category } else { "other" })
            .or_default();
        slot.0 += e.duration_ps();
        slot.1 += 1;
    }
    for (cat, (ps, n)) in virt_ps {
        let name = format!("virt.{cat}.us_per_op");
        rows.push(Row::of(&name, ps as f64 / 1e6 / ops as f64, n));
    }
    if !rec.spans.iter().all(|s| s.end_ns >= s.start_ns) {
        violations.push("a benchmark span was never closed".into());
    }
    write_spans(name, seed, units, &rec, out_dir)?;
    Ok(Outcome {
        rows,
        attempted: (spec.warmup_units + 3 * units) * spec.ops_per_unit,
        failed,
        input_digest,
        violations,
    })
}

fn write_spans(
    name: &str,
    seed: u64,
    units: u64,
    rec: &SpanRec,
    out_dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let file = std::fs::File::create(out_dir.join(format!("trace-{name}.json")))?;
    let mut w = std::io::BufWriter::new(file);
    write!(
        w,
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"units\":{units},\"self_ns\":{{"
    )?;
    for (k, (span, (count, total, own))) in rec.self_times().iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\"{span}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        )?;
    }
    write!(w, "}},\"spans\":[")?;
    for (k, s) in rec.spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        // `parent` is an index into this array; -1 marks a root.
        let parent = if s.parent == crate::spans::ROOT {
            -1
        } else {
            s.parent as i64
        };
        write!(
            w,
            "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    writeln!(w, "\n]}}")?;
    // Dropping a BufWriter discards write errors; surface them.
    w.flush()
}
