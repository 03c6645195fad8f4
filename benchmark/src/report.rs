//! The parent side: spawn child processes, pool what they report,
//! print rows, write result files, compare two sets of runs.

use crate::metrics::{aggregate, Better, Row, END_TO_END, END_TO_END_EXACT, PER_LAYER};
use crate::probes;
use crate::round::Outcome;
use crate::stats::{median, rel_spread};
use crate::workloads::SPECS;
use aurora_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

/// Settings shared by every mode; identical on both commits of a
/// comparison because they travel in `BENCHMARK.json`'s command.
#[derive(Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measured wall time per workload, split evenly over `rounds`.
    pub seconds: f64,
    /// Fresh child processes per workload.
    pub rounds: usize,
    /// Where result and span files go.
    pub out: PathBuf,
    /// Schema check only: the traced run does a tenth of its units.
    pub smoke: bool,
}

/// Everything a run's children reported under one metric name: one
/// value per round, or per window for a windowed metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stat {
    pub unit: String,
    pub values: Vec<f64>,
    /// Samples behind the values, summed.
    pub n: u64,
}

/// Everything measured for one workload (or the probe cells).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub input_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub stats: BTreeMap<String, Stat>,
}

impl Summary {
    pub fn new(workload: &str, opts: &Opts) -> Self {
        Self {
            workload: workload.into(),
            seed: opts.seed,
            seconds: opts.seconds,
            ..Default::default()
        }
    }

    pub fn absorb(&mut self, o: Outcome) {
        for r in o.rows {
            let s = self.stats.entry(r.name).or_default();
            s.unit = r.unit;
            s.values.push(r.value);
            s.n += r.n;
        }
        if o.input_digest != 0 {
            if self.input_digest != 0 && self.input_digest != o.input_digest {
                self.violations
                    .push("one seed produced two different inputs".into());
            }
            self.input_digest = o.input_digest;
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations.extend(o.violations);
    }

    /// The run's one number for `name` (see [`aggregate`]).
    pub fn value(&self, name: &str) -> Option<f64> {
        aggregate(name, &self.stats.get(name)?.values)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Where the modelled time per op is a pure function of the inputs
    /// (`Spec::virt_repeats`), every round must agree exactly.
    pub fn check_virt_repeats(&mut self) {
        let exact = crate::workloads::spec(&self.workload).is_some_and(|s| s.virt_repeats);
        if let Some(s) = self.stats.get("virt_us_per_op").filter(|_| exact) {
            if s.values.iter().any(|v| (v - s.values[0]).abs() > 1e-9) {
                self.violations.push(format!(
                    "{} virt_us_per_op differs across rounds: {:?}",
                    self.workload, s.values
                ));
            }
        }
    }

    pub fn print_rows(&self, names: impl Iterator<Item = &'static str>) {
        for name in names {
            if let Some(s) = self.stats.get(name) {
                let v = self.value(name).expect("a stat has at least one value");
                println!(
                    "{:<12} {}",
                    self.workload,
                    Row::new(name, &s.unit, v, s.n).line()
                );
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"input_digest\":\"{:016x}\",\
             \"attempted\":{},\"failed\":{},\"machine\":\"{}\",\"violations\":[",
            json::escape(&self.workload),
            self.seed,
            num(self.seconds),
            self.input_digest,
            self.attempted,
            self.failed,
            json::escape(&crate::procstat::machine_line()),
        );
        let quoted: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", json::escape(v)))
            .collect();
        out.push_str(&quoted.join(","));
        out.push_str("],\"metrics\":{");
        let metrics: Vec<String> = self
            .stats
            .iter()
            .map(|(name, s)| {
                let values: Vec<String> = s.values.iter().map(|&v| num(v)).collect();
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{},\"values\":[{}]}}",
                    json::escape(name),
                    json::escape(&s.unit),
                    num(aggregate(name, &s.values).unwrap_or(0.0)),
                    s.n,
                    values.join(",")
                )
            })
            .collect();
        out.push_str(&metrics.join(","));
        out.push_str("}}");
        out
    }

    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("result-{}.json", self.workload)),
            self.to_json() + "\n",
        )
    }
}

/// A JSON number with all its digits. Non-finite values have no JSON
/// spelling; they only arise from a broken measurement, so fail loudly.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "refusing to report a non-finite measurement");
    format!("{v}")
}

// --- children -------------------------------------------------------------

/// The highest-numbered CPU this process may run on.
fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    // "0-1", "0,2-3", "5": the last number of the last range.
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// Run this binary as a child and parse what it reports. The spawn
/// time travels with it so `setup_s` starts before exec. With
/// `one_cpu` the child starts under `taskset`, which its threads
/// inherit; where there is no `taskset` it runs unpinned, and says so.
fn child(args: &[String], one_cpu: bool) -> io::Result<Outcome> {
    let exe = std::env::current_exe()?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(io::Error::other)?
        .as_nanos();
    let run = |mut cmd: Command| {
        cmd.args(args)
            .arg("--spawned-at-ns")
            .arg(spawned_at.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    };
    let pinned = match last_allowed_cpu().filter(|_| one_cpu) {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", &cpu]).arg(&exe);
            match run(cmd) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    eprintln!(
                        "hotpath: no `taskset` here; `{}` runs unpinned",
                        args.join(" ")
                    );
                    None
                }
                other => Some(other?),
            }
        }
        None => None,
    };
    let out = match pinned {
        Some(out) => out,
        None => run(Command::new(&exe))?,
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut o = Outcome {
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
        input_digest: 0,
        violations: Vec::new(),
    };
    for line in text.lines() {
        if let Some(meta) = line.strip_prefix('#') {
            let (key, value) = meta.split_once(' ').unwrap_or((meta, ""));
            match key {
                "input_digest" => o.input_digest = u64::from_str_radix(value, 16).unwrap_or(0),
                "attempted" => o.attempted = value.parse().unwrap_or(0),
                "failed" => o.failed = value.parse().unwrap_or(0),
                "violation" => o.violations.push(value.to_string()),
                _ => {}
            }
        } else if let Some(row) = Row::parse(line) {
            o.rows.push(row);
        }
    }
    if !out.status.success() && o.correct() {
        o.violations.push(format!(
            "child `{}` ended with {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(o)
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn one_cpu(name: &str) -> bool {
    crate::workloads::spec(name).is_some_and(|s| s.one_cpu)
}

fn timed_round(name: &str, opts: &Opts, seconds: f64) -> io::Result<Outcome> {
    let (seed, secs) = (opts.seed.to_string(), seconds.to_string());
    let list = [
        "round",
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &secs,
    ];
    child(&args(&list), one_cpu(name))
}

fn traced_run(name: &str, opts: &Opts) -> io::Result<Outcome> {
    let (seed, out) = (opts.seed.to_string(), opts.out.display().to_string());
    let mut list = args(&["traced", "--workload", name, "--seed", &seed, "--out", &out]);
    if opts.smoke {
        list.push("--smoke".into());
    }
    child(&list, one_cpu(name))
}

/// `rounds` timed rounds of `name`, pooled.
pub fn measure(name: &str, opts: &Opts) -> io::Result<Summary> {
    let mut s = Summary::new(name, opts);
    for _ in 0..opts.rounds {
        s.absorb(timed_round(name, opts, opts.seconds / opts.rounds as f64)?);
    }
    s.check_virt_repeats();
    Ok(s)
}

/// Every probe group, each in its own child. The timed cells get a
/// quarter of the run's seconds.
pub fn probe_all(opts: &Opts) -> io::Result<Summary> {
    let mut s = Summary::new("probes", opts);
    let secs = (opts.seconds / 4.0).to_string();
    for group in probes::GROUPS {
        s.absorb(child(&args(&["probe", group, "--seconds", &secs]), false)?);
    }
    Ok(s)
}

fn report_violations(s: &Summary) {
    for v in &s.violations {
        eprintln!("hotpath: {}: {v}", s.workload);
    }
    if s.failed > 0 {
        eprintln!(
            "hotpath: {}: {} of {} operations failed",
            s.workload, s.failed, s.attempted
        );
    }
}

fn e2e_names() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .map(|g| g.metric.name)
        .chain(END_TO_END_EXACT.iter().map(|m| m.name))
}

fn layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|m| m.name)
}

// --- driver mode ----------------------------------------------------------

/// One run as `BENCHMARK.json`'s command starts it. `--trace 0`:
/// `rounds` timed rounds, end-to-end metrics. `--trace 1`: one shorter
/// timed round for the register deltas, the traced run, and the probe
/// cells; every per-layer metric is printed, and one the workload does
/// not produce (`sched.*` off `pool_tcp`) reads 0.
pub fn run(name: &str, opts: &Opts, trace: bool) -> io::Result<bool> {
    let s = if trace {
        let mut s = Summary::new(name, opts);
        s.absorb(timed_round(name, opts, opts.seconds / 4.0)?);
        s.absorb(traced_run(name, opts)?);
        let probes = probe_all(opts)?;
        s.violations.extend(probes.violations.iter().cloned());
        s.failed += probes.failed;
        s.stats.extend(probes.stats);
        s
    } else {
        measure(name, opts)?
    };
    s.write(&opts.out)?;
    report_violations(&s);
    let names: Vec<&str> = if trace {
        s.print_rows(e2e_names().chain(layer_names()));
        END_TO_END_EXACT
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .collect()
    } else {
        s.print_rows(e2e_names());
        END_TO_END.iter().map(|g| g.metric.name).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let unit = crate::metrics::unit_of(name).expect("table metric");
            let value = num(s.value(name).unwrap_or(0.0));
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        s.correct(),
        s.attempted.max(1),
        s.failed,
        metrics.join(",")
    );
    io::stdout().flush()?;
    Ok(s.correct())
}

// --- all ------------------------------------------------------------------

/// Every workload (timed rounds + traced run) and every probe cell, all
/// metrics by name with unit and sample count. `false` on any wrong
/// result.
pub fn all(opts: &Opts) -> io::Result<bool> {
    println!("# {}", crate::procstat::machine_line());
    println!(
        "# seed {}  {} s per workload in {} rounds; value = better decile over windows \
         (ops_per_s, lat_ns_p50, cpu_us_per_op) or median over rounds",
        opts.seed, opts.seconds, opts.rounds
    );
    println!("# workload   name unit value n");
    let mut ok = true;
    for spec in SPECS {
        println!("# {}: lat_ns_p50 times one {}", spec.name, spec.unit);
        let mut s = measure(spec.name, opts)?;
        s.absorb(traced_run(spec.name, opts)?);
        s.write(&opts.out)?;
        s.print_rows(e2e_names().chain(layer_names()));
        report_violations(&s);
        ok &= s.correct();
    }
    let probes = probe_all(opts)?;
    probes.write(&opts.out)?;
    probes.print_rows(layer_names());
    report_violations(&probes);
    Ok(ok && probes.correct())
}

// --- aa -------------------------------------------------------------------

#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Medians within the bound, spread within the bound.
    Agree,
    /// B's median is worse than A's by more than the bound.
    Exceeds,
    /// The run-to-run spread is wider than the bound: no call.
    Unresolved,
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let spread = rel_spread(a)
        .unwrap_or(0.0)
        .max(rel_spread(b).unwrap_or(0.0));
    if spread > bound {
        Verdict::Unresolved
    } else if better.worsening(ma, mb) > bound {
        Verdict::Exceeds
    } else {
        Verdict::Agree
    }
}

/// The last line a driver-mode run prints, as `name -> value`.
fn driver_metrics(
    exe: &Path,
    name: &str,
    seed: u64,
    opts: &Opts,
    side: &str,
) -> io::Result<BTreeMap<String, f64>> {
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--rounds", &opts.rounds.to_string()])
        .arg("--out")
        .arg(opts.out.join(side))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(io::Error::other)?;
    if !out.status.success() || v.get("correct") != Some(&Value::Bool(true)) {
        return Err(io::Error::other(format!(
            "{} failed on {name} seed {seed}",
            exe.display()
        )));
    }
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        return Err(io::Error::other("driver line lacks metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Two sets of driver-mode runs, alternating A,B / B,A, one seed per
/// pair; with both sides this binary it measures the benchmark's own
/// noise (where the bounds come from), with `--a`/`--b` two builds.
/// `false` if any (workload, metric) pair exceeds its bound.
pub fn aa(opts: &Opts, pairs: usize, exe_a: &Path, exe_b: &Path) -> io::Result<bool> {
    println!("# {}", crate::procstat::machine_line());
    println!(
        "# A = {}  B = {}  {pairs} pairs",
        exe_a.display(),
        exe_b.display()
    );
    println!("# workload metric unit median_a median_b spread_a spread_b worse_by bound verdict");
    let mut entries = Vec::new();
    let mut ok = true;
    for spec in SPECS {
        let mut sides: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for k in 0..pairs {
            let seed = opts.seed + k as u64;
            let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let (exe, tag) = [(exe_a, "aa-a"), (exe_b, "aa-b")][side];
                for (name, v) in driver_metrics(exe, spec.name, seed, opts, tag)? {
                    sides[side].entry(name).or_default().push(v);
                }
            }
        }
        for g in END_TO_END {
            let empty = Vec::new();
            let a = sides[0].get(g.metric.name).unwrap_or(&empty);
            let b = sides[1].get(g.metric.name).unwrap_or(&empty);
            let v = verdict(g.metric.better, g.bound, a, b);
            let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
            let (sa, sb) = (rel_spread(a).unwrap_or(0.0), rel_spread(b).unwrap_or(0.0));
            let worse = g.metric.better.worsening(ma, mb);
            let word = format!("{v:?}").to_lowercase();
            println!(
                "{:<12} {} {} {ma} {mb} {sa:.4} {sb:.4} {worse:+.4} {} {word}",
                spec.name, g.metric.name, g.metric.unit, g.bound
            );
            ok &= v != Verdict::Exceeds;
            let list = |v: &[f64]| v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",");
            entries.push(format!(
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"bound\":{},\
                 \"median_a\":{},\"median_b\":{},\"spread_a\":{},\"spread_b\":{},\
                 \"worse_by\":{},\"verdict\":\"{word}\",\"a\":[{}],\"b\":[{}]}}",
                spec.name,
                g.metric.name,
                g.metric.unit,
                g.bound,
                num(ma),
                num(mb),
                num(sa),
                num(sb),
                num(worse),
                list(a),
                list(b)
            ));
        }
    }
    std::fs::create_dir_all(&opts.out)?;
    std::fs::write(
        opts.out.join("aa.json"),
        format!(
            "{{\"machine\":\"{}\",\"pairs\":{pairs},\"seconds\":{},\"rounds\":{},\"rows\":[\n{}\n]}}\n",
            json::escape(&crate::procstat::machine_line()),
            num(opts.seconds),
            opts.rounds,
            entries.join(",\n")
        ),
    )?;
    Ok(ok)
}

// --- manifest ---------------------------------------------------------------

/// `BENCHMARK.json`, generated from the tables so it cannot drift.
pub fn manifest(run_seconds: u64, rounds: usize) -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                s.name,
                json::escape(s.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|g| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                g.metric.name,
                g.metric.unit,
                g.metric.better.word(),
                g.bound
            )
        })
        .collect();
    let layers: Vec<String> = END_TO_END_EXACT
        .iter()
        .chain(PER_LAYER)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"--rounds\", \"{rounds}\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summary {
        let mut s = Summary {
            workload: "sync_dma".into(),
            seed: 42,
            seconds: 2.5,
            input_digest: 0xDEAD_BEEF_0123_4567,
            attempted: 1000,
            failed: 0,
            violations: vec!["a \"quoted\" problem".into()],
            stats: BTreeMap::new(),
        };
        s.stats.insert(
            "lat_ns_p50".into(),
            Stat {
                unit: "ns".into(),
                values: vec![2034.0, 1987.5, 2101.25],
                n: 3_000_000,
            },
        );
        s.stats.insert(
            "virt_us_per_op".into(),
            Stat {
                unit: "virt_us".into(),
                values: vec![6.015400000000001; 3],
                n: 9,
            },
        );
        s
    }

    #[test]
    fn result_file_round_trips_through_the_reader() {
        let s = sample();
        let v = json::parse(&s.to_json()).expect("the writer emits valid JSON");
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(String::from);
        assert_eq!(text("workload"), Some(s.workload.clone()));
        assert_eq!(
            text("input_digest"),
            Some(format!("{:016x}", s.input_digest))
        );
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(s.seed));
        assert_eq!(v.get("seconds").and_then(Value::as_f64), Some(s.seconds));
        assert_eq!(
            v.get("attempted").and_then(Value::as_u64),
            Some(s.attempted)
        );
        let said = v.get("violations").and_then(Value::as_array).unwrap();
        assert_eq!(
            said[0].as_str(),
            Some(s.violations[0].as_str()),
            "escapes survive"
        );
        for (name, stat) in &s.stats {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            let values: Vec<f64> = m
                .get("values")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            assert_eq!(values, stat.values, "{name}: every digit survives");
            assert_eq!(m.get("value").and_then(Value::as_f64), s.value(name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(stat.unit.as_str())
            );
            assert_eq!(m.get("n").and_then(Value::as_u64), Some(stat.n));
        }
    }

    #[test]
    fn a_run_reports_one_number_per_metric() {
        let s = sample();
        // Windowed, lower is better: a tenth of the way up from the best.
        assert_eq!(
            s.value("lat_ns_p50"),
            Some(1987.5 + 0.2 * (2034.0 - 1987.5))
        );
        // Per round: the median.
        assert_eq!(s.value("virt_us_per_op"), Some(6.015400000000001));
        assert_eq!(s.value("absent"), None);
    }

    #[test]
    fn virt_must_repeat_where_it_is_exact() {
        let mut s = sample();
        s.check_virt_repeats();
        assert_eq!(s.violations.len(), 1, "identical rounds add no violation");
        s.stats.get_mut("virt_us_per_op").unwrap().values[1] += 0.01;
        s.check_virt_repeats();
        assert_eq!(s.violations.len(), 2);
    }

    #[test]
    fn verdicts() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let same = verdict(Better::Lower, 0.10, &a, &a);
        assert_eq!(same, Verdict::Agree);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(Better::Lower, 0.10, &a, &slower), Verdict::Exceeds);
        assert_eq!(verdict(Better::Higher, 0.10, &a, &slower), Verdict::Agree);
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 10.0).collect();
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn manifest_is_valid_json_within_limits() {
        let text = manifest(12, 4);
        let v = json::parse(&text).expect("valid JSON");
        assert!(text.len() < 64 << 10);
        let count = |k: &str| v.get(k).and_then(Value::as_array).map_or(0, <[Value]>::len);
        assert_eq!(count("workloads"), 6);
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert!((1..=128).contains(&count("per_layer")));
        assert!(count("command") <= 32);
        for w in v.get("workloads").and_then(Value::as_array).unwrap() {
            assert!(w.get("why").and_then(Value::as_str).unwrap().len() <= 200);
        }
    }
}
