//! Schema checks on the real binary: short runs, no timing claims.

use aurora_telemetry::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

const WORKLOADS: [&str; 6] = [
    "sync_dma",
    "sync_tcp",
    "pipe_local",
    "batch_veo",
    "pool_tcp",
    "bulk_dma",
];

fn hotpath(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotpath"))
        .args(args)
        .output()
        .expect("run hotpath")
}

/// A scratch directory per test, inside cargo's target directory.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every metric under `key` in `BENCHMARK.json`.
fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    let list = manifest.get(key).and_then(Value::as_array).expect(key);
    let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
    list.iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[test]
fn committed_manifest_is_what_the_tables_say() {
    let out = hotpath(&["manifest"]);
    assert!(out.status.success());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed,
        "regenerate with `hotpath manifest > BENCHMARK.json`"
    );
}

#[test]
fn all_smoke_prints_every_metric_of_every_workload() {
    let dir = scratch("all_smoke");
    let started = Instant::now();
    let out = hotpath(&["all", "--smoke", "--out", dir.to_str().unwrap()]);
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "hotpath all --smoke failed:\n{stdout}"
    );
    assert!(took.as_secs() < 20, "smoke run took {took:?}");

    // workload -> name -> (unit, value, n)
    let mut seen: BTreeMap<&str, BTreeMap<&str, (&str, f64, u64)>> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 5, "row is `workload name unit value n`: {line:?}");
        let value: f64 = f[3].parse().expect("value");
        assert!(value.is_finite(), "{line:?}");
        seen.entry(f[0])
            .or_default()
            .insert(f[1], (f[2], value, f[4].parse().expect("n")));
    }
    let m = manifest();
    let mut e2e = declared(&m, "end_to_end");
    e2e.push(("virt_us_per_op".into(), "virt_us".into()));
    e2e.push(("failed_share".into(), "ratio".into()));
    for w in WORKLOADS {
        let rows = seen.get(w).unwrap_or_else(|| panic!("no rows for {w}"));
        for (name, unit) in &e2e {
            let (got_unit, value, n) = rows
                .get(name.as_str())
                .unwrap_or_else(|| panic!("{w} lacks {name}"));
            assert_eq!(got_unit, unit, "{w} {name}");
            assert!(*n >= 1);
            assert!(
                name == "failed_share" || *value > 0.0,
                "{w} {name} = {value}"
            );
        }
        assert_eq!(rows["failed_share"].1, 0.0, "{w}");
        assert!(rows.contains_key("trace.overhead_share"), "{w}");
        assert_eq!(
            rows.contains_key("sched.placement_imbalance"),
            w == "pool_tcp",
            "sched.* only on pool_tcp"
        );
        let spans =
            std::fs::read_to_string(dir.join(format!("trace-{w}.json"))).expect("span file");
        let spans = json::parse(&spans).expect("span file is JSON");
        assert!(!spans
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans")
            .is_empty());
        let result =
            std::fs::read_to_string(dir.join(format!("result-{w}.json"))).expect("result file");
        let result = json::parse(&result).expect("result file is JSON");
        assert_eq!(
            result
                .get("input_digest")
                .and_then(Value::as_str)
                .map(str::len),
            Some(16)
        );
    }
    // Isolation, in the numbers.
    assert_eq!(seen["pipe_local"]["chan.frames_per_op"].1, 1.0);
    assert!(seen["batch_veo"]["chan.msgs_per_frame"].1 >= 8.0);
    assert_eq!(seen["bulk_dma"]["chan.frames_per_op"].1, 0.0);
    assert_eq!(
        format!("{:.4}", seen["sync_dma"]["virt_us_per_op"].1),
        "6.0154"
    );
    // Every declared per-layer metric shows up somewhere, with its unit.
    let printed: BTreeSet<(&str, &str)> = seen
        .values()
        .flat_map(|rows| rows.iter().map(|(name, (unit, _, _))| (*name, *unit)))
        .collect();
    for (name, unit) in declared(&m, "per_layer") {
        // Span categories only show up when the model emits them; the
        // catch-all bucket is empty while every category is named.
        if name != "virt.other.us_per_op" {
            assert!(
                printed.contains(&(name.as_str(), unit.as_str())),
                "nothing printed {name} [{unit}]"
            );
        }
    }
}

/// The last stdout line of a driver-mode run.
fn driver_line(workload: &str, seed: &str, trace: &str, dir: &Path) -> Value {
    let out = hotpath(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.4",
        "--trace",
        trace,
        "--rounds",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{workload} --trace {trace} failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Obj(map) => map.keys().cloned().collect(),
        _ => panic!("not an object: {v:?}"),
    }
}

#[test]
fn driver_lines_follow_the_contract() {
    let dir = scratch("driver");
    let m = manifest();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = driver_line("pipe_local", "5", trace, &dir);
        assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = line.get("metrics").unwrap();
        let mut want: Vec<String> = declared(&m, key).into_iter().map(|(n, _)| n).collect();
        want.sort();
        assert_eq!(
            keys(metrics),
            want,
            "--trace {trace} prints exactly the {key} metrics"
        );
        for (name, unit) in declared(&m, key) {
            let entry = metrics.get(&name).unwrap();
            assert_eq!(keys(entry), ["unit", "value"]);
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
            assert!(entry
                .get("value")
                .and_then(Value::as_f64)
                .unwrap()
                .is_finite());
        }
    }
}

#[test]
fn one_seed_one_input() {
    let dir = scratch("digest");
    let digest = |seed: &str| {
        driver_line("pool_tcp", seed, "0", &dir);
        let text = std::fs::read_to_string(dir.join("result-pool_tcp.json")).unwrap();
        let v = json::parse(&text).unwrap();
        v.get("input_digest")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    let (a, b, c) = (digest("11"), digest("11"), digest("12"));
    assert_eq!(a, b, "same seed, same inputs");
    assert_ne!(a, c, "another seed, other inputs");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "sync_dma"],
        &["frobnicate"],
    ] {
        let out = hotpath(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
