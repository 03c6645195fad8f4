//! `hotpath` — the repo's benchmark. Six workloads on two clocks (wall =
//! `Instant` on the host thread, virt = the backend's `host_clock()`),
//! per-layer probes, and a traced run. See `README.md`.
//!
//! ```text
//! hotpath --workload W --seed N --seconds T --trace 0|1   one driver run
//! hotpath all [--smoke]                                    everything, by name
//! hotpath aa [--pairs N] [--a EXE --b EXE]                 two sets, verdicts
//! hotpath manifest                                         BENCHMARK.json
//! ```
//! `round`, `traced` and `probe` are the child-process entry points.

mod alloc;
mod gen;
mod metrics;
mod probes;
mod procstat;
mod report;
mod round;
mod spans;
mod stats;
mod workloads;

use report::Opts;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, UNIX_EPOCH};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// What `BENCHMARK.json` records: seconds measured per run, and how
/// many fresh child processes they are split over.
const RUN_SECONDS: u64 = 16;
const ROUNDS: usize = 4;

struct Cli {
    /// Leading words that are not flags: the mode and its operand.
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                // `--smoke` is the only flag without a value.
                Some("smoke") => drop(cli.flags.insert("smoke".into(), String::new())),
                Some(flag) => {
                    let v = args.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.insert(flag.into(), v);
                }
                None => cli.words.push(a),
            }
        }
        Ok(cli)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        workloads::spec(name)
            .map(|s| s.name)
            .ok_or(format!("unknown workload {name:?}"))
    }
}

fn main_inner() -> Result<bool, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    let smoke = cli.flags.contains_key("smoke");
    let opts = Opts {
        seed: cli.get("seed", 1)?,
        seconds: cli.get("seconds", if smoke { 0.3 } else { RUN_SECONDS as f64 })?,
        rounds: cli.get("rounds", if smoke { 1 } else { ROUNDS })?,
        out: cli.get("out", PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"))?,
        smoke,
    };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 || opts.rounds == 0 {
        return Err("--seconds and --rounds must be positive".into());
    }
    let io = |e: std::io::Error| e.to_string();
    let mode = cli.words.first().map_or("run", String::as_str);
    match mode {
        "run" => {
            let trace = match cli.get("trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace is 0 or 1, not {other}")),
            };
            report::run(cli.workload()?, &opts, trace).map_err(io)
        }
        "all" => report::all(&opts).map_err(io),
        "aa" => {
            let me = std::env::current_exe().map_err(io)?;
            let a = cli.get("a", me.clone())?;
            let b = cli.get("b", me)?;
            report::aa(&opts, cli.get("pairs", 10)?, &a, &b).map_err(io)
        }
        "manifest" => {
            print!("{}", report::manifest(RUN_SECONDS, ROUNDS));
            Ok(true)
        }
        "round" => {
            let spawned = cli
                .flags
                .get("spawned-at-ns")
                .and_then(|ns| ns.parse().ok());
            let spawned = spawned.map(|ns: u64| UNIX_EPOCH + Duration::from_nanos(ns));
            let o = round::timed(cli.workload()?, opts.seed, opts.seconds, spawned);
            o.print();
            Ok(o.correct())
        }
        "traced" => {
            let o = round::traced(cli.workload()?, opts.seed, &opts.out, smoke).map_err(io)?;
            o.print();
            Ok(o.correct())
        }
        "probe" => {
            let group = cli.words.get(1).ok_or("probe needs a group")?;
            let o = probes::run(group, opts.seconds).ok_or(format!(
                "unknown probe group {group:?}; have {:?}",
                probes::GROUPS
            ))?;
            o.print();
            Ok(o.correct())
        }
        other => Err(format!("unknown mode {other:?}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hotpath: {e}");
            ExitCode::from(2)
        }
    }
}
