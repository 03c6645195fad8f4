//! Wall-clock cost of the always-on telemetry on the hot path.
//!
//! Three layers are measured:
//!
//! * the flight recorder — every costed hardware operation calls
//!   `trace::record`; with no session active that must stay a single
//!   relaxed atomic load, so disabled telemetry is free;
//! * the metric registers — every offload post bumps the post counter
//!   and payload sum, and every completion records into its target's
//!   register only (one log-linear bucket, the latency sum, the EWMA
//!   store), unconditionally; no lock is taken. The acceptance bar is
//!   that this always-on histogram path costs <5% of the warm offload
//!   cycle it rides on;
//! * the adaptive batching controller — every flush feeds its
//!   occupancy and latency into the channel's tick window (the largest
//!   flush latency is one `max` under the channel lock; no histogram is
//!   read) and every sweep checks the staged-age SLO; arming the
//!   self-tuning dataplane must also stay <5% of the offload cycle.
//!
//! The three `assert!`s at the end are the gate: `scripts/check.sh` runs
//! this bench and relies on its exit status. The ratios' denominator is
//! the warm DMA `sync` cycle, so the bars tighten whenever the runtime
//! gets faster (see EXPERIMENTS.md, "One measurement system"). It is
//! timed in rounds of at least 10 ms (100 ms without `--smoke`),
//! interleaved with the numerators' rounds, and each side of a ratio is
//! its best of three rounds.
//!
//! Run with: `cargo bench -p aurora-bench --bench telemetry_overhead`
//! (`-- --smoke` for the small CI configuration).

use aurora_sim_core::{trace, SimTime};
use aurora_telemetry::{BackendMetrics, TraceSession};
use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_offload::chan::{BatchConfig, ChannelCore};
use ham_offload::types::NodeId;
use ham_offload::Offload;
use std::hint::black_box;
use std::time::{Duration, Instant};
use veos_sim::{AuroraMachine, MachineConfig};

/// Rounds per measured path; each path reports its best round.
const ROUNDS: usize = 3;

/// Wall-clock nanoseconds per call of `f` over one round of `n` calls.
fn round_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Best-of-[`ROUNDS`] [`round_ns`].
fn ns_per_op(n: u64, mut f: impl FnMut(u64)) -> f64 {
    (0..ROUNDS).fold(f64::INFINITY, |best, _| best.min(round_ns(n, &mut f)))
}

/// Wall-clock nanoseconds per warm DMA `sync(whoami)` over one round of
/// at least `min` wall time. Each round gets its own backend, so the
/// device's polling threads exist only while the cycle is measured.
fn cycle_round_ns(min: Duration) -> f64 {
    let o = Offload::new(DmaBackend::spawn(
        AuroraMachine::small(
            1,
            MachineConfig {
                hbm_bytes: 16 << 20,
                vh_bytes: 32 << 20,
                ..Default::default()
            },
        ),
        0,
        &[0],
        ProtocolConfig::default(),
        aurora_workloads::register_all,
    ));
    let sync = || assert_eq!(o.sync(NodeId(1), f2f!(whoami)).expect("offload"), 1);
    for _ in 0..100 {
        sync();
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < min {
        for _ in 0..64 {
            sync();
        }
        calls += 64;
    }
    let ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    o.shutdown();
    ns
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 200_000 } else { 2_000_000 };
    // Long enough that timer and scheduler noise is a small share of
    // every cycle round (a warm DMA cycle is a few µs).
    let cycle_min = Duration::from_millis(if smoke { 10 } else { 100 });

    // --- flight recorder ------------------------------------------------
    let t0 = SimTime::from_ns(10);
    let t1 = SimTime::from_ns(20);
    let disabled = ns_per_op(n, |_| {
        trace::record(black_box("bench.disabled"), 64, t0, t1)
    });
    let session = TraceSession::start();
    let enabled = ns_per_op(n, |_| trace::record(black_box("bench.enabled"), 64, t0, t1));
    drop(session.finish());

    // --- metric registers (the always-on histogram path) ----------------
    // What the engine adds per completed offload: the post record (post
    // counter, payload sum and extremes, in-flight peak check), the
    // completion record (the target's bucket, latency sum, extremes and
    // EWMA), and the EWMA read the weighted scheduler makes.
    let m = BackendMetrics::new();
    for i in 0..10_000u64 {
        m.on_complete_on((i % 4) as u16 + 1, SimTime::from_us(5).as_ps());
    }
    let hist_round = || {
        round_ns(n, |i| {
            m.on_post(black_box(64));
            m.on_complete_on((i % 4) as u16 + 1, SimTime::from_us(5 + i % 7).as_ps());
            black_box(m.latency_ewma((i % 4) as u16 + 1));
        })
    };

    // --- adaptive controller (per-flush tick + per-sweep SLO check) -----
    // What arming the self-tuning dataplane adds to the hot path: the
    // flush accounting under the channel lock (occupancy and the
    // window's largest flush latency; every tick window, one power-of-
    // two floor and one decision) plus the sweep-side staged-age check.
    let chan =
        ChannelCore::bounded(64, 64, 4096).with_batching(BatchConfig::adaptive_up_to(64, 200));
    let ctrl_round = || {
        round_ns(n, |i| {
            black_box(chan.adaptive_tick(
                black_box(32 + (i % 8) as usize),
                black_box(SimTime::from_us(2 + i % 5).as_ps()),
            ));
            black_box(chan.slo_flush_due(SimTime::from_us(i)));
        })
    };

    // --- the offload cycle the two paths ride on ------------------------
    // The ratios' numerators and denominator are measured in interleaved
    // rounds, so a drift of the box moves both sides of a ratio alike.
    let (mut hist, mut ctrl, mut cycle) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        hist = hist.min(hist_round());
        ctrl = ctrl.min(ctrl_round());
        cycle = cycle.min(cycle_round_ns(cycle_min));
    }

    let overhead_pct = 100.0 * hist / cycle;
    let ctrl_pct = 100.0 * ctrl / cycle;

    println!("## Telemetry overhead (wall clock, best of 3)\n");
    println!("{:<44} {:>10}", "path", "ns/op");
    println!("{:<44} {:>10.2}", "trace::record, no session", disabled);
    println!("{:<44} {:>10.2}", "trace::record, active session", enabled);
    println!(
        "{:<44} {:>10.2}",
        "metric record (post+complete+ewma)", hist
    );
    println!(
        "{:<44} {:>10.2}",
        "adaptive tick + SLO check (per flush)", ctrl
    );
    println!("{:<44} {:>10.2}", "warm sync offload cycle (DMA)", cycle);
    println!("\nalways-on histogram path: {overhead_pct:.2}% of the warm offload cycle (bar: <5%)");
    println!("adaptive controller path: {ctrl_pct:.2}% of the warm offload cycle (bar: <5%)");

    assert!(
        disabled < 50.0,
        "disabled trace::record must stay ~an atomic load: {disabled:.2} ns"
    );
    assert!(
        overhead_pct < 5.0,
        "always-on histogram path must cost <5% of the offload cycle: \
         {hist:.2} ns vs {cycle:.2} ns ({overhead_pct:.2}%)"
    );
    assert!(
        ctrl_pct < 5.0,
        "adaptive controller must cost <5% of the offload cycle: \
         {ctrl:.2} ns vs {cycle:.2} ns ({ctrl_pct:.2}%)"
    );
    println!("ok");
}
