//! Small-message batching breakdown: per-offload cost and wire-frame
//! count at pipeline depths 1 / 8 / 64 on the DMA protocol, with the
//! channel core's message coalescing off (the default) and on
//! (`BatchConfig::up_to(16)`). Source of the EXPERIMENTS.md batching
//! table; the depth-64 bounds are asserted by
//! `tests/batching.rs::dma_depth64_batching_cuts_frames_at_least_3x`.

use aurora_bench::harness::{render_table, Row};
use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_offload::chan::BatchConfig;
use ham_offload::types::NodeId;
use ham_offload::Offload;
use veos_sim::{AuroraMachine, MachineConfig};

fn spawn(batch: BatchConfig) -> Offload {
    let machine = AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        },
    );
    Offload::new(DmaBackend::spawn(
        machine,
        0,
        &[0],
        ProtocolConfig {
            recv_slots: 64,
            send_slots: 64,
            ..Default::default()
        }
        .with_batch(batch),
        aurora_workloads::register_all,
    ))
}

/// One depth-`n` `async_` + `wait_all` wave; returns (µs/offload, frames).
fn wave(o: &Offload, n: u32) -> (f64, u64) {
    let t = NodeId(1);
    let before = o.metrics_snapshot();
    let t0 = o.backend().host_clock().now();
    let futures: Vec<_> = (0..n)
        .map(|_| o.async_(t, f2f!(whoami)).expect("post"))
        .collect();
    for r in o.wait_all(futures) {
        assert_eq!(r.expect("offload"), 1);
    }
    let elapsed = o.backend().host_clock().now() - t0;
    let after = o.metrics_snapshot();
    (
        elapsed.as_us_f64() / n as f64,
        after.frames_sent - before.frames_sent,
    )
}

fn main() {
    let off = spawn(BatchConfig::default());
    let on = spawn(BatchConfig::up_to(16));
    for o in [&off, &on] {
        for _ in 0..10 {
            o.sync(NodeId(1), f2f!(whoami)).expect("warmup");
        }
    }
    let mut rows = Vec::new();
    for depth in [1u32, 8, 64] {
        for (label, o) in [("batching off", &off), ("batching on (up_to 16)", &on)] {
            let (us, frames) = wave(o, depth);
            rows.push(Row {
                label: format!("{label}, depth {depth}"),
                x: frames,
                value: us,
                unit: "us/offload",
                paper: None,
            });
        }
    }
    off.shutdown();
    on.shutdown();
    print!(
        "{}",
        render_table(
            "Small-message batching, DMA protocol (x = wire frames sent)",
            &rows
        )
    );
}
