//! Trace live offloads through the DMA protocol and render their
//! virtual-time timelines — the *measured* counterpart of the §V-A cost
//! breakdown (`repro_breakdown` computes the same table from the
//! calibration constants).
//!
//! Besides the text timeline this harness exports the capture as
//! `repro_trace.trace.json` (Chrome trace-event format — load it in
//! Perfetto / `chrome://tracing` for one track per simulated engine) and
//! `repro_trace.jsonl` (one event per line for ad-hoc tooling), and
//! prints the backend's metric registers. Files land in `target/repro/`
//! by default; override with `--out-dir <dir>`.

use aurora_bench::harness::{benchmark_machine, BenchConfig};
use aurora_telemetry::TraceSession;
use aurora_workloads::kernels::{register_all, whoami};
use ham::f2f;
use ham_backend_dma::DmaBackend;
use ham_backend_veo::ProtocolConfig;
use ham_offload::types::NodeId;
use ham_offload::Offload;

/// `--out-dir <dir>` (default `target/repro/`): where the trace files go.
fn out_dir() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    let mut dir = std::path::PathBuf::from("target/repro");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => {
                dir = args.next().expect("--out-dir needs a value").into();
            }
            other => panic!("unknown argument {other:?} (supported: --out-dir <dir>)"),
        }
    }
    dir
}

fn main() {
    let out = out_dir();
    let cfg = BenchConfig::quick();
    let o = Offload::new(DmaBackend::spawn(
        benchmark_machine(&cfg),
        0,
        &[0],
        ProtocolConfig::default(),
        register_all,
    ));
    // Reach steady state so the traced offload is representative.
    for _ in 0..10 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }

    let session = TraceSession::start();
    let t0 = o.backend().host_clock().now();
    o.sync(NodeId(1), f2f!(whoami)).unwrap();
    let t1 = o.backend().host_clock().now();
    // A bulk round trip so the capture also shows the put/get path.
    let buf = o.allocate::<u64>(NodeId(1), 512).unwrap();
    let data = vec![7u64; 512];
    o.put(&data, buf).unwrap();
    let mut back = vec![0u64; 512];
    o.get(buf, &mut back).unwrap();
    assert_eq!(back, data);
    o.free(buf).unwrap();
    let capture = session.finish();

    println!("## Measured timeline of one empty offload (DMA protocol)\n");
    let mut attributed = capture.clone();
    attributed.events.retain(|e| e.offload != 0);
    println!("{}", attributed.render());
    println!(
        "end-to-end (host clock): {} — paper Fig. 9: 6.1 us",
        t1 - t0
    );
    let traced: f64 = attributed
        .events
        .iter()
        .map(|e| e.duration_ps() as f64 / 1e6)
        .sum();
    println!("sum of traced component durations: {traced:.3} us");
    println!(
        "correlated components: {:?}",
        capture
            .offload_ids()
            .first()
            .map(|&id| {
                let mut engines: Vec<_> = capture
                    .events_for_offload(id)
                    .iter()
                    .map(|e| e.engine())
                    .collect();
                engines.sort_unstable();
                engines.dedup();
                engines
            })
            .unwrap_or_default()
    );

    println!("\n## Backend metric registers\n");
    println!("{}", o.metrics_snapshot().render());

    std::fs::create_dir_all(&out).expect("create out dir");
    let chrome = out.join("repro_trace.trace.json");
    let jsonl = out.join("repro_trace.jsonl");
    std::fs::write(&chrome, capture.to_chrome_json()).expect("write chrome trace");
    std::fs::write(&jsonl, capture.to_jsonl()).expect("write jsonl");
    println!(
        "wrote {} ({} spans) — load in Perfetto / chrome://tracing",
        chrome.display(),
        capture.len()
    );
    println!("wrote {}", jsonl.display());
    o.shutdown();
}
