//! End-to-end checks of the flight-recorder telemetry: span-tree
//! well-formedness for a real offload through the DMA protocol, Chrome
//! trace-event export round-trip, and the always-on metric registers.

use aurora_telemetry::TraceSession;
use aurora_workloads::kernels::whoami;
use ham::f2f;
use ham_aurora_repro::{dma_offload, NodeId};

#[test]
fn offload_span_tree_is_well_formed() {
    let o = dma_offload(1, aurora_workloads::register_all);
    for _ in 0..10 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }
    let session = TraceSession::start();
    let t0 = o.backend().host_clock().now();
    let fut = o.async_(NodeId(1), f2f!(whoami)).unwrap();
    let id = fut.offload_id();
    fut.get().unwrap();
    let t1 = o.backend().host_clock().now();
    let capture = session.finish();

    assert!(id.0 != 0, "real offloads get non-zero correlation ids");
    let spans = capture.events_for_offload(id.0);
    assert!(!spans.is_empty(), "offload produced no spans");

    // Correlation reaches across the stack: host framework, VH protocol
    // side, VE protocol side (LHM/SHM + user DMA) and the PCIe wire all
    // tag their spans with the same id.
    let mut engines: Vec<&str> = spans.iter().map(|e| e.engine()).collect();
    engines.sort_unstable();
    engines.dedup();
    assert!(
        engines.len() >= 5,
        "expected >= 5 correlated components, got {engines:?}"
    );
    for expected in ["ham", "vh", "udma", "pcie"] {
        assert!(
            engines.contains(&expected),
            "missing {expected}: {engines:?}"
        );
    }

    // Well-formed tree: spans ordered by start, each within the offload's
    // end-to-end window, end >= start.
    let t0 = t0.as_ps();
    let t1 = t1.as_ps();
    for w in spans.windows(2) {
        assert!(w[0].start_ps <= w[1].start_ps, "sorted by start");
    }
    for e in &spans {
        assert!(e.end_ps >= e.start_ps, "negative span: {e:?}");
        assert!(
            e.start_ps >= t0 && e.end_ps <= t1,
            "span outside end-to-end window: {e:?}"
        );
    }

    // The non-overlapping protocol phases account for the entire
    // end-to-end cost; PCIe wire-occupancy spans are sub-spans of the
    // DMA spans that subsume them, so they are excluded from the sum.
    let phase_sum: u64 = spans
        .iter()
        .filter(|e| !e.category.starts_with("pcie."))
        .map(|e| e.duration_ps())
        .sum();
    assert!(
        phase_sum <= t1 - t0,
        "phases sum to {phase_sum} ps > end-to-end {} ps",
        t1 - t0
    );
    o.shutdown();
}

#[test]
fn chrome_export_round_trips_offload_correlation() {
    let o = dma_offload(1, aurora_workloads::register_all);
    for _ in 0..5 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }
    let session = TraceSession::start();
    let fut = o.async_(NodeId(1), f2f!(whoami)).unwrap();
    let id = fut.offload_id();
    fut.get().unwrap();
    let capture = session.finish();

    let doc = capture.to_chrome_json();
    let v = aurora_telemetry::json::parse(&doc).expect("chrome export must be valid JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents array")
        .as_array()
        .expect("traceEvents is an array");

    // Every complete event carries the Chrome fields with the right types.
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    assert!(!complete.is_empty());
    for e in &complete {
        assert!(e.get("name").unwrap().as_str().is_some());
        assert!(e.get("ts").unwrap().as_f64().is_some(), "ts is a number");
        assert!(e.get("dur").unwrap().as_f64().is_some(), "dur is a number");
        assert!(e.get("pid").unwrap().as_u64().is_some(), "pid is a number");
        assert!(e.get("tid").unwrap().as_u64().is_some(), "tid is a number");
    }

    // Our offload's spans survive the export with their correlation id
    // and span >= 5 distinct engine categories.
    let ours: Vec<_> = complete
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("offload_id"))
                .and_then(|v| v.as_u64())
                == Some(id.0)
        })
        .collect();
    assert!(!ours.is_empty(), "offload id lost in export");
    let mut cats: Vec<&str> = ours
        .iter()
        .map(|e| e.get("cat").unwrap().as_str().unwrap())
        .collect();
    cats.sort_unstable();
    cats.dedup();
    assert!(cats.len() >= 5, "expected >= 5 engines, got {cats:?}");

    // Round-trip against the capture: per-event fields match the source
    // span (ts/dur are microseconds of the picosecond original).
    let sample = capture.events_for_offload(id.0)[0];
    let exported = ours
        .iter()
        .find(|e| {
            e.get("name").unwrap().as_str() == Some(sample.category)
                && e.get("ts").unwrap().as_f64() == Some(sample.start_ps as f64 / 1e6)
        })
        .expect("source span present in export");
    assert_eq!(
        exported.get("dur").unwrap().as_f64(),
        Some(sample.duration_ps() as f64 / 1e6)
    );
    assert_eq!(
        exported.get("pid").unwrap().as_u64(),
        Some(sample.node as u64)
    );
    o.shutdown();
}

#[test]
fn metrics_snapshot_counts_table2_operations() {
    let o = dma_offload(1, aurora_workloads::register_all);
    for _ in 0..4 {
        o.sync(NodeId(1), f2f!(whoami)).unwrap();
    }
    let buf = o.allocate::<u64>(NodeId(1), 256).unwrap();
    let data = vec![3u64; 256];
    o.put(&data, buf).unwrap();
    let mut back = vec![0u64; 256];
    o.get(buf, &mut back).unwrap();
    assert_eq!(back, data);

    let s = o.metrics_snapshot();
    assert_eq!(s.posts, 4);
    assert_eq!(s.completions, 4);
    assert!(s.polls >= s.completions, "every completion needs a poll");
    assert_eq!(s.inflight, 0, "all offloads consumed");
    assert_eq!(s.puts, 1);
    assert_eq!(s.gets, 1);
    assert_eq!(s.bytes_put, 256 * 8);
    assert_eq!(s.bytes_get, 256 * 8);
    assert_eq!(s.allocs, 1);
    assert_eq!(s.alloc_bytes_live, 256 * 8);
    assert!(s.latency.count() == 4 && s.latency.mean() > 0.0);

    o.free(buf).unwrap();
    let s = o.metrics_snapshot();
    assert_eq!(s.frees, 1);
    assert_eq!(s.alloc_bytes_live, 0, "frees credit the gauge");
    assert!(s.alloc_bytes_peak >= 256 * 8);

    // The registers are always on — no TraceSession was active here.
    let rendered = s.render();
    assert!(rendered.contains("posts"));
    o.shutdown();
}

/// A wait over a kernel that is still running after the first sweep
/// counts that fruitless poll: `wait_all` settles through the same
/// counted poll as `Future::get`, so `retries` rises. The kernel runs
/// until the helper thread has seen the miss (or gives up after ten
/// seconds, and the assert fails instead of the test hanging).
#[test]
fn wait_all_counts_a_poll_miss_on_a_running_kernel() {
    use ham_aurora_repro::local_offload;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    static RELEASE: AtomicBool = AtomicBool::new(false);
    ham::ham_kernel! {
        pub fn held_until_released(_ctx) -> u64 {
            while !RELEASE.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            7
        }
    }

    let o = local_offload(1, |b| {
        b.register::<held_until_released>();
    });
    let before = o.metrics_snapshot().retries;
    let fut = o.async_(NodeId(1), f2f!(held_until_released)).unwrap();
    let got = std::thread::scope(|s| {
        s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while o.metrics_snapshot().retries == before && Instant::now() < deadline {
                std::thread::yield_now();
            }
            RELEASE.store(true, Ordering::SeqCst);
        });
        o.wait_all(vec![fut])
    });
    assert_eq!(got.into_iter().map(Result::unwrap).collect::<Vec<_>>(), [7]);
    assert!(
        o.metrics_snapshot().retries > before,
        "a pending future after a sweep is a poll miss"
    );
    o.shutdown();
}
