//! Golden-file test for the metrics exposition surface.
//!
//! Builds a `BackendMetrics` register set by hand (fixed counter bumps,
//! fixed virtual-time latencies — no runtime, no threads, nothing
//! racy), renders both exposition formats, and compares them byte for
//! byte against `tests/golden/metrics.{prom,json}`. The formats are a
//! public contract: a scrape pipeline parses them, so an accidental
//! rename or reordering must fail loudly here, not in a dashboard.
//!
//! To bless an intentional format change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test exposition_golden
//! ```

use aurora_sim_core::{BackendMetrics, HealthEventKind, SimTime};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}; run with UPDATE_GOLDEN=1 to create", name));
    assert_eq!(
        rendered, want,
        "{name} drifted from the golden file; if the change is intentional, \
         re-bless with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// A fixed, fully deterministic register load: two targets with
/// different latency profiles, one flush, one retry, one eviction, a
/// put/get pair and a live allocation.
fn build() -> BackendMetrics {
    let m = BackendMetrics::new();
    for i in 0..4u64 {
        m.on_post(64 + i);
    }
    m.on_frame(3);
    m.on_poll(true);
    m.on_poll(false);
    m.on_poll(false);
    m.on_complete_on(1, SimTime::from_us(6));
    m.on_complete_on(1, SimTime::from_us(8));
    m.on_complete_on(2, SimTime::from_us(120));
    m.on_flush(SimTime::from_us(2));
    // Target events are recorded once, into the health registry; the
    // event-backed counters are its per-kind counts. Adaptive batching
    // controller: one widen, two narrows, one flush forced by the
    // latency-SLO age bound; then one re-send, one timeout and one
    // eviction.
    let event = |kind| m.health().record(1, kind, 0, 0);
    event(HealthEventKind::BatchWiden);
    event(HealthEventKind::BatchNarrow);
    event(HealthEventKind::BatchNarrow);
    event(HealthEventKind::SloFlush);
    event(HealthEventKind::Retry);
    m.on_retry_delay(SimTime::from_us(40));
    event(HealthEventKind::Timeout);
    event(HealthEventKind::Eviction);
    // Cluster-TCP link supervisor: two reconnect attempts, one of
    // which healed the link and replayed five in-flight frames.
    m.on_reconnect_attempt();
    m.on_reconnect_attempt();
    event(HealthEventKind::Reconnect);
    m.on_replay(5);
    m.on_put(4096);
    m.on_get(512);
    m.on_alloc(1, 0x1000, 1 << 20);
    m.on_alloc(1, 0x2000, 1 << 10);
    m.on_free(1, 0x2000);
    // Device-runtime lane registers: two lanes served work, one task
    // was stolen from a neighbour's deque.
    let lanes = m.lane_stats();
    lanes.on_task(0, 1_000);
    lanes.on_task(0, 500);
    lanes.on_task(1, 2_000);
    lanes.on_steal();
    m
}

#[test]
fn prometheus_text_matches_golden() {
    check("metrics.prom", &build().snapshot().to_prometheus_text());
}

#[test]
fn json_matches_golden() {
    let json = build().snapshot().to_json();
    // Cheap structural sanity on top of the byte comparison: the
    // exposition must stay parseable JSON whatever the golden says.
    let v = aurora_telemetry::json::parse(&json).expect("valid JSON");
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("completions"))
            .and_then(|c| c.as_u64()),
        Some(3)
    );
    check("metrics.json", &json);
}
