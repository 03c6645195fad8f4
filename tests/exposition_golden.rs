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

use aurora_sim_core::SimTime;
use aurora_telemetry::json::Value;
use aurora_telemetry::{BackendMetrics, HealthEventKind, WaitPhase};

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
/// different latency profiles, flushes, retries, target events, a
/// membership change, put/get traffic and a live allocation. Every
/// counter and gauge reads a distinct non-zero value
/// (`golden_load_is_distinctive`), so an exposition row wired to the
/// wrong register cannot still match the golden.
fn build() -> BackendMetrics {
    let m = BackendMetrics::new();
    // Ten posts; three complete, after nine were in flight: 10 posts,
    // 8 polls (5 misses), 3 completions, 7 in flight, peak 9.
    for i in 0..9u64 {
        m.on_post(64 + i);
    }
    for _ in 0..5 {
        m.on_poll(false);
    }
    for _ in 0..3 {
        m.on_poll(true);
    }
    m.on_post(128);
    m.on_complete_on(1, SimTime::from_us(6).as_ps());
    m.on_complete_on(1, SimTime::from_us(8).as_ps());
    m.on_complete_on(2, SimTime::from_us(120).as_ps());
    // Four wire frames carrying eleven messages.
    for msgs in [3, 2, 4, 2] {
        m.on_frame(msgs);
    }
    m.on_flush(SimTime::from_us(2).as_ps());
    m.on_retry_delay(SimTime::from_us(40).as_ps());
    // Target events are recorded once, into the health registry; the
    // event-backed counters are its per-kind counts.
    let events = |kind, n| {
        for _ in 0..n {
            m.health().record(1, kind, 0, 0);
        }
    };
    events(HealthEventKind::Retry, 1);
    events(HealthEventKind::Timeout, 2);
    events(HealthEventKind::Eviction, 6);
    events(HealthEventKind::Reconnect, 12);
    events(HealthEventKind::ProbeMiss, 15);
    events(HealthEventKind::Probe, 16);
    events(HealthEventKind::BatchWiden, 24);
    events(HealthEventKind::BatchNarrow, 25);
    events(HealthEventKind::SloFlush, 26);
    // Cluster-TCP link supervisor: 13 reconnect attempts replayed 14
    // in-flight frames.
    for _ in 0..13 {
        m.on_reconnect_attempt();
    }
    m.on_replay(14);
    // Pool membership: 18 joins, 17 leaves.
    for _ in 0..18 {
        m.on_member_join();
    }
    for _ in 0..17 {
        m.on_member_leave();
    }
    for _ in 0..20 {
        m.on_put(4096);
    }
    for _ in 0..19 {
        m.on_get(512);
    }
    // One 1 MiB buffer stays live; 21 short-lived 1 KiB ones come and
    // go, so the peak is one of them above the live level.
    m.on_alloc(1 << 20);
    for _ in 0..21 {
        m.on_alloc(1 << 10);
        m.on_free(1 << 10);
    }
    // Blocking waits by the backoff phase they ended in: 27 while
    // spinning, 28 after a yield, 29 asleep.
    for (phase, n) in [
        (WaitPhase::Spin, 27),
        (WaitPhase::Yield, 28),
        (WaitPhase::Sleep, 29),
    ] {
        for _ in 0..n {
            m.on_wait(phase);
        }
    }
    // Device-runtime lane registers: two lanes served work, 23 tasks
    // were stolen from a neighbour's deque.
    let lanes = m.lane_stats();
    lanes.on_task(0, 1_000);
    lanes.on_task(0, 500);
    lanes.on_task(1, 2_000);
    for _ in 0..23 {
        lanes.on_steal();
    }
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

/// The load above keeps every counter and gauge distinct and non-zero:
/// that is what lets the goldens catch a swapped register.
#[test]
fn golden_load_is_distinctive() {
    let v = aurora_telemetry::json::parse(&build().snapshot().to_json()).expect("valid JSON");
    let mut seen = std::collections::BTreeMap::new();
    for section in ["counters", "gauges"] {
        let Some(Value::Obj(obj)) = v.get(section) else {
            panic!("no {section} object");
        };
        for (key, val) in obj {
            let n = val.as_f64().expect(key);
            assert!(n != 0.0, "{section}.{key} reads 0");
            if let Some(other) = seen.insert(n.to_bits(), key.clone()) {
                panic!("{section}.{key} and {other} both read {n}");
            }
        }
    }
    assert_eq!(seen.len(), 33, "29 counters and 4 gauges");
}
