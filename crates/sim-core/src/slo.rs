//! Service-level objectives over the metric and health registers.
//!
//! An [`SloSpec`] states what "healthy" means for an offload run —
//! completion latency percentiles, how fast failover must complete,
//! how many pending entries may leak — and
//! [`SloSpec::evaluate`] checks a [`MetricsSnapshot`] plus a health
//! event log against it, producing an [`SloReport`] the soak harness
//! (`examples/soak.rs`) turns into an exit code. All times are virtual.

use crate::metrics::MetricsSnapshot;
use crate::time::SimTime;
use aurora_telemetry::{HealthEvent, HealthEventKind};

/// What an offload run must achieve to pass.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Median offload completion latency bound.
    pub p50_completion: SimTime,
    /// 99th-percentile offload completion latency bound.
    pub p99_completion: SimTime,
    /// Worst allowed fault → failover delay: from a `FaultInjected` or
    /// `Eviction` event to the `Failover` event that re-homed the
    /// stranded work.
    pub max_failover: SimTime,
    /// In-flight frame records left in a channel after the run drained.
    pub max_leaked_pending: usize,
}

impl Default for SloSpec {
    /// Generous defaults for the simulated platform: the paper's DMA
    /// round trip is ~6 µs, so 1 ms median / 50 ms p99 only catch
    /// pathologies (retry storms, a wedged target), not normal jitter.
    fn default() -> Self {
        SloSpec {
            p50_completion: SimTime::from_ms(1),
            p99_completion: SimTime::from_ms(50),
            max_failover: SimTime::from_ms(1000),
            max_leaked_pending: 0,
        }
    }
}

impl SloSpec {
    /// Check `snapshot` + `events` + `leaked` against the spec.
    ///
    /// Failover time is measured per `Failover` event as the distance
    /// to the most recent preceding `FaultInjected` or `Eviction` on
    /// any node (the fault that stranded the work); the report carries
    /// the worst one.
    pub fn evaluate(
        &self,
        snapshot: &MetricsSnapshot,
        events: &[HealthEvent],
        leaked: usize,
    ) -> SloReport {
        let mut violations = Vec::new();

        let p50 = snapshot.latency_hist.percentile(50.0);
        let p99 = snapshot.latency_hist.percentile(99.0);
        if let Some(p50) = p50 {
            if p50 > self.p50_completion {
                violations.push(format!(
                    "p50 completion latency {p50} exceeds {}",
                    self.p50_completion
                ));
            }
        }
        if let Some(p99) = p99 {
            if p99 > self.p99_completion {
                violations.push(format!(
                    "p99 completion latency {p99} exceeds {}",
                    self.p99_completion
                ));
            }
        }

        let mut worst_failover = None;
        let mut last_fault: Option<u64> = None;
        for e in events {
            match e.kind {
                HealthEventKind::FaultInjected | HealthEventKind::Eviction => {
                    last_fault = Some(e.at_ps);
                }
                HealthEventKind::Failover => {
                    if let Some(fault_at) = last_fault {
                        let d = SimTime::from_ps(e.at_ps.saturating_sub(fault_at));
                        if worst_failover.is_none_or(|w| d > w) {
                            worst_failover = Some(d);
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(w) = worst_failover {
            if w > self.max_failover {
                violations.push(format!("worst failover {w} exceeds {}", self.max_failover));
            }
        }

        if leaked > self.max_leaked_pending {
            violations.push(format!(
                "{leaked} leaked pending entries exceed {}",
                self.max_leaked_pending
            ));
        }

        SloReport {
            p50_completion: p50,
            p99_completion: p99,
            worst_failover,
            leaked,
            violations,
        }
    }
}

/// Outcome of one [`SloSpec::evaluate`].
#[derive(Clone, Debug)]
pub struct SloReport {
    /// Measured median completion latency (bucket floor), if any
    /// completions happened.
    pub p50_completion: Option<SimTime>,
    /// Measured p99 completion latency (bucket floor).
    pub p99_completion: Option<SimTime>,
    /// Worst fault → failover delay observed, if any failover happened.
    pub worst_failover: Option<SimTime>,
    /// Leaked pending entries.
    pub leaked: usize,
    /// Human-readable description of every violated objective; empty
    /// means the run passed.
    pub violations: Vec<String>,
}

impl SloReport {
    /// Did every objective hold?
    pub(crate) fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// Text rendering for soak-run output.
    pub fn render(&self) -> String {
        let fmt = |t: Option<SimTime>| t.map_or("-".to_string(), |t| t.to_string());
        let mut out = format!(
            "p50 {}  p99 {}  worst-failover {}  leaked {}\n",
            fmt(self.p50_completion),
            fmt(self.p99_completion),
            fmt(self.worst_failover),
            self.leaked
        );
        if self.pass() {
            out.push_str("SLO: pass\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("SLO VIOLATION: {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BackendMetrics;
    use aurora_telemetry::HealthRegistry;

    fn snap_with_latencies(lat_us: &[u64]) -> MetricsSnapshot {
        let m = BackendMetrics::new();
        for &us in lat_us {
            m.on_post(8);
            m.on_complete_on(1, SimTime::from_us(us));
        }
        m.snapshot()
    }

    #[test]
    fn clean_run_passes_defaults() {
        let snap = snap_with_latencies(&[5, 6, 7, 8]);
        let report = SloSpec::default().evaluate(&snap, &[], 0);
        assert!(report.pass(), "{:?}", report.violations);
        assert!(report.p50_completion.is_some());
        assert!(report.render().contains("SLO: pass"));
    }

    #[test]
    fn slow_tail_violates_p99() {
        // Nearest-rank p99 over 100 samples is the 99th: a lone
        // straggler sits exactly past the rank, so use two (a 2% tail)
        // to land one at the rank itself.
        let mut lats = vec![5u64; 98];
        lats.push(200_000); // 200 ms stragglers
        lats.push(200_000);
        let snap = snap_with_latencies(&lats);
        let report = SloSpec::default().evaluate(&snap, &[], 0);
        assert!(!report.pass());
        assert!(
            report.violations[0].contains("p99"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn leaked_pending_violates() {
        let snap = snap_with_latencies(&[5]);
        let report = SloSpec::default().evaluate(&snap, &[], 2);
        assert!(!report.pass());
        assert!(report.render().contains("leaked"));
    }

    #[test]
    fn failover_distance_measured_from_latest_fault() {
        let r = HealthRegistry::new();
        let us = |n: u64| SimTime::from_us(n).as_ps();
        r.record(1, HealthEventKind::FaultInjected, 0, us(100));
        r.record(1, HealthEventKind::Eviction, 0, us(150));
        r.record(2, HealthEventKind::Failover, 7, us(250)); // 100 µs after the eviction
        let snap = snap_with_latencies(&[5]);
        let tight = SloSpec {
            max_failover: SimTime::from_us(50),
            ..Default::default()
        };
        let report = tight.evaluate(&snap, &r.events(), 0);
        assert_eq!(report.worst_failover, Some(SimTime::from_us(100)));
        assert!(!report.pass());
        let loose = SloSpec::default().evaluate(&snap, &r.events(), 0);
        assert!(loose.pass(), "{:?}", loose.violations);
    }
}
