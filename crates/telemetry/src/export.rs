//! Trace containers and exporters.
//!
//! A [`Trace`] is the result of a finished
//! [`TraceSession`](crate::TraceSession). Three exports cover the three
//! consumers:
//!
//! * [`Trace::render`] — aligned text timeline for terminals and logs;
//! * [`Trace::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, one process per
//!   simulated node and one track per engine;
//! * [`Trace::to_jsonl`] — one JSON object per span, for ad-hoc analysis
//!   with line-oriented tools.

use crate::json::escape;
use crate::{Event, NODE_UNKNOWN};

/// A finished recording: spans sorted by `(start, end)`.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The captured spans.
    pub events: Vec<Event>,
}

/// Format picoseconds with an auto-selected unit: `0s`, `750ps`,
/// `6.015us`, `1.250s`. `SimTime`'s `Display` is this function.
pub fn fmt_ps(ps: u64) -> String {
    if ps == 0 {
        "0s".into()
    } else if ps < 1_000 {
        format!("{ps}ps")
    } else if ps < 1_000_000 {
        format!("{:.3}ns", ps as f64 / 1e3)
    } else if ps < 1_000_000_000 {
        format!("{:.3}us", ps as f64 / 1e6)
    } else if ps < 1_000_000_000_000 {
        format!("{:.3}ms", ps as f64 / 1e9)
    } else {
        format!("{:.3}s", ps as f64 / 1e12)
    }
}

impl Trace {
    /// Number of captured spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans attributed to offload `id`, in timeline order.
    pub fn events_for_offload(&self, id: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.offload == id).collect()
    }

    /// Distinct non-zero offload ids present, ascending.
    pub fn offload_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .events
            .iter()
            .map(|e| e.offload)
            .filter(|&id| id != 0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Distinct engines present, ascending by name. The position of an
    /// engine in this list is its `tid` in the Chrome export.
    pub(crate) fn engines(&self) -> Vec<&'static str> {
        let mut engines: Vec<&'static str> = self.events.iter().map(Event::engine).collect();
        engines.sort_unstable();
        engines.dedup();
        engines
    }

    /// Distinct nodes present, ascending ([`NODE_UNKNOWN`] last if any).
    pub(crate) fn nodes(&self) -> Vec<u16> {
        let mut nodes: Vec<u16> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Aligned text timeline with attribution columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>8} {:>6} {:>10} {:>14} {:>14} {:>12}\n",
            "component", "offload", "node", "bytes", "start", "end", "duration"
        ));
        for e in &self.events {
            let offload = if e.offload == 0 {
                "-".to_string()
            } else {
                format!("of{}", e.offload)
            };
            let node = if e.node == NODE_UNKNOWN {
                "-".to_string()
            } else {
                e.node.to_string()
            };
            out.push_str(&format!(
                "{:<20} {:>8} {:>6} {:>10} {:>14} {:>14} {:>12}\n",
                e.category,
                offload,
                node,
                e.bytes,
                fmt_ps(e.start_ps),
                fmt_ps(e.end_ps),
                fmt_ps(e.duration_ps()),
            ));
        }
        out
    }

    /// Chrome trace-event JSON (the Perfetto-compatible legacy format).
    ///
    /// Layout: `pid` = simulated node, `tid` = engine (index into
    /// `Trace::engines`); every span is a complete event (`"ph":"X"`)
    /// with microsecond `ts`/`dur` and `offload_id`/`bytes` in `args`.
    /// Metadata events (`"ph":"M"`) name the processes and tracks.
    pub fn to_chrome_json(&self) -> String {
        let engines = self.engines();
        let tid_of = |e: &Event| -> usize {
            engines
                .iter()
                .position(|&name| name == e.engine())
                .unwrap_or(0)
        };
        let mut records = Vec::new();
        for node in self.nodes() {
            let name = if node == NODE_UNKNOWN {
                "node ? (unattributed)".to_string()
            } else if node == 0 {
                "node 0 (host)".to_string()
            } else {
                format!("node {node} (VE)")
            };
            records.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                chrome_pid(node),
                escape(&name)
            ));
        }
        for (tid, engine) in engines.iter().enumerate() {
            for node in self.nodes() {
                records.push(format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    chrome_pid(node),
                    escape(engine)
                ));
            }
        }
        for e in &self.events {
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{:.6},\"dur\":{:.6},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"offload_id\":{},\"bytes\":{}}}}}",
                escape(e.category),
                escape(e.engine()),
                e.start_ps as f64 / 1e6,
                e.duration_ps() as f64 / 1e6,
                chrome_pid(e.node),
                tid_of(e),
                e.offload,
                e.bytes,
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            records.join(",\n")
        )
    }

    /// One JSON object per span, newline-separated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{{\"category\":\"{}\",\"engine\":\"{}\",\"phase\":\"{}\",\
                 \"offload_id\":{},\"node\":{},\"bytes\":{},\
                 \"start_ps\":{},\"end_ps\":{},\"dur_ps\":{}}}\n",
                escape(e.category),
                escape(e.engine()),
                escape(e.phase()),
                e.offload,
                e.node,
                e.bytes,
                e.start_ps,
                e.end_ps,
                e.duration_ps(),
            ));
        }
        out
    }
}

/// `pid` used in the Chrome export: nodes map to themselves,
/// [`NODE_UNKNOWN`] to a sentinel that sorts last.
fn chrome_pid(node: u16) -> u32 {
    if node == NODE_UNKNOWN {
        9_999
    } else {
        node as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Trace {
        Trace {
            events: vec![
                Event {
                    category: "ham.host_overhead",
                    offload: 7,
                    node: 0,
                    bytes: 0,
                    start_ps: 0,
                    end_ps: 1_000_000,
                },
                Event {
                    category: "udma.read",
                    offload: 7,
                    node: 1,
                    bytes: 64,
                    start_ps: 1_000_000,
                    end_ps: 2_500_000,
                },
                Event {
                    category: "udma.write",
                    offload: 0,
                    node: NODE_UNKNOWN,
                    bytes: 8,
                    start_ps: 2_500_000,
                    end_ps: 2_600_000,
                },
            ],
        }
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.offload_ids(), vec![7]);
        assert_eq!(t.events_for_offload(7).len(), 2);
        assert_eq!(t.engines(), vec!["ham", "udma"]);
        assert_eq!(t.nodes(), vec![0, 1, NODE_UNKNOWN]);
    }

    #[test]
    fn text_render_has_attribution_columns() {
        let s = sample().render();
        assert!(s.contains("component"));
        assert!(s.contains("offload"));
        assert!(s.contains("of7"));
        assert!(s.contains("udma.read"));
        assert!(s.contains("1.500us"), "duration column:\n{s}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_fields() {
        let doc = sample().to_chrome_json();
        let v = json::parse(&doc).expect("chrome export must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        let read = complete
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("udma.read"))
            .unwrap();
        assert_eq!(read.get("ts").unwrap().as_f64(), Some(1.0), "ts in us");
        assert_eq!(read.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(read.get("pid").unwrap().as_u64(), Some(1));
        let args = read.get("args").unwrap();
        assert_eq!(args.get("offload_id").unwrap().as_u64(), Some(7));
        assert_eq!(args.get("bytes").unwrap().as_u64(), Some(64));
        // tid is the index of "udma" in the sorted engine list.
        assert_eq!(read.get("tid").unwrap().as_u64(), Some(1));
        // Metadata names both processes and tracks.
        assert!(events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("process_name")
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("node 0 (host)")
        }));
        assert!(events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("thread_name")
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("udma")
        }));
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let out = sample().to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("engine").unwrap().as_str(), Some("ham"));
        assert_eq!(first.get("phase").unwrap().as_str(), Some("host_overhead"));
        assert_eq!(first.get("offload_id").unwrap().as_u64(), Some(7));
        assert_eq!(first.get("dur_ps").unwrap().as_u64(), Some(1_000_000));
    }
}
