//! The benchmark's own wall-clock spans, recorded around each public
//! call it makes into the program (spans inside the program are a later
//! change). Spans stay in memory and are written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker for top-level spans.
pub const ROOT: u32 = u32::MAX;

/// Span sink. The timed rounds run with [`NoRec`], which compiles to
/// nothing; only the traced run pays for [`SpanRec`].
pub trait Rec {
    /// Open a span under `parent` for operation `op`; returns its id.
    fn begin(&mut self, name: &'static str, parent: u32, op: u64) -> u32;
    /// Close span `id`.
    fn end(&mut self, id: u32);
}

/// Run `f` inside a span.
#[inline]
pub fn span<R: Rec, T>(
    rec: &mut R,
    name: &'static str,
    parent: u32,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    let id = rec.begin(name, parent, op);
    let out = f();
    rec.end(id);
    out
}

/// The disabled sink.
pub struct NoRec;

impl Rec for NoRec {
    #[inline(always)]
    fn begin(&mut self, _: &'static str, _: u32, _: u64) -> u32 {
        ROOT
    }
    #[inline(always)]
    fn end(&mut self, _: u32) {}
}

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

/// In-memory span recorder with preallocated storage.
pub struct SpanRec {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl SpanRec {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(cap),
        }
    }

    /// Ascending durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is
    /// a span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        out
    }
}

impl Rec for SpanRec {
    #[inline]
    fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
        id
    }

    #[inline]
    fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = SpanRec::with_capacity(4);
        let op = rec.begin("op", ROOT, 0);
        span(&mut rec, "post", op, 0, || std::hint::black_box(1 + 1));
        span(&mut rec, "wait", op, 0, || std::hint::black_box(2 + 2));
        rec.end(op);
        let st = rec.self_times();
        let (n, total, own) = st["op"];
        let kids = st["post"].1 + st["wait"].1;
        assert_eq!(n, 1);
        assert_eq!(own, total - kids);
        assert_eq!(rec.durations("post").len(), 1);
    }
}
