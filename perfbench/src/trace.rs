//! Spans recorded by the traced run around each call into a layer.
//!
//! A span is opened just before the harness calls a layer's public
//! function and closed just after it returns. Spans live in memory until
//! the run ends, when they are reduced to self times and written out as
//! JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`partition`, `recombine.direct`, `protocol`, ...).
    pub name: &'static str,
    /// Instance, budget-point or request id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder, shareable across client threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's index so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(idx);
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock poisoned")[idx].end_ns = end_ns;
        out
    }

    /// Number of spans recorded so far: a watermark delimiting the spans
    /// of one phase of the run.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Self seconds per layer name over the spans in `range`.
    pub fn self_s_by_layer(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let self_ns = self_times(&spans);
        let mut out = BTreeMap::new();
        for i in range {
            *out.entry(spans[i].name).or_insert(0.0) += self_ns[i] as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(&self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::span`] when tracing, else a plain call (`f` gets `None`).
pub fn maybe_span<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tr {
        Some(tr) => tr.span(name, id, parent, |idx| f(Some(idx))),
        None => f(None),
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..50, plus a
        // disjoint child 60..70: covered 40 + 10, self 50.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(Some(0), 60, 70),
            span(Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 10, 5]);
    }

    #[test]
    fn tracer_records_nesting() {
        let t = Tracer::new();
        t.span("outer", 7, None, |p| t.span("inner", 7, Some(p), |_| ()));
        assert_eq!(t.len(), 2);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans[1].parent, Some(0));
        assert!(self_times(&spans)[0] <= spans[0].dur_ns());
    }
}
