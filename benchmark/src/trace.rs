//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer's public functions: name, start, end, parent and the
//! request (frame or event) they belong to. They stay in memory until
//! the run ends and are then written out as one JSON file. A span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Frame index or event id the span belongs to.
    pub request: u64,
}

/// Self time and call count of every span carrying one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_s: f64,
    pub count: usize,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; spans `f` opens become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent,
            request,
        });
        self.open.push(id);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start = start;
        span.end = end;
        out
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, request, |_| f())
    }

    /// Adds a span measured elsewhere (on another thread, against the
    /// same origin) and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Seconds since the origin of `instant`, for [`record`](Self::record).
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Moves another tracer's spans into this one, onto this origin.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.at(other.origin);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Self time and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name).or_default();
            entry.self_s += self_s;
            entry.count += 1;
        }
        totals
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, (span, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"self_s\": {self_s:?}, \"parent\": {parent}, \"request\": {}}}{comma}",
                span.name, span.start, span.end, span.request
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Duration minus the union of the children's intervals, clipped to
/// the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for (s, e) in kids {
                let s = s.max(reach);
                let e = e.min(span.end);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end - span.start - covered).max(0.0)
        })
        .collect()
}

/// Seconds one empty span costs to record, measured on `n` spans.
pub fn span_cost_s(n: usize) -> f64 {
    let mut tracer = Tracer::new();
    let started = Instant::now();
    for i in 0..n {
        tracer.time("calibrate", i as u64, || std::hint::black_box(i));
    }
    started.elapsed().as_secs_f64() / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a` by one second: covered time is a union.
            span("b", 3.0, 6.0, Some(0)),
            span("leaf", 1.5, 2.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 5.0).abs() < 1e-12);
        assert!((t[1] - 2.5).abs() < 1e-12);
        assert!((t[2] - 3.0).abs() < 1e-12);
        assert!((t[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut tracer = Tracer::new();
        tracer.span("frame", 7, |t| {
            t.time("work", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.time("work", 7, || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let totals = tracer.totals();
        assert_eq!(totals["work"].count, 2);
        assert!(totals["work"].self_s >= 0.002);
        // The whole duration is accounted for exactly once.
        let sum: f64 = tracer.self_times().iter().sum();
        assert!((sum - (spans[0].end - spans[0].start)).abs() < 1e-9);
    }
}
