//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API; the
//! runtime itself is not instrumented. Spans of one FL round share its
//! round id and hang off the round's root span. Recording is a `Vec` push,
//! and the spans are written out only when the run ends.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Index of the parent span plus one; 0 for a root span.
    pub parent: usize,
    pub round: u32,
    /// Client index the call was made on, if any.
    pub client: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id (for children's `parent`),
    /// or 0 when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        round: u32,
        client: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            round,
            client,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len()
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        round: u32,
        client: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, round, client, start, Instant::now());
        out
    }

    /// Reserves a root span whose end is filled in later by [`Tracer::close`]
    /// (children must name it as parent before it ends).
    pub fn open(&mut self, name: &'static str, round: u32, start: Instant) -> usize {
        self.record(name, 0, round, None, start, start)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        if id > 0 {
            let end_ns = self.ns(end);
            self.spans[id - 1].end_ns = end_ns;
        }
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Sum of direct children's durations over the sum of root-span
    /// durations: the share of round wall time the recorded layer calls
    /// account for.
    pub fn coverage(&self) -> f64 {
        let (mut roots, mut children) = (0u64, 0u64);
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            if s.parent == 0 {
                roots += d;
            } else if self.spans[s.parent - 1].parent == 0 {
                children += d;
            }
        }
        if roots == 0 {
            0.0
        } else {
            children as f64 / roots as f64
        }
    }

    /// Writes one JSON object per span (`id` is 1-based, `parent` 0 = root).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let client = s.client.map_or("null".to_owned(), |c| c.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"round\":{},\"client\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.parent,
                s.round,
                client,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", 0, 1, None, || 5), 5);
        let id = t.open("round", 1, Instant::now());
        t.close(id, Instant::now());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.open("round", 1, t0);
        let child = t.record("core.send_local", root, 1, Some(0), ms(0), ms(6));
        t.record("nested", child, 1, Some(0), ms(1), ms(5));
        t.record("core.wait", root, 1, Some(0), ms(6), ms(8));
        t.close(root, ms(10));
        assert!((t.coverage() - 0.8).abs() < 1e-9);
        assert!((t.total_ms("core.send_local") - 6.0).abs() < 1e-9);
        assert_eq!(t.spans[2].parent, 2);
    }
}
