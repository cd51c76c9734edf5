//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the program is instrumented. A layer
//! that only runs inside another layer's call is measured by replaying
//! the operation's input through that layer's public function right
//! after the enclosing call, recorded as a child of the enclosing span.
//! A replay child lies outside its parent's interval, so the parent's
//! self time is its duration minus the durations of its replay
//! children. Spans stay in memory and are written out once, at the end.

use crate::stats::median;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval on the wall clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `web.request` or `med.serve_scan`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (shared by all its spans).
    pub op: u64,
    /// Rows the call handled (0 where rows do not apply).
    pub rows: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// In-memory span store. When disabled every call is a no-op, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span. Returns its result and the span index
    /// (`usize::MAX` when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            rows: 0,
        });
        (out, self.spans.len() - 1)
    }

    /// [`Tracer::span`] for a replay of a pure function: one untimed
    /// call first, then the timed one. The first call absorbs allocator
    /// work the enclosing operation deferred (glibc consolidates freed
    /// chunks on a later allocation), which would otherwise be billed to
    /// whichever replay happens to allocate first.
    pub fn span_warm<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        mut f: impl FnMut() -> T,
    ) -> (T, usize) {
        if self.enabled {
            drop(std::hint::black_box(f()));
        }
        self.span(name, op, parent, f)
    }

    /// Attach a row count to a recorded span.
    pub fn set_rows(&mut self, idx: usize, rows: u64) {
        if let Some(s) = self.spans.get_mut(idx) {
            s.rows = rows;
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration (µs) of spans named `name`; 0 when there are
    /// none. Medians, because the shared machine now and then stalls a
    /// microsecond call for a millisecond.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.named(name).map(Span::us).collect::<Vec<_>>())
    }

    /// Median over spans named `name` that handled rows of their
    /// duration per row (µs); 0 when no span recorded rows.
    pub fn us_per_row(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .filter(|s| s.rows > 0)
                .map(|s| s.us() / s.rows as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Median self time (µs) of spans named `name`: each span's duration
    /// minus the durations of its replay children listed in `children`.
    pub fn median_self_us(&self, name: &str, children: &[&str]) -> f64 {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if children.contains(&s.name) {
                    child_us[p] += s.us();
                }
            }
        }
        median(
            &self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .map(|(i, s)| s.us() - child_us[i])
                .collect::<Vec<_>>(),
        )
    }

    /// Tab-separated dump: one span per line.
    pub fn render(&self) -> String {
        let mut out = String::from("id\top\tparent\tname\tstart_ns\tend_ns\trows\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.rows
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_replay_children() {
        let mut t = Tracer::new(true);
        let (_, p) = t.span("outer", 1, None, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        let (_, c) = t.span("child", 1, Some(p), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.set_rows(c, 4);
        let outer = t.median_us("outer");
        let own = t.median_self_us("outer", &["child"]);
        assert!((outer - own - t.median_us("child")).abs() < 1e-6);
        assert!(t.us_per_row("child") > 0.0);
        assert_eq!(t.render().lines().count(), 3);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, None, || 7).0, 7);
        assert!(off.spans().is_empty());
    }
}
