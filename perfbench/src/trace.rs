//! Outside-in spans: the benchmark wraps its own calls into each layer's
//! public functions. Spans are kept in memory and written out when the
//! run ends; each records name, thread, start, end and parent.

use crate::util::quantile;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. `parent` is 0 for a thread's root span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub thread: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The open spans of this thread (innermost last) and its label.
    static STACK: RefCell<(Vec<u64>, &'static str)> = const { RefCell::new((Vec::new(), "main")) };
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as the root span of a thread named `label`; the spans
    /// it opens are that thread's layer spans.
    pub fn thread<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        STACK.with(|s| s.borrow_mut().1 = label);
        self.span("thread", f)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span of this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (parent, thread) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.0.last().copied().unwrap_or(0);
            s.0.push(id);
            (parent, s.1)
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().0.pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                thread,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span closed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }

    /// Total milliseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.spans();
        let hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        (
            hits.iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e6,
            hits.len() as u64,
        )
    }

    /// The `q` quantile, in milliseconds, of the spans named `name`.
    pub fn quantile_ms(&self, name: &str, q: f64) -> f64 {
        let durs: Vec<f64> = self
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        quantile(&durs, q)
    }

    /// Share of each thread's root span covered by its direct child
    /// spans plus `extra` time the caller measured on that thread
    /// outside any span (per-call accumulators), keyed by thread label.
    pub fn coverage(&self, extra: &[(&str, Duration)]) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut out = BTreeMap::new();
        for root in spans.iter().filter(|s| s.parent == 0) {
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == root.id)
                .map(Span::dur_ns)
                .sum();
            let more: u64 = extra
                .iter()
                .filter(|(t, _)| *t == root.thread)
                .map(|(_, d)| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                .sum();
            out.insert(
                root.thread,
                (children + more) as f64 / root.dur_ns().max(1) as f64,
            );
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = serde_json::to_string(&s).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let t = Tracer::default();
        t.thread("a", || {
            t.span("x", || {
                t.span("y", || std::thread::sleep(Duration::from_millis(2)));
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let x = spans.iter().find(|s| s.name == "x").unwrap();
        let y = spans.iter().find(|s| s.name == "y").unwrap();
        assert_eq!(y.parent, x.id);
        let cov = t.coverage(&[])["a"];
        assert!(cov > 0.2 && cov < 0.9, "coverage {cov}");
        assert_eq!(t.total("y").1, 1);
    }
}
