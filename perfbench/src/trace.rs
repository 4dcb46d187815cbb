//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! a name, start and end (nanoseconds since the tracer's epoch), the
//! enclosing span and a trace id (the testbench or job the call served).
//! A layer's self time is its spans' duration minus the part covered by
//! their child spans; time inside a `bench.round` root that no layer
//! span covers is the benchmark's own, reported as the unattributed
//! share.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span around one round's timed work.
pub const ROOT: &str = "bench.round";

/// Returned by [`Tracer::open`] when tracing is off.
const NONE: usize = usize::MAX;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name (`kernels.step`, `serve.submit`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Testbench or job id the span belongs to.
    pub trace: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while on; every call is a no-op while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Starts (`true`) or stops recording; a traced run records only its
    /// traced rounds.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the trace id stamped on spans opened from now on.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; pass the returned
    /// handle to [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NONE;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `open` returned (spans close innermost first).
    pub fn close(&mut self, idx: usize) {
        if idx == NONE {
            return;
        }
        self.spans[idx].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }

    /// Every recorded span's duration in seconds, for spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per name: (total self time in seconds, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_ns().saturating_sub(child) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Mean self time per span named `name`, in seconds (0 if none).
    pub fn mean_self(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(total, count)) if count > 0 => total / count as f64,
            _ => 0.0,
        }
    }

    /// Total self time of spans named `name`, in seconds.
    pub fn total_self(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |e| e.0)
    }

    /// Share of the root spans' time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let total: f64 = self.durations(ROOT).iter().sum();
        if total > 0.0 {
            self.total_self(ROOT) / total
        } else {
            0.0
        }
    }

    /// Writes the spans as JSON lines (at most `limit` of them).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.open(ROOT);
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_times();
        assert_eq!(own["a"].1, 1);
        assert!(own["a"].0 >= 0.002);
        assert!(own[ROOT].0 < t.durations(ROOT)[0]);
        assert!(t.unattributed_share() < 0.5);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let idx = t.open("a");
        t.close(idx);
        assert_eq!(t.span("b", || 7), 7);
        assert!(t.self_times().is_empty());
        assert_eq!(t.unattributed_share(), 0.0);
    }
}
