//! In-memory span and count recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent, job id) and kept in memory; counts are
//! recorded beside them. Nothing is written until [`Tracer::write_tsv`]
//! at the end of the run.

use crate::stats::{self_times, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`; the layer is the part
    /// before the first dot.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span and count recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Tags the spans recorded from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job: self.job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `by` to count `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// Current value of count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Records one observation of sample series `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Every observation of sample series `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Summed self time (ms) of the spans `keep` selects: each span's
    /// duration minus the time its child spans cover.
    pub fn self_ms(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        self.spans
            .iter()
            .zip(self_times(&intervals))
            .filter(|(s, _)| keep(s))
            .map(|(_, own)| own as f64 / 1e6)
            .sum()
    }

    /// Writes every span and count as tab-separated lines to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tname\tstart_ns\tend_ns\tparent\tjob")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.job
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "count\t{name}\t{value}\t-\t-\t-")?;
        }
        out.flush()
    }
}
