//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Each
//! span carries a name, start and end (ns since the tracer's origin), the
//! span that caused it, and the id of the query it belongs to. Spans stay
//! in memory until [`Tracer::write_tsv`] writes them out at the end.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span times, e.g. `core.search`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The query (or ingest batch) this span belongs to.
    pub query: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin between
    /// the tracers of different threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, query: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, query });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, query, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Duration of the most recently opened span named `name` (0 when
    /// there is none), used to pair a call with the counts it returned.
    pub fn last_duration(&self, name: &str) -> u64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0, Span::duration_ns)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one, re-basing their
    /// parent links. Both tracers must share an origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one tab-separated line:
    /// `id name query parent start_ns end_ns self_ns`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tquery\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may nest further, overlap
/// each other (threads) or stick out of the parent; only the union of
/// their intervals clipped to the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children.entry(p).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = children.get_mut(&i).map_or(0, |iv| union_len(iv));
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}
