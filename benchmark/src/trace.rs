//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A [`Tracer`] belongs to one load-generating thread. Every session gets a
//! root span named `session`; the calls inside it open child spans named
//! `<layer>.<call>` (for example `attacks.step` or `sim.oracle_query`).
//! Spans stay in memory and are written out once, when the run ends.
//! Untraced sessions record nothing: [`Tracer::span`] then costs one branch.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use attacks::Oracle;

/// `end_ns` of a span that never closed (its session panicked).
const OPEN: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `session` for a session root, otherwise `<layer>.<call>`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer; `None` for a root.
    pub parent: Option<usize>,
    /// Session id shared by every span of one session.
    pub session: u64,
}

impl Span {
    /// The layer a span belongs to: the part of its name before the first
    /// `.`; a session root's own time belongs to the benchmark (`bench`).
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. Methods take `&self` so that an oracle wrapper
/// and the session driving it can record into the same tracer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    session: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: Cell::new(false),
            session: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: OPEN,
            parent: self.open.borrow().last().copied(),
            session: self.session.get(),
        });
        self.open.borrow_mut().push(idx);
        idx
    }

    fn end(&self, idx: usize) {
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        let mut open = self.open.borrow_mut();
        if open.last() == Some(&idx) {
            open.pop();
        }
    }

    /// Runs one session under a root span when `traced`, and with tracing
    /// off otherwise. Spans left open by an earlier panicking session are
    /// abandoned here.
    pub fn session<R>(&self, id: u64, traced: bool, f: impl FnOnce() -> R) -> R {
        self.open.borrow_mut().clear();
        self.session.set(id);
        self.enabled.set(traced);
        if !traced {
            return f();
        }
        let root = self.begin("session");
        let r = f();
        self.end(root);
        self.enabled.set(false);
        r
    }

    /// Runs `f` inside a span named `name` (no span while tracing is off).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = self.begin(name);
        let r = f();
        self.end(idx);
        r
    }

    /// The spans recorded so far, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// An [`Oracle`] wrapper that puts every query in a `sim.oracle_query` span.
pub struct TimedOracle<'t, O> {
    inner: O,
    tracer: &'t Tracer,
}

impl<'t, O: Oracle> TimedOracle<'t, O> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: O, tracer: &'t Tracer) -> Self {
        TimedOracle { inner, tracer }
    }
}

impl<O: Oracle> Oracle for TimedOracle<'_, O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        let inner = &mut self.inner;
        self.tracer.span("sim.oracle_query", || inner.query(input))
    }

    fn queries_attempted(&self) -> usize {
        self.inner.queries_attempted()
    }
}

/// Span times of complete traced sessions, aggregated by layer and by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Complete traced sessions.
    pub sessions: u64,
    /// Summed wall time of those sessions' root spans.
    pub session_ns: u64,
    /// Self time (span time minus child-span time) per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed span time per span name, children included.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Summed self time per span name.
    pub name_self_ns: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Aggregates one tracer's spans. Sessions with a span that never
    /// closed are left out.
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let broken: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.end_ns == OPEN)
            .map(|s| s.session)
            .collect();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = LayerTimes::default();
        for (s, &children) in spans.iter().zip(&child_ns) {
            if broken.contains(&s.session) {
                continue;
            }
            let dur = s.duration_ns();
            let own = dur.saturating_sub(children);
            if s.parent.is_none() {
                out.sessions += 1;
                out.session_ns += dur;
            }
            *out.self_ns.entry(s.layer()).or_default() += own;
            *out.calls.entry(s.name).or_default() += 1;
            *out.total_ns.entry(s.name).or_default() += dur;
            *out.name_self_ns.entry(s.name).or_default() += own;
        }
        out
    }

    /// Adds another tracer's aggregate into this one.
    pub fn merge(&mut self, other: &LayerTimes) {
        self.sessions += other.sessions;
        self.session_ns += other.session_ns;
        for (map, theirs) in [
            (&mut self.self_ns, &other.self_ns),
            (&mut self.calls, &other.calls),
            (&mut self.total_ns, &other.total_ns),
            (&mut self.name_self_ns, &other.name_self_ns),
        ] {
            for (k, v) in theirs {
                *map.entry(k).or_default() += v;
            }
        }
    }

    /// A layer's share of the traced session wall, in percent.
    pub fn self_pct(&self, layer: &str) -> f64 {
        percent(
            self.self_ns.get(layer).copied().unwrap_or(0),
            self.session_ns,
        )
    }

    /// A span name's total time (children included) as a share of the
    /// traced session wall, in percent.
    pub fn total_pct(&self, name: &str) -> f64 {
        percent(
            self.total_ns.get(name).copied().unwrap_or(0),
            self.session_ns,
        )
    }
}

/// Measures the cost of recording one span: the tracing overhead a traced
/// run adds per span, which the run reports against its session wall.
pub(crate) fn span_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    let tracer = Tracer::new(Instant::now());
    let start = Instant::now();
    tracer.session(0, true, || {
        for _ in 0..SPANS {
            tracer.span("bench.calibrate", || std::hint::black_box(()));
        }
    });
    start.elapsed().as_nanos() as f64 / f64::from(SPANS + 1)
}

/// `100 * part / whole`, or 0 when `whole` is 0.
pub fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Writes the spans of every thread as one JSON document. Span ids are
/// global (`thread`-local indices offset by the preceding threads' counts)
/// and `parent` refers to them.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_json(
    path: &Path,
    header: &[(&str, String)],
    threads: &[Vec<Span>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{")?;
    for (k, v) in header {
        write!(w, "\"{k}\":{v},")?;
    }
    write!(w, "\"spans\":[")?;
    let mut offset = 0usize;
    let mut first = true;
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + offset).to_string());
            let end = if s.end_ns == OPEN {
                "null".to_string()
            } else {
                s.end_ns.to_string()
            };
            write!(
                w,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"parent\":{parent},\"session\":{},\"thread\":{thread}}}",
                i + offset,
                s.name,
                s.start_ns,
                s.session
            )?;
        }
        offset += spans.len();
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_broken_sessions() {
        let spans = vec![
            Span {
                name: "session",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                session: 1,
            },
            Span {
                name: "attacks.step",
                start_ns: 10,
                end_ns: 80,
                parent: Some(0),
                session: 1,
            },
            Span {
                name: "sim.oracle_query",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                session: 1,
            },
            Span {
                name: "session",
                start_ns: 200,
                end_ns: OPEN,
                parent: None,
                session: 2,
            },
        ];
        let t = LayerTimes::from_spans(&spans);
        assert_eq!(t.sessions, 1);
        assert_eq!(t.session_ns, 100);
        assert_eq!(t.self_ns["bench"], 30);
        assert_eq!(t.self_ns["attacks"], 60);
        assert_eq!(t.self_ns["sim"], 10);
        assert_eq!(t.self_ns.values().sum::<u64>(), t.session_ns);
    }

    #[test]
    fn untraced_sessions_record_nothing() {
        let tr = Tracer::new(Instant::now());
        let v = tr.session(1, false, || tr.span("sim.hd", || 7));
        assert_eq!(v, 7);
        tr.session(2, true, || tr.span("sim.hd", || ()));
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.session == 2));
    }
}
