//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are recorded from the benchmark's own code only, around each
//! call it makes into a layer's public functions; nothing is instrumented
//! inside the program. Every span carries a name (`layer.operation`), a
//! start, an end, its parent span and the id of the document or request it
//! belongs to. Each thread records into its own [`SpanBuf`] (no locking on
//! the measured path); buffers merge into one [`Trace`] when the thread
//! ends, and the trace is written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `xml.parse`.
    pub name: &'static str,
    /// The document or request this span belongs to (shared by all of its
    /// spans).
    pub id: u64,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. A disabled recorder does nothing, so the
/// same code path runs traced and untraced.
#[derive(Debug)]
pub struct SpanBuf {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanBuf {
    /// A recorder measuring from `epoch`; `enabled = false` records
    /// nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Moves another recorder's spans (same epoch) into this one, after
    /// its own.
    pub fn append(&mut self, other: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open_at(name, id, start_ns);
    }

    /// Opens a span that started at `start`, an instant already past
    /// (e.g. a request's due time).
    pub fn enter_at(&mut self, name: &'static str, id: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns =
            u64::try_from(start.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.open_at(name, id, start_ns);
    }

    fn open_at(&mut self, name: &'static str, id: u64, start_ns: u64) {
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Closes the innermost open span at `end`, an instant already past.
    pub fn exit_at(&mut self, end: Instant) {
        if !self.enabled {
            return;
        }
        let end_ns =
            u64::try_from(end.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(0);
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured interval (e.g. a request timed from its
    /// due instant to its response) as a span nested in the innermost open
    /// one.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name,
            id,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }
}

/// Every span of a run, merged from the per-thread recorders.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

/// Self time and span count of one span name or layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves a thread's spans into the trace, rebasing parent indices.
    pub fn absorb(&mut self, buf: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(buf.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval covered by its children (children are clipped to the
    /// parent and their overlaps merged, so no instant is subtracted
    /// twice).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Self time summed per layer (the span name's prefix).
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (name, t) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name);
            let entry = out.entry(layer).or_default();
            entry.count += t.count;
            entry.total_ns += t.total_ns;
            entry.self_ns += t.self_ns;
        }
        out
    }

    /// Writes the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","id":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
