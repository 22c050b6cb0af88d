//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer; the library itself carries no instrumentation. A span is a
//! name (the part before its last `.` names its layer), a start and an end
//! on a run-wide clock, the span that caused it, and the replica or
//! request it belongs to. Spans stay in memory and are written out once,
//! when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans under this layer are measurements the benchmark adds on the
/// side (re-timing work a layer already did); they are left out of the
/// self-time accounting.
pub const PROBE_LAYER: &str = "probe";

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.phase`, e.g. `core.dense.state_apply`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The replica or request the span belongs to.
    pub id: u64,
}

impl Span {
    /// The layer: the name up to its last `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    /// Length of the interval.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span opened by [`Recorder::open`]; hand it back to
/// [`Recorder::close`].
#[must_use = "an open span must be closed"]
#[derive(Debug)]
pub struct Open(u32);

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Records the spans of one replica or request stream on one thread.
///
/// A disabled recorder does nothing, not even read the clock, so the
/// instrumented code paths double as plain reference runners.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    id: Cell<u64>,
    buffer: RefCell<Buffer>,
}

impl Recorder {
    /// An enabled recorder whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            enabled: true,
            id: Cell::new(0),
            buffer: RefCell::default(),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now())
        }
    }

    /// `true` unless built by [`Recorder::disabled`].
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with `id`.
    pub fn set_id(&self, id: u64) {
        self.id.set(id);
    }

    /// Nanoseconds since the epoch (0 when disabled).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Number of spans recorded so far (a mark for [`Recorder::record_gap`]).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.buffer.borrow().spans.len()
    }

    /// Opens a span under the innermost open one.
    pub fn open(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let start_ns = self.now_ns();
        let mut buffer = self.buffer.borrow_mut();
        let index = buffer.spans.len() as u32;
        let parent = buffer.stack.last().copied().unwrap_or(NO_PARENT);
        buffer.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: self.id.get(),
        });
        buffer.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span, and returns
    /// its index (for [`Recorder::rename`]).
    pub fn close(&self, open: Open) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let end_ns = self.now_ns();
        let mut buffer = self.buffer.borrow_mut();
        assert_eq!(buffer.stack.pop(), Some(open.0), "spans must nest");
        buffer.spans[open.0 as usize].end_ns = end_ns;
        open.0
    }

    /// Renames a recorded span, for spans whose kind is only known after
    /// the call (a cache hit or miss).
    pub fn rename(&self, index: u32, name: &'static str) {
        if self.enabled {
            self.buffer.borrow_mut().spans[index as usize].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Records a finished interval `[start_ns, end_ns)` that no code
    /// brackets (the gap between two library hook calls) under the
    /// innermost open span, adopting every span recorded since `first`
    /// (a [`Recorder::mark`]) as its children.
    pub fn record_gap(&self, name: &'static str, start_ns: u64, end_ns: u64, first: usize) {
        if !self.enabled {
            return;
        }
        let mut buffer = self.buffer.borrow_mut();
        let index = buffer.spans.len() as u32;
        let parent = buffer.stack.last().copied().unwrap_or(NO_PARENT);
        for span in &mut buffer.spans[first..] {
            if span.parent == parent {
                span.parent = index;
            }
        }
        buffer.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: self.id.get(),
        });
    }

    /// The recorded spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        let buffer = self.buffer.into_inner();
        assert!(buffer.stack.is_empty(), "a span was left open");
        buffer.spans
    }
}

/// All spans of a traced run, with parent indices into one flat list.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends one recorder's spans, rebasing their parent indices.
    pub fn extend(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += offset;
            }
            span
        }));
    }

    /// The spans, in recording order per recorder.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Total duration of the spans named `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time (duration minus the part its children cover) of every
    /// span, index-aligned with [`Trace::spans`].
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Total self time of the spans named `name`, in seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time per layer in seconds, probes excluded. The values add up
    /// to the total duration of the root spans.
    #[must_use]
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            if span.layer() != PROBE_LAYER {
                *layers.entry(span.layer()).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        layers
    }

    /// Writes one tab-separated line per span: id, name, start, end,
    /// parent (-1 for roots).
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                span.id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_gaps_adopt_them() {
        let rec = Recorder::new(Instant::now());
        let outer = rec.open("a.outer");
        let start = rec.now_ns();
        let first = rec.mark();
        rec.time("b.inner", || std::hint::black_box(0));
        let end = rec.now_ns();
        rec.record_gap("c.gap", start, end, first);
        rec.close(outer);
        let mut trace = Trace::default();
        trace.extend(rec.into_spans());
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 2, "the gap adopts the inner span");
        assert_eq!(spans[2].parent, 0);
        let layers = trace.self_s_by_layer();
        let total: f64 = layers.values().sum();
        assert!((total - spans[0].duration_ns() as f64 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorders_record_nothing() {
        let rec = Recorder::disabled();
        let open = rec.open("a.b");
        rec.close(open);
        assert_eq!(rec.now_ns(), 0);
        assert!(rec.into_spans().is_empty());
    }
}
