//! In-memory spans for the traced replay.
//!
//! A span is `{name, start_ns, end_ns, parent, trace}`; spans of one
//! publish share its tag as `trace` (0 = timer- or control-caused work).
//! The replay is single-threaded, so "the innermost open span" is a plain
//! field. Spans are kept in memory and written as JSON lines when the
//! replay is over; `parent` is the 0-based line number of the parent span.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover (children may overlap each other and may stick out of
//! the parent; the union clipped to the parent is what counts).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::sink::now_ns;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub trace: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A layer probe's charge against a callback span: `count` calls into
/// `layer` happened inside it; the cost per call comes from the probe.
#[derive(Debug, Clone, Copy)]
pub struct Charge {
    pub span: u32,
    pub layer: &'static str,
    pub count: u32,
}

#[derive(Default)]
pub struct SpanStore {
    pub spans: Vec<Span>,
    pub charges: Vec<Charge>,
    current: Option<u32>,
}

impl SpanStore {
    pub fn with_capacity(spans: usize) -> SpanStore {
        SpanStore {
            spans: Vec::with_capacity(spans),
            charges: Vec::with_capacity(spans),
            current: None,
        }
    }

    /// Opens a span under the innermost open one and makes it innermost.
    pub fn open(&mut self, name: &'static str, trace: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current.unwrap_or(NO_PARENT),
            trace,
        });
        self.current = Some(id);
        id
    }

    /// Closes `id` (which must be innermost).
    pub fn close(&mut self, id: u32) {
        let end_ns = now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.current = (span.parent != NO_PARENT).then_some(span.parent);
    }

    /// Records a finished child of `parent` (a handler invocation noted by
    /// the sink while the callback span was open).
    pub fn child(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        let trace = self.spans[parent as usize].trace;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace,
        });
    }

    pub fn charge(&mut self, span: u32, layer: &'static str, count: u64) {
        if count > 0 {
            self.charges.push(Charge {
                span,
                layer,
                count: count as u32,
            });
        }
    }

    /// Turns the charges into child spans laid end to end from their
    /// parent's start, `count × unit_ns(layer)` long each, clipped to the
    /// parent (a probe measured in isolation may over-estimate).
    pub fn expand_charges(&mut self, unit_ns: impl Fn(&str) -> f64) {
        let mut cursor: Option<(u32, u64)> = None;
        for charge in std::mem::take(&mut self.charges) {
            let parent = self.spans[charge.span as usize].clone();
            let start = match cursor {
                Some((span, at)) if span == charge.span => at,
                _ => parent.start_ns,
            };
            let cost = (f64::from(charge.count) * unit_ns(charge.layer)).round() as u64;
            let end = (start + cost).min(parent.end_ns);
            cursor = Some((charge.span, end));
            self.spans.push(Span {
                name: charge.layer,
                start_ns: start,
                end_ns: end,
                parent: charge.span,
                trace: parent.trace,
            });
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for span in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            );
            if span.parent == NO_PARENT {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", span.parent);
            }
            let _ = writeln!(line, ",\"trace\":{}}}", span.trace);
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Self time of every span, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// `(name, count, total duration ns, total self time ns)`.
pub type NameTotals = (&'static str, u64, u64, u64);

/// Totals per span name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotals> = Vec::new();
    for (span, own) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration();
                row.3 += own;
            }
            None => out.push((span.name, 1, span.duration(), own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own grandchild 20..30.
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("child", 10, 60, 0),
            span("grandchild", 20, 30, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 overlap by 20: union is 60, not 80.
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),
            span("inside-a", 35, 45, 0), // fully covered already
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, NO_PARENT),
            span("early", 50, 120, 0),
            span("late", 190, 400, 0),
            span("outside", 300, 350, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn charges_expand_into_clipped_sequential_children() {
        let mut store = SpanStore::default();
        store.spans.push(span("cb", 1_000, 2_000, NO_PARENT));
        store.charge(0, "codec.encode", 2);
        store.charge(0, "core.deliver", 1);
        store.charge(0, "none", 0);
        store.expand_charges(|layer| {
            if layer == "codec.encode" {
                150.0
            } else {
                5_000.0
            }
        });
        assert_eq!(store.spans.len(), 3);
        assert_eq!(
            (store.spans[1].start_ns, store.spans[1].end_ns),
            (1_000, 1_300)
        );
        // The over-estimated second charge is clipped to the parent's end.
        assert_eq!(
            (store.spans[2].start_ns, store.spans[2].end_ns),
            (1_300, 2_000)
        );
        assert_eq!(self_times(&store.spans)[0], 0);
        let totals = totals_by_name(&store.spans);
        assert_eq!(totals[0], ("cb", 1, 1_000, 0));
        assert_eq!(totals[1], ("codec.encode", 1, 300, 300));
    }

    #[test]
    fn open_close_tracks_the_innermost_span() {
        let mut store = SpanStore::default();
        let outer = store.open("outer", 9);
        let inner = store.open("inner", 9);
        store.close(inner);
        store.child(inner, "handler", 5, 6);
        store.close(outer);
        let after = store.open("after", 0);
        store.close(after);
        assert_eq!(store.spans[inner as usize].parent, outer);
        assert_eq!(store.spans[2].parent, inner);
        assert_eq!(store.spans[2].trace, 9);
        assert_eq!(store.spans[outer as usize].parent, NO_PARENT);
        assert_eq!(store.spans[after as usize].parent, NO_PARENT);
    }
}
