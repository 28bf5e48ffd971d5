//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends.
//!
//! A span is a name, a start and an end (ns since the run's epoch), the
//! span that caused it and the request it belongs to. A span's self time
//! is its duration minus the part of its interval that its children
//! cover; overlapping children count once.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Spans`] buffer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration, ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer; threads merge theirs at the end.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves another buffer's spans in, re-basing its parent links.
    ///
    /// # Panics
    ///
    /// Panics if the buffers time from different epochs.
    pub fn append(&mut self, other: Spans) {
        self.append_with(other, None);
    }

    /// Like [`Self::append`], placing `other`'s parentless spans under
    /// `root`.
    pub fn append_under(&mut self, other: Spans, root: SpanId) {
        self.append_with(other, Some(root));
    }

    fn append_with(&mut self, other: Spans, root: Option<SpanId>) {
        assert_eq!(self.epoch, other.epoch, "spans of one run share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(root),
            ..s
        }));
    }

    /// Makes each parentless span a child of the `root`-named span of the
    /// same request, for spans recorded before their root was known.
    pub fn link_children_to(&mut self, root: &str) {
        let roots: std::collections::HashMap<u64, SpanId> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| (s.req, id))
            .collect();
        for s in &mut self.spans {
            if s.parent.is_none() && s.name != root {
                s.parent = roots.get(&s.req).copied();
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, ns.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::len)
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.len() - covered(&mut kids))
        .collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per span name: how many, their total duration and total self time,
/// in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.len();
                row.3 += own;
            }
            None => rows.push((s.name, 1, s.len(), own)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // a and b overlap on [20, 30): the covered part is [10, 40).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 25, 28, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("root", 10, 20, None), span("a", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
        let spans = [span("root", 10, 20, None), span("a", 0, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("a1", 0, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 40]);
    }

    #[test]
    fn append_rebases_parents() {
        let epoch = Instant::now();
        let later = epoch + std::time::Duration::from_micros(5);
        let mut a = Spans::new(epoch);
        a.push("x", epoch, epoch, None, 0);
        let mut b = Spans::new(epoch);
        let root = b.push(
            "root",
            later,
            later + std::time::Duration::from_micros(2),
            None,
            7,
        );
        b.push("kid", later, later, Some(root), 7);
        a.append(b);
        let s = a.spans();
        assert_eq!((s[1].start, s[1].end), (5_000, 7_000));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(by_name(s).len(), 3);
    }
}
