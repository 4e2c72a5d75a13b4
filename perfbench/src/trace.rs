//! A std-only span recorder for the traced runs.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer, kept in memory, and written out once the run ends. A span's
//! *self time* is its duration minus the part of its interval covered by
//! the union of its children's intervals, so children that overlap (on
//! two threads, say) are not subtracted twice.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request (or solve) this span belongs to.
    pub req: u64,
    /// Layer-qualified name, such as `bnb.search`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has been opened but not yet closed.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// The id the span will be recorded under, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start: self.now(),
        }
    }

    /// Closes a span and keeps it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start: open.start,
            end,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking thread")
            .push(span);
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking thread")
            .clone()
    }
}

/// Self time of every span, keyed by span id: duration minus the length
/// of the union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_len(kids, s.start, s.end));
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Per-name totals: `(inclusive ns, self ns, count)`.
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration();
        e.1 += selfs[&s.id];
        e.2 += 1;
    }
    out
}

/// Writes spans as tab-separated lines: id, parent (0 for none), request,
/// name, start ns, end ns.
pub fn write_tsv(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.req,
            s.name,
            s.start,
            s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Parent [0, 100); children [10, 50) and [30, 70) overlap on
        // [30, 50): together they cover 60 ns, not 80.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 50, 120),
            span(3, Some(1), 190, 260),
        ];
        assert_eq!(self_times(&spans)[&1], 70);
    }

    #[test]
    fn self_time_with_children_recorded_on_two_threads() {
        let rec = Recorder::new();
        let parent = rec.open("parent", None, 7);
        let pid = parent.id();
        // Both children are open at the same moment: the barrier makes
        // their intervals overlap whatever the scheduler does.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let child = rec.open("child", Some(pid), 7);
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    rec.close(child);
                });
            }
        });
        rec.close(parent);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let p = spans.iter().find(|s| s.name == "parent").unwrap();
        let kids: Vec<&Span> = spans.iter().filter(|s| s.name == "child").collect();
        let (lo, hi) = (
            kids.iter().map(|s| s.start).min().unwrap(),
            kids.iter().map(|s| s.end).max().unwrap(),
        );
        let kid_sum: u64 = kids.iter().map(|s| s.duration()).sum();
        let own = self_times(&spans)[&p.id];
        // The union, not the sum, of the overlapping children is removed.
        assert_eq!(own, p.duration() - (hi - lo));
        assert!(kid_sum > hi - lo, "children must overlap");
        let names = by_name(&spans);
        assert_eq!(names["child"].2, 2);
        assert_eq!(names["parent"].1, own);
    }
}
