//! Spans recorded around the benchmark's calls into each layer.
//!
//! The tracer is single-threaded and keeps every span in memory; the
//! span log is written only when the benchmark ends. A span's *self
//! time* is its duration minus the part of that interval its children
//! cover, so the self times of a tree add up to its root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) span; times are nanoseconds since the
/// tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Grouping tag inherited from the parent unless set explicitly
    /// (the platform a fleet runs on).
    pub label: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Index of a span returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let label = self.open.last().map_or("", |&p| self.spans[p].label);
        self.begin_labeled(name, label)
    }

    /// Opens a span with an explicit label.
    pub fn begin_labeled(&mut self, name: &'static str, label: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = end_ns;
    }

    /// Duration of a closed span, seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends every span as one JSON line (with its self time) to `out`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, rep: usize) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("rep", Json::Num(rep as f64)),
                ("id", Json::Num(i as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.into())),
                ("label", Json::Str(s.label.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns[i] as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per `(name, label)`: span count and summed self time, seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, f64)> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry((s.name, s.label)).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            label: "",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_on_a_nested_tree() {
        // rep [0,100) ─┬─ cohort [10,90) ─┬─ checkout [10,20)
        //              │                  ├─ run_for  [20,70) ── inner [30,40)
        //              │                  └─ finish   [75,85)
        //              └─ aggregate [92,99)
        let spans = vec![
            span("rep", None, 0, 100),
            span("cohort", Some(0), 10, 90),
            span("checkout", Some(1), 10, 20),
            span("run_for", Some(1), 20, 70),
            span("inner", Some(3), 30, 40),
            span("finish", Some(1), 75, 85),
            span("aggregate", Some(0), 92, 99),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs,
            vec![100 - 80 - 7, 80 - 10 - 50 - 10, 10, 40, 10, 10, 7]
        );
        // Self times of a tree partition its root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 140, 160),
            span("c", Some(0), 190, 250),
        ];
        // Covered: [100,160) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_groups_by_label() {
        let mut t = Tracer::new();
        let root = t.begin_labeled("fleet.run", "minix");
        let inner = t.begin("core.run_for");
        t.end(inner);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].label, "minix");
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name[&("core.run_for", "minix")].0, 1);
        let total: f64 = by_name.values().map(|v| v.1).sum();
        assert!((total - t.seconds(root)).abs() < 1e-9);
    }
}
