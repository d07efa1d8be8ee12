//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: name, start, end, parent span and a request id shared by
//! every span of one operation. Spans stay in memory and are written out
//! when the run ends. A span's self time is its duration minus the part
//! of it that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The trace time of an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span ends.
    pub fn alloc(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn push(&self, id: u64, parent: Option<u64>, req: u64, name: &str, start: u64, end: u64) {
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.alloc();
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.push(id, parent, req, name, start, end);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Splits the wall time of span `root` among layers (the name prefix
/// before the first `.`). Each span keeps its self time; where children
/// ran in parallel, their shares are scaled so that together they fill
/// exactly the wall time they covered. The shares therefore add up to the
/// root's duration, and the root's own self time is the benchmark's.
pub fn attribute(spans: &[Span], root: u64) -> BTreeMap<String, f64> {
    let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return out;
    };
    let mut stack = vec![(r, 1.0f64, "perfbench".to_string())];
    while let Some((s, scale, layer)) = stack.pop() {
        let children = kids.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered = union_ns(children.iter().map(|c| (c.start_ns, c.end_ns)).collect());
        let own = s.dur_ns().saturating_sub(covered) as f64;
        *out.entry(layer).or_insert(0.0) += own * scale;
        let sum: u64 = children.iter().map(|c| c.dur_ns()).sum();
        if sum > 0 {
            let child_scale = scale * covered as f64 / sum as f64;
            for c in children {
                let layer = c.name.split('.').next().unwrap_or("").to_string();
                stack.push((c, child_scale, layer));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: name.into(),
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn attribution_adds_up_to_the_root_even_with_parallel_children() {
        let spans = vec![
            span(1, None, "region", 0, 100),
            span(2, Some(1), "sweep.run_all_with", 10, 90),
            span(3, Some(2), "sweep.point", 10, 60),
            span(4, Some(2), "sweep.point", 10, 90),
            span(5, Some(1), "store.flush", 90, 95),
        ];
        let a = attribute(&spans, 1);
        let total: f64 = a.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{a:?}");
        assert!((a["perfbench"] - 15.0).abs() < 1e-9);
        assert!((a["store"] - 5.0).abs() < 1e-9);
        assert!((a["sweep"] - 80.0).abs() < 1e-9);
    }
}
