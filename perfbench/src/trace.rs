//! The traced run's span recorder and layer ledger.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Every span carries a name, start, end, parent and the
//! id of the request it belongs to. They stay in memory until the run
//! ends, then [`Recorder::write`] dumps them as JSON.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; `enabled == false` records nothing, so the
/// untraced phases pay only a branch.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished root span: one request as the client saw it.
    pub fn record(&self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span store mutex");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent: None,
            request,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span whose id is reserved before `f` starts,
    /// so `f` can parent its own child spans on it.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span store mutex");
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start = self.now_ns();
        let out = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span store mutex");
        let span = &mut spans[id as usize - 1];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store mutex").clone()
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Each span's self time (its duration minus the part its children
/// cover), scaled by the share of the critical path it sits on: where
/// siblings ran in parallel, their parent's covered time is split
/// between them in proportion to their durations. The attributed times
/// of one request's tree therefore add up to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    // Parents reserve their id before their children run, so one pass
    // in id order sees every parent's weight before its children.
    let mut weight: BTreeMap<u64, f64> = BTreeMap::new();
    let mut factor: BTreeMap<u64, f64> = BTreeMap::new();
    let mut out = Vec::with_capacity(spans.len());
    for s in spans {
        let w = s.parent.map_or(1.0, |p| {
            weight.get(&p).copied().unwrap_or(1.0) * factor.get(&p).copied().unwrap_or(1.0)
        });
        let (covered, total) = children.get(&s.id).map_or((0, 0), |kids| {
            let total: u64 = kids.iter().map(|(a, b)| b.saturating_sub(*a)).sum();
            (union_len(kids, s.start_ns, s.end_ns), total)
        });
        weight.insert(s.id, w);
        factor.insert(
            s.id,
            if total > 0 {
                covered as f64 / total as f64
            } else {
                1.0
            },
        );
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        out.push((s.name, s.request, own as f64 * w));
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_children_split_their_parents_covered_time() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                request: 7,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                request: 7,
                name: "a",
                start_ns: 10,
                end_ns: 50,
            },
            Span {
                id: 3,
                parent: Some(1),
                request: 7,
                name: "b",
                start_ns: 30,
                end_ns: 60,
            },
        ];
        // The children cover 10..60 (50 ns) but last 70 ns together, so
        // each keeps 5/7 of its duration; the tree sums to the root's 100.
        let times = self_times(&spans);
        assert_eq!(times[0].2, 50.0);
        assert!((times[1].2 - 40.0 * 5.0 / 7.0).abs() < 1e-9);
        assert!((times[2].2 - 30.0 * 5.0 / 7.0).abs() < 1e-9);
        let total: f64 = times.iter().map(|t| t.2).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }
}
