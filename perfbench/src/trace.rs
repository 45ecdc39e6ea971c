//! Spans recorded by the benchmark around its calls into each crate's
//! public functions. Spans are held in memory, written out as JSON lines
//! when the run ends, and folded into per-layer self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to (spans of one request share it).
    pub req: u64,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Records a span whose times were taken elsewhere (ns since the
    /// caller's own origin).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration in ms of every span called `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children run sequentially inside their parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per-request self time by layer, for every request whose root span
    /// is called `root`: `(root duration ns, layer -> self ns)`.
    pub fn request_profiles(&self, root: &str) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
        let self_ns = self.self_times_ns();
        let mut by_req: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = by_req.entry(span.req).or_default();
            if span.parent.is_none() && span.name == root {
                entry.0 = span.dur_ns();
            }
            *entry.1.entry(span.name).or_default() += own;
        }
        by_req.into_values().filter(|(d, _)| *d > 0).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The self-time profile of the median request: the mean self time per
/// layer over the requests whose total lies in the middle tenth (at
/// least one request) of the traced latencies. Its rows add up to the
/// traced median latency, so they can be set against the untraced one.
pub fn median_profile(profiles: &[(u64, BTreeMap<&'static str, u64>)]) -> Vec<(&'static str, f64)> {
    if profiles.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by_key(|&i| profiles[i].0);
    let n = order.len();
    let width = (n / 10).max(1);
    let lo = (n - width) / 2;
    let picked = &order[lo..lo + width];
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &i in picked {
        for (layer, ns) in &profiles[i].1 {
            *sums.entry(layer).or_default() += *ns as f64 / 1e6;
        }
    }
    let mut rows: Vec<(&'static str, f64)> = sums
        .into_iter()
        .map(|(layer, ms)| (layer, ms / width as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// Prints a blocking-path table: per-layer self time of the median
/// request, its share, and the sum set against the untraced median.
/// Returns the ratio of the sum to `untraced_p50_ms`.
pub fn print_table(
    title: &str,
    rows: &[(&'static str, f64)],
    detail: &[(&'static str, f64)],
    untraced_p50_ms: f64,
) -> f64 {
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("== {title}: blocking-path self time of the median request");
    println!("{:<34} {:>12} {:>7}", "layer", "self ms", "share");
    for (layer, ms) in rows {
        println!(
            "{layer:<34} {ms:>12.4} {:>6.1}%",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
    println!("{:<34} {total:>12.4}", "sum");
    println!("{:<34} {untraced_p50_ms:>12.4}", "untraced latency_p50_ms");
    for (layer, ms) in detail {
        println!("  (not summed) {layer:<35} {ms:>12.4}");
    }
    let ratio = total / untraced_p50_ms.max(f64::MIN_POSITIVE);
    println!(
        "sum / untraced p50 = {ratio:.3} (tolerance {:.2}..{:.2}: {})",
        1.0 - SUM_TOLERANCE,
        1.0 + SUM_TOLERANCE,
        if (ratio - 1.0).abs() <= SUM_TOLERANCE {
            "ok"
        } else {
            "OUTSIDE"
        }
    );
    ratio
}

/// How far the blocking-path sum may stray from the untraced median
/// latency, as a share of it.
pub const SUM_TOLERANCE: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "request",
                req: 1,
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                req: 1,
                parent: Some(0),
                start: 10,
                end: 40,
            },
            Span {
                name: "b",
                req: 1,
                parent: Some(0),
                start: 50,
                end: 90,
            },
            Span {
                name: "c",
                req: 1,
                parent: Some(2),
                start: 60,
                end: 70,
            },
        ];
        assert_eq!(t.self_times_ns(), vec![30, 30, 30, 10]);
        let profiles = t.request_profiles("request");
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].0, 100);
        assert_eq!(profiles[0].1.values().sum::<u64>(), 100);
    }
}
