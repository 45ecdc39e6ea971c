//! The metric catalogue (names and units, as `BENCHMARK.json` lists
//! them) and the one-line JSON result every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("front_latency_p50_ms", "ms"),
    ("answered_share", "ratio"),
    ("proven_share", "ratio"),
    ("objective_geomean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// An engine, by the name reports carry: the layer its spans are named
/// after, and its per-layer metrics.
pub struct EngineMetrics {
    pub engine: &'static str,
    pub layer: &'static str,
    pub routed: &'static str,
    /// `(busy_ms, count)`; the hedged engine has no metrics of its own
    /// beyond its route count and the `solver.hedge.*` counters.
    pub busy_count: Option<(&'static str, &'static str)>,
}

const fn engine(
    engine: &'static str,
    layer: &'static str,
    routed: &'static str,
    busy_count: Option<(&'static str, &'static str)>,
) -> EngineMetrics {
    EngineMetrics {
        engine,
        layer,
        routed,
        busy_count,
    }
}

pub const ENGINES: &[EngineMetrics] = &[
    engine(
        "paper",
        "algorithms.paper",
        "solver.registry.routed.paper",
        Some(("algorithms.paper.busy_ms", "algorithms.paper.count")),
    ),
    engine(
        "exact",
        "exact.exact",
        "solver.registry.routed.exact",
        Some(("exact.exact.busy_ms", "exact.exact.count")),
    ),
    engine(
        "comm-exact",
        "exact.comm_exact",
        "solver.registry.routed.comm-exact",
        Some(("exact.comm_exact.busy_ms", "exact.comm_exact.count")),
    ),
    engine(
        "comm-bb",
        "exact.comm_bb",
        "solver.registry.routed.comm-bb",
        Some(("exact.comm_bb.busy_ms", "exact.comm_bb.count")),
    ),
    engine(
        "heuristic",
        "heuristics.heuristic",
        "solver.registry.routed.heuristic",
        Some(("heuristics.heuristic.busy_ms", "heuristics.heuristic.count")),
    ),
    engine(
        "comm-heuristic",
        "heuristics.comm_heuristic",
        "solver.registry.routed.comm-heuristic",
        Some((
            "heuristics.comm_heuristic.busy_ms",
            "heuristics.comm_heuristic.count",
        )),
    ),
    engine(
        "hedged",
        "solver.hedged",
        "solver.registry.routed.hedged",
        None,
    ),
];

/// The span name an engine's `Engine::solve` is recorded under.
pub fn engine_layer(name: &str) -> &'static str {
    ENGINES
        .iter()
        .find(|e| e.engine == name)
        .map_or("solver.other_engine", |e| e.layer)
}

/// Per-layer metrics, reported by every workload in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.parse.us_p50", "us"),
    ("core.parse.bytes_p50", "bytes"),
    ("core.fingerprint.us_p50", "us"),
    ("core.cost.us_p50", "us"),
    ("solver.registry.route.us_p50", "us"),
    ("solver.registry.routed.paper", "count"),
    ("solver.registry.routed.exact", "count"),
    ("solver.registry.routed.comm-exact", "count"),
    ("solver.registry.routed.comm-bb", "count"),
    ("solver.registry.routed.heuristic", "count"),
    ("solver.registry.routed.comm-heuristic", "count"),
    ("solver.registry.routed.hedged", "count"),
    ("solver.registry.fallbacks", "count"),
    ("solver.cache.hit_ratio", "ratio"),
    ("solver.cache.hit.us_p50", "us"),
    ("solver.cache.insertions", "count"),
    ("solver.cache.evictions", "count"),
    ("solver.pool.queue_wait_ms_per_job", "ms"),
    ("solver.pool.utilization", "ratio"),
    ("solver.pool.jobs", "count"),
    ("solver.report.canonical.us_p50", "us"),
    ("solver.report.canonical.bytes_p50", "bytes"),
    ("solver.hedge.races", "count"),
    ("solver.hedge.window_rescues", "count"),
    ("solver.hedge.losers_cancelled", "count"),
    ("solver.validate.busy_ms", "ms"),
    ("algorithms.paper.busy_ms", "ms"),
    ("algorithms.paper.count", "count"),
    ("exact.exact.busy_ms", "ms"),
    ("exact.exact.count", "count"),
    ("exact.comm_exact.busy_ms", "ms"),
    ("exact.comm_exact.count", "count"),
    ("exact.comm_bb.busy_ms", "ms"),
    ("exact.comm_bb.count", "count"),
    ("heuristics.heuristic.busy_ms", "ms"),
    ("heuristics.heuristic.count", "count"),
    ("heuristics.comm_heuristic.busy_ms", "ms"),
    ("heuristics.comm_heuristic.count", "count"),
    ("exact.comm_bb.nodes", "count"),
    ("exact.comm_bb.pruned_bound", "count"),
    ("exact.comm_bb.pruned_dominated", "count"),
    ("exact.comm_bb.nodes_per_ms", "1/ms"),
    ("exact.comm_bb.completed_ratio", "ratio"),
    ("multicrit.front.busy_ms", "ms"),
    ("multicrit.front.points", "count"),
    ("multicrit.front.solves_per_front", "count"),
    ("multicrit.front.cache_hit_ratio", "ratio"),
    ("serve.wire.rtt_us_p50", "us"),
    ("serve.wire.response_bytes_p50", "bytes"),
    ("serve.admission.rejected", "count"),
    ("serve.admission.high_water", "count"),
    ("serve.daemon.threads_peak", "count"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.blocking_sum_ratio", "ratio"),
    ("trace.canonical_mismatches", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Requests attempted (in the timed windows).
    pub attempted: u64,
    /// Errors, shed requests and wrong answers among them.
    pub failed: u64,
    /// A description of every wrong answer or failed check.
    pub wrong: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn wrong(&mut self, what: String) {
        eprintln!("WRONG: {what}");
        self.wrong.push(what);
    }

    /// The result line: every metric of the catalogue for this mode.
    /// A layer a workload does not exercise reads 0; a missing or
    /// non-finite end-to-end metric is returned as missing.
    pub fn result_line(&self, trace: bool) -> (String, Vec<&'static str>) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) if v.is_finite() => *v,
                    None if trace => 0.0,
                    _ => {
                        missing.push(*name);
                        0.0
                    }
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.wrong.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        (line, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue name the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = serde_json::parse_value(&text).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .field(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.field(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut out = RunOutput::default();
        out.set("setup_s", 0.5);
        let (line, missing) = out.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        serde_json::parse_value(&line).unwrap();
    }
}
