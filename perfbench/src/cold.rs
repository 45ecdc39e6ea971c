//! `cold-solve`: one closed-loop caller through an in-process
//! `SolverService` (the CLI and embedding path). Every request is a
//! distinct seeded instance, so the solve cache never hits and the
//! engines plus witness validation do nearly all the work.

use crate::calib::SpeedTrack;
use crate::check;
use crate::gen::{Generator, Kind, Req, Verb};
use crate::metrics::{engine_layer, RunOutput, ENGINES};
use crate::stats::{geomean, median, tail};
use crate::trace::{median_profile, print_table, Tracer};
use crate::Opts;
use repliflow_core::comm::IntervalAlloc;
use repliflow_core::instance::{CostModel, ProblemInstance};
use repliflow_core::mapping::Mode;
use repliflow_core::rational::Rat;
use repliflow_core::reliability::{reduce, ReliabilityReduction};
use repliflow_core::workflow::Workflow;
use repliflow_multicrit::{FrontReport, FrontRequest, FrontSolver};
use repliflow_solver::{
    Budget, Engine, EnginePref, EngineRegistry, FallbackReason, Optimality, Provenance, SolveError,
    SolveReport, SolverService,
};
use repliflow_sync::sync::Arc;
use std::path::Path;
use std::time::{Duration, Instant};

/// One cycle of the request mix. Time goes mostly to the heuristic
/// fork-join, the comm-bb pipelines and the reliability-bounded
/// instances; most requests are small cells, so the median lands among
/// the exact-DP cells and the fronts, whose times overlap, and not on a
/// gap between kinds. Pareto fronts take 0.7-2.5 ms each, a wide
/// spread, so a cycle carries eight of them for a steady median.
const CYCLE: [Kind; 40] = [
    Kind::Heuristic,
    Kind::Exact,
    Kind::CommBb,
    Kind::Front,
    Kind::Paper,
    Kind::Exact,
    Kind::Reliability,
    Kind::Front,
    Kind::Exact,
    Kind::CommExact,
    Kind::Exact,
    Kind::Front,
    Kind::CommBb,
    Kind::Exact,
    Kind::Paper,
    Kind::Exact,
    Kind::Front,
    Kind::Reliability,
    Kind::Exact,
    Kind::Exact,
    Kind::CommBb,
    Kind::Front,
    Kind::Paper,
    Kind::Exact,
    Kind::Exact,
    Kind::Front,
    Kind::CommExact,
    Kind::Exact,
    Kind::Reliability,
    Kind::Exact,
    Kind::Front,
    Kind::Exact,
    Kind::CommBb,
    Kind::Paper,
    Kind::Exact,
    Kind::Front,
    Kind::Exact,
    Kind::Exact,
    Kind::Exact,
    Kind::Exact,
];

/// How often the closed loop probes the host's speed (between requests).
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Passes of the hit path over the completed requests.
const HIT_PASSES: usize = 5;

/// Requests generated per run: more than one caller completes in a 60 s
/// window on the machine the baseline comes from.
const REQUESTS: usize = 80 * CYCLE.len();

/// The cold-solve request stream of a seed.
pub fn requests(seed: u64) -> Vec<Req> {
    let mut gen = Generator::new(seed);
    (0..REQUESTS)
        .map(|i| gen.request(CYCLE[i % CYCLE.len()]))
        .collect()
}

/// An answer in the embedding API's own types.
enum Answer {
    Solve(Arc<SolveReport>),
    Front(Arc<FrontReport>),
}

struct Ready {
    requests: Vec<Req>,
    service: Arc<SolverService>,
    front: FrontSolver,
}

/// Set-up: generate the inputs, build the service as an embedding
/// caller does, and solve the golden instances once (which checks them
/// against their snapshots and starts the engines' lazy state).
fn setup(seed: u64, out: &mut RunOutput) -> Ready {
    let requests = requests(seed);
    // Sized so nothing a run solves (requests, goldens, front points) is
    // evicted: the hit pass below must find every answer.
    let service = Arc::new(SolverService::builder().cache_capacity(1 << 13).build());
    let front = FrontSolver::with_cache(Arc::clone(&service), 1 << 13, 8);
    let dir = Path::new("examples/instances");
    if let Err(e) = check::goldens(&service, dir) {
        out.wrong(format!("golden: {e}"));
    }
    Ready {
        requests,
        service,
        front,
    }
}

fn solve_untraced(ready: &Ready, req: &Req) -> Result<Answer, SolveError> {
    let instance: ProblemInstance = serde_json::from_str(&req.body)
        .map_err(|e| SolveError::InvalidWitness(format!("parse: {e}")))?;
    match req.verb {
        Verb::Solve => ready
            .service
            .solve(&req.solve_request(instance))
            .map(Answer::Solve),
        Verb::Pareto => ready
            .front
            .solve_front(&FrontRequest::new(instance))
            .map(Answer::Front),
    }
}

pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut speed = SpeedTrack::this_thread();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..crate::SETUP_REPEATS {
        speed.sample();
        let t = Instant::now();
        ready = Some(setup(opts.seed, &mut out));
        let secs = t.elapsed().as_secs_f64();
        setups.push((t + Duration::from_secs_f64(secs / 2.0), secs));
    }
    speed.sample();
    let ready = ready.expect("at least one set-up");
    let setups: Vec<f64> = setups.iter().map(|&(t, s)| speed.scale(s, t)).collect();
    out.set("setup_s", median(&setups).unwrap_or(0.0));

    // The timed window (half of it when a traced replay follows).
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let stats_before = ready.service.stats();
    let cache_before = ready.service.cache_stats().unwrap_or_default();
    // (request, middle of its solve, raw ms, answer)
    let mut timed: Vec<(usize, Instant, f64, Result<Answer, SolveError>)> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    for (i, req) in ready.requests.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        if speed.last().is_none_or(|p| p.elapsed() >= PROBE_EVERY) {
            speed.sample();
        }
        let t = Instant::now();
        let answer = solve_untraced(&ready, req);
        let took = t.elapsed();
        timed.push((i, t + took / 2, took.as_secs_f64() * 1e3, answer));
    }
    speed.sample();
    let raw: Vec<f64> = timed.iter().map(|d| d.2).collect();
    // (request, nominal-host ms, answer)
    let done: Vec<(usize, f64, Result<Answer, SolveError>)> = timed
        .into_iter()
        .map(|(i, t, ms, answer)| (i, speed.scale(ms, t), answer))
        .collect();
    let elapsed = done.iter().map(|d| d.1).sum::<f64>() / 1e3;
    let stats_after = ready.service.stats();
    let cache_after = ready.service.cache_stats().unwrap_or_default();

    // Checks, outside the window.
    out.attempted = done.len() as u64;
    let mut proven = 0usize;
    let mut ratios = Vec::new();
    let mut front_ms = Vec::new();
    for (i, ms, answer) in &done {
        let req = &ready.requests[*i];
        match answer {
            // No admission control sheds here: every error is a wrong answer.
            Err(e) => {
                out.failed += 1;
                out.wrong(format!("request {i} ({}) failed: {e}", req.kind.name()));
            }
            Ok(Answer::Solve(report)) => {
                let verdict = check::rederive(&req.instance, report)
                    .and_then(|()| check::oracle(&req.instance, report).unwrap_or(Ok(())));
                if let Err(e) = verdict {
                    out.failed += 1;
                    out.wrong(format!("request {i} ({}): {e}", req.kind.name()));
                    continue;
                }
                proven += usize::from(report.optimality == Optimality::Proven);
                if let (Some(v), Some(r)) = (
                    report.objective_value,
                    check::reference_objective(&req.instance),
                ) {
                    ratios.push(v.to_f64() / r);
                }
            }
            Ok(Answer::Front(front)) => {
                front_ms.push(*ms);
                if let Err(e) = check_front(&req.instance, front) {
                    out.failed += 1;
                    out.wrong(format!("request {i} (front): {e}"));
                    continue;
                }
                proven += usize::from(
                    front
                        .points
                        .iter()
                        .all(|p| p.optimality == Optimality::Proven),
                );
            }
        }
    }
    let latencies: Vec<f64> = done.iter().map(|d| d.1).collect();
    let n = done.len().max(1) as f64;
    out.set("solves_per_s", done.len() as f64 / elapsed.max(1e-9));
    out.set("latency_p50_ms", median(&latencies).unwrap_or(0.0));
    out.set("latency_tail_ms", tail(&latencies).map_or(0.0, |t| t.value));
    out.set("front_latency_p50_ms", median(&front_ms).unwrap_or(0.0));
    out.set("answered_share", (n - out.failed as f64) / n);
    out.set("proven_share", proven as f64 / n);
    out.set("objective_geomean", geomean(&ratios).unwrap_or(0.0));
    if let Some(t) = tail(&latencies) {
        eprintln!(
            "cold-solve: {} requests in {:.2}s of solving ({elapsed:.2}s on the nominal host; \
             reference pass {:.3} ms; raw p50 {:.4} ms), tail p{:.2} from {} samples",
            done.len(),
            raw.iter().sum::<f64>() / 1e3,
            speed.median_ms(),
            median(&raw).unwrap_or(0.0),
            t.percentile,
            latencies.len()
        );
    }
    let mut by_kind: Vec<(&str, usize, f64)> = Vec::new();
    for (i, ms, _) in &done {
        let kind = ready.requests[*i].kind.name();
        match by_kind.iter_mut().find(|k| k.0 == kind) {
            Some(k) => (k.1, k.2) = (k.1 + 1, k.2 + ms),
            None => by_kind.push((kind, 1, *ms)),
        }
    }
    let by_kind: Vec<String> = by_kind
        .iter()
        .map(|(kind, n, ms)| format!("{kind} {n} in {:.2}s", ms / 1e3))
        .collect();
    eprintln!("cold-solve by kind: {}", by_kind.join(", "));

    // Every completed request again: each must now be answered from the
    // caches (the hit path's cost is a per-layer metric).
    let mut hit_solve_us = Vec::new();
    for _ in 0..HIT_PASSES {
        for (i, _, answer) in &done {
            if answer.is_err() {
                continue;
            }
            let req = &ready.requests[*i];
            let instance: ProblemInstance =
                serde_json::from_str(&req.body).expect("generated bodies parse");
            let s = Instant::now();
            let hit = match req.verb {
                Verb::Solve => ready
                    .service
                    .solve(&req.solve_request(instance))
                    .map(|r| r.provenance == Provenance::Cached),
                Verb::Pareto => ready
                    .front
                    .solve_front(&FrontRequest::new(instance))
                    .map(|r| r.provenance == Provenance::Cached),
            };
            if req.verb == Verb::Solve {
                hit_solve_us.push(s.elapsed().as_secs_f64() * 1e6);
            }
            if hit.ok() != Some(true) {
                out.wrong(format!("request {i} was not answered from the cache"));
            }
        }
    }
    out.set(
        "peak_rss_mb",
        crate::daemon::peak_rss_mb("self").unwrap_or(0.0),
    );

    if opts.trace {
        let requests = stats_after.requests - stats_before.requests;
        let hits = stats_after.cache_hits - stats_before.cache_hits;
        out.set(
            "solver.cache.hit_ratio",
            hits as f64 / requests.max(1) as f64,
        );
        out.set(
            "solver.cache.hit.us_p50",
            median(&hit_solve_us).unwrap_or(0.0),
        );
        out.set(
            "solver.cache.insertions",
            (cache_after.insertions - cache_before.insertions) as f64,
        );
        out.set(
            "solver.cache.evictions",
            (cache_after.evictions - cache_before.evictions) as f64,
        );
        let jobs = stats_after.jobs_executed - stats_before.jobs_executed;
        let wait = stats_after
            .queue_wait
            .saturating_sub(stats_before.queue_wait);
        out.set(
            "solver.pool.queue_wait_ms_per_job",
            wait.as_secs_f64() * 1e3 / jobs.max(1) as f64,
        );
        out.set("solver.pool.utilization", stats_after.worker_utilization);
        out.set("solver.pool.jobs", jobs as f64);
        for e in ENGINES {
            let routed = done
                .iter()
                .filter(|d| matches!(&d.2, Ok(Answer::Solve(r)) if r.engine_used == e.engine))
                .count();
            out.set(e.routed, routed as f64);
        }
        let fallbacks = done
            .iter()
            .filter(|d| matches!(&d.2, Ok(Answer::Solve(r)) if r.fallback.is_some()))
            .count();
        out.set("solver.registry.fallbacks", fallbacks as f64);
        let hedge = stats_after.hedge;
        out.set("solver.hedge.races", hedge.races as f64);
        out.set("solver.hedge.window_rescues", hedge.window_rescues as f64);
        out.set(
            "solver.hedge.losers_cancelled",
            hedge.losers_cancelled as f64,
        );
        traced_replay(&ready, &done, &raw, &mut out);
    }
    Ok(out)
}

/// Re-derives every front point's (period, latency).
fn check_front(instance: &ProblemInstance, front: &FrontReport) -> Result<(), String> {
    if front.points.is_empty() {
        return Err("empty front".into());
    }
    for p in &front.points {
        let (period, latency) = instance
            .objectives(&p.mapping)
            .map_err(|e| format!("front point does not evaluate: {e}"))?;
        if (period, latency) != (p.period, p.latency) {
            return Err(format!(
                "front point ({}, {}) but the cost model gives ({period}, {latency})",
                p.period, p.latency
            ));
        }
    }
    Ok(())
}

/// Replays the completed requests through the public calls each layer
/// exposes, with a span around every call, and reports the per-layer
/// metrics and the blocking-path table.
fn traced_replay(
    ready: &Ready,
    done: &[(usize, f64, Result<Answer, SolveError>)],
    untraced_ms: &[f64],
    out: &mut RunOutput,
) {
    let registry = EngineRegistry::default();
    let budget = Budget::default();
    // Fronts are solved on a fresh service so they compute again.
    let front_service = Arc::new(SolverService::builder().build());
    let front = FrontSolver::new(Arc::clone(&front_service));
    let mut tracer = Tracer::new();
    let mut bb = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut mismatches = 0u64;
    let mut canonical_bytes = Vec::new();
    let mut body_bytes = Vec::new();
    let mut front_points = 0usize;
    let mut fronts = 0usize;
    for (i, _, answer) in done {
        let req = &ready.requests[*i];
        let Ok(answer) = answer else { continue };
        let id = *i as u64;
        let root = tracer.begin("request", id, None);
        body_bytes.push(req.body.len() as f64);
        let instance: ProblemInstance = tracer.span("core.parse", id, Some(root), || {
            serde_json::from_str(&req.body).expect("generated bodies parse")
        });
        match (req.verb, answer) {
            (Verb::Pareto, _) => {
                let report = tracer.span("multicrit.front", id, Some(root), || {
                    front.solve_front(&FrontRequest::new(instance))
                });
                if let Ok(report) = report {
                    front_points += report.points.len();
                    fronts += 1;
                }
            }
            (Verb::Solve, Answer::Solve(untraced)) => {
                let request = req.solve_request(instance.clone());
                tracer.span("core.fingerprint", id, Some(root), || request.fingerprint());
                let report = decomposed_solve(
                    &registry,
                    &budget,
                    &instance,
                    &mut tracer,
                    id,
                    root,
                    &mut bb,
                );
                // A replay that leaves the service's path would time other
                // work than the service did: that fails the run.
                match report {
                    Ok(report) => {
                        let canonical =
                            tracer.span("solver.report.canonical", id, Some(root), || {
                                report.canonical_json()
                            });
                        canonical_bytes.push(canonical.len() as f64);
                        let service = untraced.canonical_json();
                        if canonical != service {
                            mismatches += 1;
                            out.wrong(format!(
                                "request {i}: the replay answers differently\n  replay:  {canonical}\n  service: {service}"
                            ));
                        }
                    }
                    Err(e) => {
                        mismatches += 1;
                        out.wrong(format!("request {i}: the replay fails: {e}"));
                    }
                }
            }
            (Verb::Solve, Answer::Front(_)) => unreachable!("solve requests answer reports"),
        }
        tracer.end(root);
    }

    let us_p50 = |name: &str| median(&tracer.durations_us(name)).unwrap_or(0.0);
    out.set("core.parse.us_p50", us_p50("core.parse"));
    out.set("core.parse.bytes_p50", median(&body_bytes).unwrap_or(0.0));
    out.set("core.fingerprint.us_p50", us_p50("core.fingerprint"));
    out.set("core.cost.us_p50", us_p50("core.cost"));
    out.set(
        "solver.registry.route.us_p50",
        us_p50("solver.registry.route"),
    );
    out.set(
        "solver.report.canonical.us_p50",
        us_p50("solver.report.canonical"),
    );
    out.set(
        "solver.report.canonical.bytes_p50",
        median(&canonical_bytes).unwrap_or(0.0),
    );
    out.set("solver.validate.busy_ms", tracer.busy_ms("solver.validate"));
    for e in ENGINES {
        if let Some((busy, count)) = e.busy_count {
            out.set(busy, tracer.busy_ms(e.layer));
            out.set(count, tracer.durations_us(e.layer).len() as f64);
        }
    }
    let (nodes, pruned_bound, pruned_dominated, completed, runs) = bb;
    out.set("exact.comm_bb.nodes", nodes as f64);
    out.set("exact.comm_bb.pruned_bound", pruned_bound as f64);
    out.set("exact.comm_bb.pruned_dominated", pruned_dominated as f64);
    out.set(
        "exact.comm_bb.nodes_per_ms",
        nodes as f64 / tracer.busy_ms("exact.comm_bb").max(1e-9),
    );
    out.set(
        "exact.comm_bb.completed_ratio",
        completed as f64 / runs.max(1) as f64,
    );
    let fs = front_service.stats();
    out.set("multicrit.front.busy_ms", tracer.busy_ms("multicrit.front"));
    out.set(
        "multicrit.front.points",
        front_points as f64 / fronts.max(1) as f64,
    );
    out.set(
        "multicrit.front.solves_per_front",
        fs.requests as f64 / fronts.max(1) as f64,
    );
    out.set("multicrit.front.cache_hit_ratio", fs.hit_rate());
    out.set("trace.canonical_mismatches", mismatches as f64);

    let profiles = tracer.request_profiles("request");
    let traced: Vec<f64> = profiles.iter().map(|p| p.0 as f64 / 1e6).collect();
    let untraced_p50 = median(untraced_ms).unwrap_or(0.0);
    let traced_p50 = median(&traced).unwrap_or(0.0);
    out.set(
        "trace.overhead_share",
        (traced_p50 - untraced_p50) / untraced_p50.max(1e-9),
    );
    let rows = median_profile(&profiles);
    let ratio = print_table("cold-solve", &rows, &[], untraced_p50);
    out.set("trace.blocking_sum_ratio", ratio);
    crate::write_spans(&tracer, "cold-solve");
}

/// The registry's solve path rebuilt from its public pieces, one span
/// per layer: reliability reduction, route, engine, witness validation
/// (legality, cost re-derivation, simulator re-execution of
/// single-processor comm pipelines) and report assembly. It covers the
/// cases the generated mix reaches: no strict or unattainable bounds, no
/// infeasible answers, and comm-aware instances that are pipelines. Its
/// answers must be byte-identical to the service's, so a request that
/// leaves these cases fails the run instead of being timed on a path the
/// service does not take.
fn decomposed_solve(
    registry: &EngineRegistry,
    budget: &Budget,
    instance: &ProblemInstance,
    tracer: &mut Tracer,
    id: u64,
    root: usize,
    bb: &mut (u64, u64, u64, u64, u64),
) -> Result<SolveReport, SolveError> {
    let relaxed = match reduce(instance) {
        ReliabilityReduction::Trivial(objective) => ProblemInstance {
            objective,
            ..instance.clone()
        },
        _ => instance.clone(),
    };
    let (engine, fallback) = tracer.span("solver.registry.route", id, Some(root), || {
        route(registry, &relaxed, budget)
    })?;
    let layer = engine_layer(engine.name());
    let outcome = tracer.span(layer, id, Some(root), || engine.solve(&relaxed, budget));
    let (optimality, run) = match outcome {
        Ok(run) => (
            if run.optimal {
                Optimality::Proven
            } else {
                Optimality::Heuristic
            },
            run,
        ),
        Err(e) => return Err(e),
    };
    if let Some(s) = &run.search {
        bb.0 += s.nodes;
        bb.1 += s.pruned_bound;
        bb.2 += s.pruned_dominated;
        bb.3 += u64::from(s.completed);
        bb.4 += 1;
    }
    let solved = run.solved;
    let validate = tracer.begin("solver.validate", id, Some(root));
    solved
        .mapping
        .validate(
            &relaxed.workflow,
            &relaxed.platform,
            relaxed.allow_data_parallel,
        )
        .map_err(|e| SolveError::InvalidWitness(e.to_string()))?;
    let (period, latency) = tracer
        .span("core.cost", id, Some(validate), || {
            relaxed.objectives(&solved.mapping)
        })
        .map_err(|e| SolveError::InvalidWitness(e.to_string()))?;
    if (period, latency) != (solved.period, solved.latency) {
        return Err(SolveError::InvalidWitness("cost mismatch".into()));
    }
    tracer.span("sim.cross_check", id, Some(validate), || {
        sim_cross_check(&relaxed, &solved.mapping, period, latency)
    })?;
    tracer.end(validate);
    let optimality = if relaxed.objective.meets_bound(period, latency)
        && relaxed.meets_reliability_bound(&solved.mapping)
    {
        optimality
    } else {
        Optimality::Infeasible
    };
    let variant = instance.variant();
    Ok(SolveReport {
        variant,
        complexity: variant.paper_complexity(),
        cost_model: instance.cost_model.clone(),
        engine_used: engine.name(),
        optimality,
        mapping: Some(solved.mapping),
        period: Some(period),
        latency: Some(latency),
        objective_value: Some(solved.objective),
        search: run.search,
        fallback,
        provenance: Provenance::Computed,
        wall_time: Duration::ZERO,
    })
}

/// `Auto` routing through the registry's public resolvers.
fn route<'r>(
    registry: &'r EngineRegistry,
    instance: &ProblemInstance,
    budget: &Budget,
) -> Result<(&'r dyn Engine, Option<FallbackReason>), SolveError> {
    let variant = instance.variant();
    if let CostModel::WithComm { .. } = &instance.cost_model {
        registry.resolve_comm(EnginePref::Auto, &variant, instance, budget)
    } else {
        registry
            .resolve(
                EnginePref::Auto,
                &variant,
                instance.workflow.n_stages(),
                instance.platform.n_procs(),
                budget,
            )
            .map(|e| (e, None))
    }
}

/// Re-executes a comm-aware pipeline witness with one processor per
/// interval through the discrete-event simulator.
fn sim_cross_check(
    instance: &ProblemInstance,
    mapping: &repliflow_core::mapping::Mapping,
    period: Rat,
    latency: Rat,
) -> Result<(), SolveError> {
    let (CostModel::WithComm { network, .. }, Workflow::Pipeline(pipe)) =
        (&instance.cost_model, &instance.workflow)
    else {
        return Ok(());
    };
    let single = mapping
        .assignments()
        .iter()
        .all(|a| a.n_procs() == 1 && a.mode == Mode::Replicated);
    if !single {
        return Ok(());
    }
    let mut alloc: Vec<IntervalAlloc> = mapping
        .assignments()
        .iter()
        .map(|a| IntervalAlloc {
            lo: a.stages()[0],
            hi: *a.stages().last().expect("non-empty interval"),
            proc: a.procs()[0],
        })
        .collect();
    alloc.sort_by_key(|a| a.lo);
    let sim = repliflow_sim::simulate_pipeline_with_comm(
        pipe,
        &instance.platform,
        network,
        &alloc,
        repliflow_sim::Feed::Saturated,
        8 * alloc.len() + 8,
    );
    let sim_latency = repliflow_sim::simulate_pipeline_with_comm(
        pipe,
        &instance.platform,
        network,
        &alloc,
        repliflow_sim::Feed::Interval(latency + Rat::ONE),
        4,
    );
    if sim.measured_period(8) != period || sim_latency.max_latency() != latency {
        return Err(SolveError::InvalidWitness("simulator disagrees".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Same seed, same request bytes and the same set of cache keys.
    #[test]
    fn generation_is_seeded() {
        let a = requests(11);
        let b = requests(11);
        let bytes = |rs: &[Req]| rs.iter().map(|r| r.wire_line(0)).collect::<Vec<_>>();
        assert_eq!(bytes(&a), bytes(&b));
        let keys = |rs: &[Req]| rs.iter().map(|r| r.fingerprint()).collect::<BTreeSet<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(bytes(&a), bytes(&requests(12)));
        // every request is distinct: the cache cannot hit
        assert_eq!(keys(&a).len(), a.len());
        // mixed-daemon's working set too
        let ws = |seed| Generator::new(seed).working_set(50, 30);
        assert_eq!(bytes(&ws(11)), bytes(&ws(11)));
        assert_eq!(keys(&ws(11)), keys(&ws(11)));
    }

    /// The traced replay follows the service's path on a full cycle of the
    /// mix: every replayed answer is byte-identical to the service's.
    #[test]
    fn replay_matches_the_service_on_a_full_cycle() {
        let service = SolverService::builder().no_cache().build();
        let registry = EngineRegistry::default();
        let budget = Budget::default();
        let mut tracer = Tracer::new();
        let mut bb = (0, 0, 0, 0, 0);
        for (i, req) in requests(8).iter().take(CYCLE.len()).enumerate() {
            if req.verb != Verb::Solve {
                continue;
            }
            let served = service
                .solve(&req.solve_request(req.instance.clone()))
                .unwrap();
            let root = tracer.begin("request", i as u64, None);
            let replayed = decomposed_solve(
                &registry,
                &budget,
                &req.instance,
                &mut tracer,
                i as u64,
                root,
                &mut bb,
            )
            .unwrap_or_else(|e| panic!("request {i} ({}): {e}", req.kind.name()));
            tracer.end(root);
            assert_eq!(
                replayed.canonical_json(),
                served.canonical_json(),
                "request {i} ({})",
                req.kind.name()
            );
        }
        assert!(bb.4 > 0, "the cycle runs comm-bb");
    }

    /// The mix routes to the heuristic, comm-bb and paper engines, and no
    /// comm-bb search stops at its node or time limit.
    #[test]
    fn mix_covers_the_engines_and_comm_bb_completes() {
        let service = SolverService::builder().no_cache().build();
        let mut engines = BTreeSet::new();
        for req in requests(5).iter().take(2 * CYCLE.len()) {
            if req.verb != Verb::Solve {
                continue;
            }
            let report = service
                .solve(&req.solve_request(req.instance.clone()))
                .unwrap();
            engines.insert(report.engine_used);
            if report.engine_used == "comm-bb" {
                let search = report.search.expect("comm-bb reports its search");
                assert!(search.completed, "comm-bb stopped at a limit");
                assert_eq!(report.optimality, Optimality::Proven);
            }
        }
        for engine in [
            "heuristic",
            "comm-bb",
            "paper",
            "exact",
            "comm-exact",
            "comm-heuristic",
        ] {
            assert!(
                engines.contains(engine),
                "{engine} missing from {engines:?}"
            );
        }
    }
}
