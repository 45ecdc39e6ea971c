//! The daemon workload, `mixed-daemon`: one fixed rate of Poisson
//! arrivals over a cache-resident, Zipf-skewed working set, while fresh
//! comm-aware misses (some hedged) and Pareto fronts compute on the same
//! pool, with a cache smaller than its key set.
//!
//! Per-layer numbers come from outside the daemon three ways: client
//! spans from the generator's timestamps, an in-process replay of the
//! same request lines through the public calls on an identically warmed
//! service, and `stats`-verb deltas.

use crate::calib::SpeedTrack;
use crate::check;
use crate::daemon::{peak_rss_mb, per_engine, proc_status, stat, Daemon};
use crate::gen::{zipf_cdf, zipf_pick, Generator, Kind, Req, Verb};
use crate::metrics::{RunOutput, ENGINES};
use crate::openloop::{closed_loop, poisson_schedule, run_schedule, Arrival, Outcome};
use crate::stats::{geomean, lower_quartile, median, per_window, percentile, tail, TAIL_BEYOND};
use crate::trace::{median_profile, print_table, Tracer};
use crate::Opts;
use repliflow_core::instance::ProblemInstance;
use repliflow_multicrit::{FrontRequest, FrontSolver};
use repliflow_serve::protocol::{front_to_wire, ok_response, parse_request, report_to_wire};
use repliflow_solver::{Provenance, SolverService};
use repliflow_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use repliflow_sync::sync::Arc;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Distinct cache-resident requests; their popularity is Zipf by rank.
/// They are evicted and recomputed, so they stay small and the computes
/// measured are the fresh misses.
const WORKING_SET: usize = 200;
const MAX_STAGES: usize = 30;
const ZIPF_S: f64 = 1.0;
/// Connections the warm-up pass uses.
const WARM_CONNECTIONS: usize = 2;
/// Latencies are taken per window of consecutive requests (windows of at
/// least `WINDOW_MIN` requests for the tail, `P50_WINDOW_MIN` for the
/// median) and reported as the lower quartile over the windows. Shared
/// virtual machines lose their CPUs for milliseconds at a time, often
/// for seconds on end; such stalls only ever add latency, and the lower
/// quartile reads the windows they spared. About 4% of the hits wait
/// behind computes, and a window's tail (p99 at 1000 requests) must lie
/// well inside that share, not on its edge. A median needs far fewer
/// requests, and more windows make the quartile over them steadier.
const WINDOW_MIN: usize = 1000;
const P50_WINDOW_MIN: usize = 200;
/// Idle time before a segment's first arrival, so the receiving thread
/// is up before anything is due.
const LEAD_IN: Duration = Duration::from_millis(10);
/// The schedule runs in segments of this length; between two, the
/// daemon drains and the host's speed is probed.
const SEGMENT: Duration = Duration::from_secs(1);
/// Schedule generated per second of run: enough for a host twice as
/// fast as the nominal one.
const SCHEDULE_SPAN: f64 = 2.0;
/// The fixed rate, the shares of fresh comm-aware misses (half of them
/// hedged) and fresh fronts, and the cache size.
const RATE_RPS: f64 = 200.0;
const MISS_SHARE: f64 = 0.03;
const FRONT_SHARE: f64 = 0.04;
const CACHE_CAPACITY: usize = WORKING_SET;
/// Every `KEEP_EVERY`-th answer is kept and compared byte for byte with
/// the in-process answer.
const KEEP_EVERY: usize = 20;
/// How long the run waits for stragglers after its last arrival.
const DRAIN: Duration = Duration::from_secs(10);

/// A warmed daemon with the generator's connection open.
struct Warm {
    daemon: Daemon,
    conn: TcpStream,
}

/// Spawns the daemon and sends every request of `warm` once, split over
/// the connections; `setup_s` is the median over the repeats.
fn setup(warm: &[Req], cache: usize, out: &mut RunOutput) -> Result<Warm, String> {
    let mut speed = SpeedTrack::every_cpu();
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(ready.take());
        speed.sample();
        let t = Instant::now();
        let daemon = Daemon::spawn(cache)?;
        let lines: Vec<String> = warm
            .iter()
            .enumerate()
            .map(|(i, r)| r.wire_line(i as u64))
            .collect();
        let halves: Vec<&[String]> = lines
            .chunks(lines.len().div_ceil(WARM_CONNECTIONS))
            .collect();
        let answers: Vec<std::io::Result<Vec<String>>> = repliflow_sync::thread::scope(|s| {
            let hs: Vec<_> = halves
                .iter()
                .map(|h| s.spawn(|| closed_loop(daemon.addr, h)))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("warm-up thread"))
                .collect()
        });
        for answer in answers {
            let answer = answer.map_err(|e| format!("warm-up: {e}"))?;
            if let Some(bad) = answer.iter().find(|a| !a.contains("\"ok\":{")) {
                out.wrong(format!("warm-up answer: {bad}"));
            }
        }
        let conn = TcpStream::connect(daemon.addr)
            .and_then(|c| c.set_nodelay(true).map(|()| c))
            .map_err(|e| format!("connect: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        times.push((t + Duration::from_secs_f64(secs / 2.0), secs));
        ready = Some(Warm { daemon, conn });
    }
    speed.sample();
    let times: Vec<f64> = times.iter().map(|&(t, s)| speed.scale(s, t)).collect();
    out.set("setup_s", median(&times).unwrap_or(0.0));
    ready.ok_or_else(|| "no set-up".to_string())
}

/// Runs the schedule while sampling the daemon's thread count, one
/// [`SEGMENT`] of it at a time, until `seconds` of wall time have passed.
///
/// Before each segment the daemon has answered everything and sits idle,
/// and the host's speed is probed. The segment then runs at that speed:
/// its due times are divided by the probe's factor, so a host at half
/// speed gets half the requests per second and the daemon's load stays
/// the same. Queueing grows faster than the host slows, so at a fixed
/// wall-clock rate scaled latencies would still follow the host. Returns
/// the outcomes, with due, sent and done times counted from the start of
/// the first segment; the factor that scales each one's latency to the
/// nominal host; and the length of schedule run, in nominal seconds.
fn measure(
    warm: &mut Warm,
    reqs: &[Req],
    schedule: &[Arrival],
    seconds: f64,
    threads_peak: &AtomicUsize,
) -> (Vec<Outcome>, Vec<f64>, f64) {
    let pid = warm.daemon.pid().to_string();
    let stop = AtomicBool::new(false);
    let render = |id: u64, req: usize| reqs[req].wire_line(id);
    let mut speed = SpeedTrack::every_cpu();
    let mut segments = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut origin = Duration::ZERO;
    repliflow_sync::thread::scope(|s| {
        s.spawn(|| {
            // relaxed: a stop flag and a running maximum; neither
            // publishes other data, and the scope's join orders the final
            // reads after every write.
            while !stop.load(Ordering::Relaxed) {
                if let Some(t) = proc_status(&pid, "Threads:") {
                    threads_peak.fetch_max(t as usize, Ordering::Relaxed);
                }
                repliflow_sync::thread::sleep(Duration::from_millis(20));
            }
        });
        let mut rest = schedule;
        while !rest.is_empty() && Instant::now() < deadline {
            origin += SEGMENT;
            let n = rest.partition_point(|a| a.due < origin);
            let (segment, later) = rest.split_at(n);
            rest = later;
            let factor = speed.sample();
            let base = origin - SEGMENT;
            let stretched: Vec<Arrival> = segment
                .iter()
                .map(|a| Arrival {
                    due: (a.due - base).div_f64(factor),
                    req: a.req,
                })
                .collect();
            let start = Instant::now() + LEAD_IN;
            let outcomes = run_schedule(
                &mut warm.conn,
                &stretched,
                start,
                DRAIN,
                KEEP_EVERY,
                &render,
            );
            segments.push((start - t0, factor, outcomes));
        }
        // relaxed: see the sampler loop above.
        stop.store(true, Ordering::Relaxed);
    });
    let mut outcomes = Vec::new();
    let mut factors = Vec::new();
    for (offset, factor, segment) in segments {
        for mut o in segment {
            o.slot = outcomes.len();
            o.due += offset;
            o.sent += offset;
            o.done = o.done.map(|d| d + offset);
            outcomes.push(o);
            factors.push(factor);
        }
    }
    eprintln!(
        "{:.1} s of schedule in {:.1} s; reference pass {:.3} ms",
        origin.as_secs_f64(),
        t0.elapsed().as_secs_f64(),
        speed.median_ms()
    );
    (outcomes, factors, origin.as_secs_f64())
}

/// The in-process twin of a daemon: same service geometry, warmed with
/// the same requests in the same order.
struct Twin {
    service: Arc<SolverService>,
    front: FrontSolver,
    /// Canonical answer bytes by request index.
    canonical: BTreeMap<usize, String>,
}

impl Twin {
    fn new(cache: usize) -> Twin {
        let service = Arc::new(SolverService::builder().cache_capacity(cache).build());
        let front = FrontSolver::new(Arc::clone(&service));
        Twin {
            service,
            front,
            canonical: BTreeMap::new(),
        }
    }

    /// Solves request `i` through the public API, checks the answer and
    /// records its canonical bytes.
    fn answer(&mut self, reqs: &[Req], i: usize, out: &mut RunOutput) -> Option<String> {
        let req = &reqs[i];
        let canonical = match req.verb {
            Verb::Solve => {
                let report = self
                    .service
                    .solve(&req.solve_request(req.instance.clone()))
                    .map_err(|e| out.wrong(format!("in-process solve {i}: {e}")))
                    .ok()?;
                if let Err(e) = check::rederive(&req.instance, &report)
                    .and_then(|()| check::oracle(&req.instance, &report).unwrap_or(Ok(())))
                {
                    out.wrong(format!("request {i} ({}): {e}", req.kind.name()));
                }
                report.canonical_json()
            }
            Verb::Pareto => self
                .front
                .solve_front(&FrontRequest::new(req.instance.clone()))
                .map_err(|e| out.wrong(format!("in-process front {i}: {e}")))
                .ok()?
                .canonical_json(),
        };
        self.canonical.insert(i, canonical.clone());
        Some(canonical)
    }
}

/// The canonical bytes a daemon answer carries.
fn wire_canonical(line: &str) -> Option<String> {
    let value = serde_json::parse_value(line).ok()?;
    let canonical = value.field("ok")?.field("canonical")?;
    serde_json::to_string(canonical).ok()
}

/// Compares the kept daemon answers, and every error the daemon returned
/// other than a shed, with the in-process ones. An error where the twin
/// answers is a wrong answer (an error of the twin itself already is).
/// Hedged answers depend on which racer wins, so they are held to the
/// proven optimum instead: equal when proven, no better when heuristic.
fn check_samples(outcomes: &[Outcome], reqs: &[Req], twin: &mut Twin, out: &mut RunOutput) {
    for o in outcomes {
        let Some(line) = &o.line else { continue };
        if o.shed {
            continue;
        }
        if !o.ok {
            let twin_answers =
                twin.canonical.contains_key(&o.req) || twin.answer(reqs, o.req, out).is_some();
            if twin_answers {
                out.wrong(format!("daemon error where in-process answers: {line}"));
            }
            continue;
        }
        let Some(remote) = wire_canonical(line) else {
            out.wrong(format!("unreadable answer: {line}"));
            continue;
        };
        let local = match twin.canonical.get(&o.req) {
            Some(c) => Some(c.clone()),
            None => twin.answer(reqs, o.req, out),
        };
        let Some(local) = local else { continue };
        let req = &reqs[o.req];
        if req.engine == repliflow_solver::EnginePref::Hedged {
            let objective = |c: &str| {
                serde_json::parse_value(c).ok().and_then(|v| {
                    v.field("objective")
                        .and_then(Value::as_str)
                        .and_then(parse_rat)
                })
            };
            let proven = remote.contains("\"optimality\":\"proven\"");
            // the in-process twin answers the hedged request too; the
            // optimum comes from the Auto (comm-bb) route
            let optimum = twin
                .service
                .solve(&repliflow_solver::SolveRequest::new(req.instance.clone()))
                .ok()
                .and_then(|r| r.objective_value.map(|v| v.to_f64()));
            match (objective(&remote), optimum) {
                (Some(got), Some(best))
                    if (proven && (got - best).abs() > 1e-9 * best.abs())
                        || got < best - 1e-9 * best.abs() =>
                {
                    out.wrong(format!("hedged answer {got} against optimum {best}"));
                }
                (None, _) | (_, None) => out.wrong(format!("hedged answer unreadable: {remote}")),
                _ => {}
            }
        } else if remote != local {
            out.wrong(format!(
                "daemon answer differs from in-process:\n  daemon:     {remote}\n  in-process: {local}"
            ));
        }
    }
}

/// A rational rendered as `a` or `a/b`, as a float.
fn parse_rat(s: &str) -> Option<f64> {
    match s.split_once('/') {
        Some((a, b)) => Some(a.parse::<f64>().ok()? / b.parse::<f64>().ok()?),
        None => s.parse().ok(),
    }
}

/// Latency, quality and proof metrics; latencies over windows of at
/// least [`WINDOW_MIN`] (tail) or [`P50_WINDOW_MIN`] (median) requests.
/// Returns the raw (unscaled) `latency_p50_ms`, which the traced run
/// sets against the replay's raw self times.
fn latency_metrics(
    outcomes: &[Outcome],
    factors: &[f64],
    reqs: &[Req],
    out: &mut RunOutput,
) -> f64 {
    let scaled = |keep: &dyn Fn(&Outcome) -> bool| -> Vec<f64> {
        outcomes
            .iter()
            .zip(factors)
            .filter(|(o, _)| keep(o))
            .filter_map(|(o, f)| o.latency_ms().map(|ms| ms * f))
            .collect()
    };
    let lat = scaled(&|_| true);
    let hits = scaled(&|o| o.cached);
    let fronts = scaled(&|o| reqs[o.req].verb == Verb::Pareto);
    let tail_ms = |v: &[f64]| per_window(v, WINDOW_MIN, |w| tail(w).map(|t| t.value));
    let p50_ms = |v: &[f64]| per_window(v, P50_WINDOW_MIN, median);
    let summary = |v: Vec<f64>| lower_quartile(&v).unwrap_or(0.0);
    let raw: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_ms).collect();
    let raw_p50 = summary(p50_ms(&raw));
    out.set("latency_p50_ms", summary(p50_ms(&lat)));
    out.set("latency_tail_ms", summary(tail_ms(&lat)));
    out.set("front_latency_p50_ms", median(&fronts).unwrap_or(0.0));
    let windows = tail_ms(&lat).len();
    // Not a reported metric: too unsteady from seed to seed (see README).
    eprintln!(
        "{} samples ({} hits, {} fronts) in {windows} windows; window tails are p{:.2}; \
         hit tail {:.3} ms; raw p50 {raw_p50:.4} ms",
        lat.len(),
        hits.len(),
        fronts.len(),
        100.0 * (1.0 - TAIL_BEYOND as f64 * windows as f64 / lat.len().max(1) as f64),
        summary(tail_ms(&hits)),
    );
    // quality over the distinct solve requests answered
    let mut seen = BTreeSet::new();
    let mut ratios = Vec::new();
    for o in outcomes {
        if let (Some(v), true) = (o.objective, seen.insert(o.req)) {
            if let Some(r) = check::reference_objective(&reqs[o.req].instance) {
                ratios.push(v / r);
            }
        }
    }
    out.set("objective_geomean", geomean(&ratios).unwrap_or(0.0));
    let answered = outcomes.iter().filter(|o| o.ok).count();
    let proven = outcomes.iter().filter(|o| o.ok && o.proven).count();
    out.set("proven_share", proven as f64 / answered.max(1) as f64);
    raw_p50
}

/// Counts failures of the measured requests.
fn account(outcomes: &[Outcome], out: &mut RunOutput) {
    out.attempted += outcomes.len() as u64;
    for o in outcomes {
        if !o.ok {
            out.failed += 1;
            match &o.line {
                Some(line) => eprintln!("failed request: {line}"),
                None if o.done.is_none() => eprintln!("request {} unanswered", o.slot),
                None => {}
            }
        }
    }
}

/// `stats`-verb deltas over the measured window: cache, pool, routes,
/// engines and hedging.
fn stats_deltas(before: &Value, after: &Value, out: &mut RunOutput) {
    let d = |path: &str| stat(after, path) - stat(before, path);
    let requests = d("service.requests");
    out.set(
        "solver.cache.hit_ratio",
        d("service.cache_hits") / requests.max(1.0),
    );
    out.set("solver.cache.insertions", d("cache.insertions"));
    out.set("solver.cache.evictions", d("cache.evictions"));
    let jobs = d("service.jobs_executed");
    out.set(
        "solver.pool.queue_wait_ms_per_job",
        d("service.queue_wait_ms") / jobs.max(1.0),
    );
    out.set(
        "solver.pool.utilization",
        stat(after, "service.worker_utilization"),
    );
    out.set("solver.pool.jobs", jobs);
    for e in ENGINES {
        let (wall0, n0) = per_engine(before, e.engine);
        let (wall1, n1) = per_engine(after, e.engine);
        out.set(e.routed, n1 - n0);
        if let Some((busy, count)) = e.busy_count {
            out.set(busy, wall1 - wall0);
            out.set(count, n1 - n0);
        }
    }
    out.set("solver.hedge.races", d("hedge.races"));
    out.set("solver.hedge.window_rescues", d("hedge.window_rescues"));
    out.set("solver.hedge.losers_cancelled", d("hedge.losers_cancelled"));
}

/// Replays request lines through the daemon's public calls on the
/// warmed twin, one span per call. Returns the traced and untraced
/// times (ms) of the requests the twin answered from its cache, each hit
/// timed both ways.
fn replay(
    reqs: &[Req],
    outcomes: &[Outcome],
    twin: &Twin,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) -> (Vec<f64>, Vec<f64>) {
    let mut traced_hits = Vec::new();
    let mut untraced_hits = Vec::new();
    let mut detail = Tracer::new();
    let mut parse_bytes = Vec::new();
    let mut canonical_bytes = Vec::new();
    let mut fallbacks = 0usize;
    let mut front_points = Vec::new();
    for (n, o) in outcomes.iter().enumerate() {
        let req = &reqs[o.req];
        let line = req.wire_line(n as u64);
        let id = n as u64;
        let root = tracer.begin("request", id, None);
        let parsed = tracer.span("serve.protocol.parse", id, Some(root), || {
            parse_request(&line)
        });
        if parsed.is_err() {
            out.wrong(format!("replayed line does not parse: {line}"));
        }
        let mut hit = false;
        match req.verb {
            Verb::Solve => {
                let request = req.solve_request(req.instance.clone());
                let report = tracer.span("solver.service.solve", id, Some(root), || {
                    twin.service.solve(&request)
                });
                if let Ok(report) = &report {
                    tracer.span("serve.protocol.respond", id, Some(root), || {
                        ok_response(&Value::Int(id as i128), report_to_wire(report))
                    });
                    hit = report.provenance == Provenance::Cached;
                    if !hit && report.fallback.is_some() {
                        fallbacks += 1;
                    }
                }
            }
            Verb::Pareto => {
                let request = FrontRequest::new(req.instance.clone());
                let report = tracer.span("multicrit.front", id, Some(root), || {
                    twin.front.solve_front(&request)
                });
                if let Ok(report) = report {
                    front_points.push(report.points.len() as f64);
                    tracer.span("serve.protocol.respond", id, Some(root), || {
                        ok_response(&Value::Int(id as i128), front_to_wire(&report))
                    });
                }
            }
        }
        tracer.end(root);
        if !hit {
            continue;
        }
        traced_hits.push(tracer.spans()[root].dur_ns() as f64 / 1e6);
        // the same hit again with tracing off
        let t = Instant::now();
        let request = parse_request(&line)
            .ok()
            .map(|_| req.solve_request(req.instance.clone()));
        if let Some(Ok(report)) = request.as_ref().map(|r| twin.service.solve(r)) {
            ok_response(&Value::Int(id as i128), report_to_wire(&report));
        }
        untraced_hits.push(t.elapsed().as_secs_f64() * 1e3);
        // single-layer calls, off the blocking path
        let request = req.solve_request(req.instance.clone());
        let _: Option<ProblemInstance> = detail.span("core.parse", id, None, || {
            serde_json::from_str(&req.body).ok()
        });
        parse_bytes.push(req.body.len() as f64);
        detail.span("core.fingerprint", id, None, || request.fingerprint());
        if let Ok(report) = detail.span("solver.cache.hit", id, None, || {
            twin.service.solve(&request)
        }) {
            let canonical = detail.span("solver.report.canonical", id, None, || {
                report.canonical_json()
            });
            canonical_bytes.push(canonical.len() as f64);
        }
    }
    let us_p50 = |name: &str| median(&detail.durations_us(name)).unwrap_or(0.0);
    out.set("core.parse.us_p50", us_p50("core.parse"));
    out.set("core.parse.bytes_p50", median(&parse_bytes).unwrap_or(0.0));
    out.set("core.fingerprint.us_p50", us_p50("core.fingerprint"));
    out.set("solver.cache.hit.us_p50", us_p50("solver.cache.hit"));
    out.set(
        "solver.report.canonical.us_p50",
        us_p50("solver.report.canonical"),
    );
    out.set(
        "solver.report.canonical.bytes_p50",
        median(&canonical_bytes).unwrap_or(0.0),
    );
    out.set("solver.registry.fallbacks", fallbacks as f64);
    out.set("multicrit.front.busy_ms", tracer.busy_ms("multicrit.front"));
    out.set(
        "multicrit.front.points",
        median(&front_points).unwrap_or(0.0),
    );
    if let Some(fc) = twin.front.cache_stats() {
        out.set(
            "multicrit.front.cache_hit_ratio",
            fc.hits as f64 / (fc.hits + fc.misses).max(1) as f64,
        );
    }
    (traced_hits, untraced_hits)
}

/// Readings taken from outside the daemon: `stats` snapshots around the
/// measured window, and the peak of its thread count.
struct Readings {
    before: Value,
    after: Value,
    threads_peak: usize,
}

/// The traced run's per-layer numbers.
fn layers(
    warm: &Warm,
    reqs: &[Req],
    measured: &[Outcome],
    twin: &Twin,
    stats: &Readings,
    untraced_p50: f64,
    out: &mut RunOutput,
) -> Result<(), String> {
    stats_deltas(&stats.before, &stats.after, out);
    out.set(
        "serve.admission.rejected",
        stat(&stats.after, "admission.rejected") - stat(&stats.before, "admission.rejected"),
    );
    out.set(
        "serve.admission.high_water",
        stat(&stats.after, "admission.high_water"),
    );
    let rtt = warm.daemon.ping_us(500)?;
    let rtt_p50 = median(&rtt).unwrap_or(0.0);
    out.set("serve.wire.rtt_us_p50", rtt_p50);
    let bytes: Vec<f64> = measured
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.response_bytes as f64)
        .collect();
    out.set(
        "serve.wire.response_bytes_p50",
        median(&bytes).unwrap_or(0.0),
    );
    out.set("serve.daemon.threads_peak", stats.threads_peak as f64);
    let lags: Vec<f64> = measured.iter().map(Outcome::send_lag_ms).collect();
    out.set(
        "loadgen.send_lag_p99_ms",
        percentile(&lags, 99.0).unwrap_or(0.0),
    );

    // Client spans, from the generator's own timestamps.
    let mut client = Tracer::new();
    for (i, o) in measured.iter().enumerate() {
        if let Some(done) = o.done {
            let ns = |d: Duration| d.as_nanos() as u64;
            let root = client.record("client.request", i as u64, None, ns(o.due), ns(done));
            client.record("loadgen.send", i as u64, Some(root), ns(o.due), ns(o.sent));
        }
    }
    crate::write_spans(&client, "mixed-daemon.client");

    let mut tracer = Tracer::new();
    let (traced_hits, untraced_hits) = replay(reqs, measured, twin, &mut tracer, out);
    out.set(
        "trace.overhead_share",
        match (median(&traced_hits), median(&untraced_hits)) {
            (Some(t), Some(u)) => (t - u) / u.max(1e-9),
            _ => 0.0,
        },
    );
    // The replay covers the daemon's own calls; the generator's lag and
    // the wire (a ping round trip) complete what can be seen from
    // outside. The daemon's queueing and the hand-offs between its
    // reader, pool and writer threads cannot be: the pool's mean queue
    // wait (from `stats`) is shown beside the table, and the sum falls
    // short of the measured median by about that much.
    let mut rows = median_profile(&tracer.request_profiles("request"));
    rows.push(("serve.wire (ping round trip)", rtt_p50 / 1e3));
    rows.push(("loadgen.send_lag (median)", median(&lags).unwrap_or(0.0)));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let detail = [
        (
            "solver.pool.queue_wait (mean)",
            out.values["solver.pool.queue_wait_ms_per_job"],
        ),
        ("core.parse", out.values["core.parse.us_p50"] / 1e3),
        (
            "core.fingerprint",
            out.values["core.fingerprint.us_p50"] / 1e3,
        ),
        (
            "solver.report.canonical",
            out.values["solver.report.canonical.us_p50"] / 1e3,
        ),
    ];
    let ratio = print_table("mixed-daemon", &rows, &detail, untraced_p50);
    out.set("trace.blocking_sum_ratio", ratio);
    crate::write_spans(&tracer, "mixed-daemon");
    Ok(())
}

pub fn mixed(opts: &Opts) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut gen = Generator::new(opts.seed);
    let mut reqs = gen.working_set(WORKING_SET, MAX_STAGES);
    let cdf = zipf_cdf(WORKING_SET, ZIPF_S);
    // The schedule is in nominal-host seconds; a fast host runs through
    // more of it than the run's wall-clock length.
    let span = SCHEDULE_SPAN * opts.seconds;
    let mut fresh: Vec<Req> = Vec::new();
    // Hits and fronts arrive as a Poisson stream; the comm-aware misses
    // arrive on a fixed cadence among them, so every stretch of the run
    // carries the same compute load (Poisson clusters of misses would
    // tip the two-worker pool into shedding at random).
    let mut schedule = poisson_schedule(&mut gen, RATE_RPS * (1.0 - MISS_SHARE), span, |g| {
        if g.unit() < FRONT_SHARE / (1.0 - MISS_SHARE) {
            fresh.push(g.request(Kind::Front));
            WORKING_SET + fresh.len() - 1
        } else {
            zipf_pick(&cdf, g.unit())
        }
    });
    let gap = 1.0 / (RATE_RPS * MISS_SHARE);
    let mut due = gap / 2.0;
    while due < span {
        fresh.push(if schedule.len() % 2 == 0 {
            gen.request(Kind::CommBb)
        } else {
            gen.hedged()
        });
        schedule.push(Arrival {
            due: Duration::from_secs_f64(due),
            req: WORKING_SET + fresh.len() - 1,
        });
        due += gap;
    }
    schedule.sort_by_key(|a| a.due);
    reqs.extend(fresh);

    let mut warm = setup(&reqs[..WORKING_SET], CACHE_CAPACITY, &mut out)?;
    let threads_peak = AtomicUsize::new(0);
    let before = warm.daemon.stats()?;
    let (measured, factors, nominal) =
        measure(&mut warm, &reqs, &schedule, opts.seconds, &threads_peak);
    let stats = Readings {
        before,
        after: warm.daemon.stats()?,
        // relaxed: read after every sampler thread has been joined.
        threads_peak: threads_peak.load(Ordering::Relaxed),
    };

    account(&measured, &mut out);
    let raw_p50 = latency_metrics(&measured, &factors, &reqs, &mut out);
    let answered = measured.iter().filter(|o| o.ok).count() as f64;
    out.set("answered_share", answered / measured.len().max(1) as f64);
    out.set("solves_per_s", answered / nominal.max(1e-9));
    out.set(
        "peak_rss_mb",
        peak_rss_mb(&warm.daemon.pid().to_string()).unwrap_or(0.0),
    );

    let mut twin = Twin::new(CACHE_CAPACITY);
    for i in 0..WORKING_SET {
        twin.answer(&reqs, i, &mut out);
    }
    check_samples(&measured, &reqs, &mut twin, &mut out);

    if opts.trace {
        // the twin must start the replay warmed exactly as the daemon was
        let mut fresh_twin = Twin::new(CACHE_CAPACITY);
        for i in 0..WORKING_SET {
            fresh_twin.answer(&reqs, i, &mut out);
        }
        layers(
            &warm,
            &reqs,
            &measured,
            &fresh_twin,
            &stats,
            raw_p50,
            &mut out,
        )?;
    }
    warm.daemon.stop()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon error where the in-process twin answers is a wrong
    /// answer; a shed request is not.
    #[test]
    fn an_error_where_the_twin_answers_is_wrong() {
        let reqs = Generator::new(1).working_set(2, MAX_STAGES);
        let error = |shed| Outcome {
            req: 0,
            ok: false,
            shed,
            line: Some(r#"{"v":1,"id":0,"error":{"code":"internal"}}"#.to_string()),
            ..Outcome::default()
        };
        let mut twin = Twin::new(CACHE_CAPACITY);
        let mut out = RunOutput::default();
        check_samples(&[error(true)], &reqs, &mut twin, &mut out);
        assert!(out.wrong.is_empty());
        check_samples(&[error(false)], &reqs, &mut twin, &mut out);
        assert_eq!(out.wrong.len(), 1);
    }
}
