//! Byte-identity snapshot of the pipeline heuristic search.
//!
//! The determinism suite compares two runs of the *same* build; this
//! suite compares every run against canonical report JSON recorded in
//! `snapshots/heuristic_search.txt`. It covers comm-bb-sized
//! communication-aware pipelines (both comm models, overlap on and off)
//! through the comm-heuristic portfolio and the comm-bb engine (which
//! seeds its incumbent from that portfolio), reliability-bounded
//! pipelines that `Auto` hands to the comm heuristic, and simplified
//! instances forced to the heuristic engine: 15-stage pipelines, smaller
//! pipelines under every single- and bi-criteria objective (strict
//! bounds included) with data-parallelism on and off, and forks and
//! fork-joins. Any change to the neighborhood's order, its mode
//! coercions or its deduplication shifts the annealing draws and shows
//! here as a changed report.
//!
//! The quick profile checks every fourth case; the `slow-tests` feature
//! checks all of them. After an intentional change to the search,
//! re-record with
//! `cargo test --release -p repliflow-solver --test heuristic_snapshot -- --ignored`
//! and review the diff.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Pipeline, Workflow};
use repliflow_solver::{Budget, CommModel, CostModel, EnginePref, EngineRegistry, SolveRequest};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/heuristic_search.txt"
);

/// Every `STRIDE`-th case is checked (all of them under `slow-tests`).
const STRIDE: usize = if cfg!(feature = "slow-tests") { 1 } else { 4 };

/// The budget every case runs under: the defaults, minus the comm-bb
/// wall-clock cap, so a slow (debug) build never turns a completed
/// search into a timed-out one.
fn budget() -> Budget {
    Budget {
        bb_time_limit_ms: 0,
        ..Budget::default()
    }
}

fn comm_model(gen: &mut Gen, p: usize, i: usize) -> CostModel {
    let network = if (i / 4).is_multiple_of(2) {
        gen.het_network(p, 1, 4)
    } else {
        gen.uniform_network(p, 1, 4)
    };
    CostModel::WithComm {
        network,
        comm: if i.is_multiple_of(2) {
            CommModel::OnePort
        } else {
            CommModel::BoundedMultiPort
        },
        overlap: (i / 2).is_multiple_of(2),
    }
}

fn comm_bb_pipeline(i: usize) -> ProblemInstance {
    let mut gen = Gen::new(0x5A9_0000 + i as u64);
    let n = gen.size(7, 8);
    let p = 6;
    let pipe =
        Pipeline::with_data_sizes(gen.positive_ints(n, 1, 20), gen.positive_ints(n + 1, 1, 8));
    let objective = if (i / 8).is_multiple_of(2) {
        Objective::Period
    } else {
        Objective::Latency
    };
    ProblemInstance::new(
        pipe,
        gen.het_platform(p, 1, 4),
        i.is_multiple_of(3),
        objective,
    )
    .with_cost_model(comm_model(&mut gen, p, i))
}

fn reliability_pipeline(i: usize) -> ProblemInstance {
    let mut gen = Gen::new(0x5A9_1000 + i as u64);
    let n = 8;
    let p = 6;
    let failure = (0..p)
        .map(|_| Rat::new(gen.int(1, 15) as i128, 100))
        .collect();
    let platform = gen.het_platform(p, 1, 6).with_failure_probs(failure);
    let pipe =
        Pipeline::with_data_sizes(gen.positive_ints(n, 1, 20), gen.positive_ints(n + 1, 1, 8));
    let bound = Rat::new(gen.int(97, 99) as i128, 100);
    let objective = if i.is_multiple_of(2) {
        Objective::LatencyUnderReliability(bound)
    } else {
        Objective::PeriodUnderReliability(bound)
    };
    ProblemInstance::new(pipe, platform, false, objective)
        .with_cost_model(comm_model(&mut gen, p, i))
}

fn simplified_pipeline(i: usize) -> ProblemInstance {
    let mut gen = Gen::new(0x5A9_2000 + i as u64);
    let objective = if i.is_multiple_of(2) {
        Objective::Period
    } else {
        Objective::Latency
    };
    ProblemInstance::new(
        gen.pipeline(15, 1, 30),
        gen.het_platform(8, 1, 8),
        i < 2,
        objective,
    )
}

/// A simplified pipeline under the `(i / 2) % 6`-th single- or
/// bi-criteria objective, data-parallelism on for even `i`. Period
/// bounds sit between one and three times the pooled-speed lower bound
/// `W / Σs`, latency bounds between one and two times `W / max s`, so
/// some bind, some are slack and some the heuristic cannot meet.
fn simplified_bicriteria(i: usize) -> ProblemInstance {
    let mut gen = Gen::new(0x5A9_3000 + i as u64);
    let n = gen.size(6, 10);
    let p = gen.size(4, 6);
    let pipe = gen.pipeline(n, 1, 30);
    let platform = gen.het_platform(p, 1, 8);
    let work = pipe.weights().iter().sum::<u64>() as i128;
    let pooled = platform.speeds().iter().sum::<u64>() as i128;
    let fastest = *platform.speeds().iter().max().expect("non-empty") as i128;
    let period_bound = Rat::new(work * gen.int(10, 30) as i128, pooled * 10);
    let latency_bound = Rat::new(work * gen.int(10, 20) as i128, fastest * 10);
    let objective = match (i / 2) % 6 {
        0 => Objective::Period,
        1 => Objective::Latency,
        2 => Objective::LatencyUnderPeriod(period_bound),
        3 => Objective::PeriodUnderLatency(latency_bound),
        4 => Objective::LatencyUnderPeriodStrict(period_bound),
        _ => Objective::PeriodUnderLatencyStrict(latency_bound),
    };
    ProblemInstance::new(pipe, platform, i.is_multiple_of(2), objective)
}

/// A simplified fork (`i < 4`) or fork-join, period for even `i`,
/// data-parallelism on for `i % 4 < 2`.
fn simplified_fork_shape(i: usize) -> ProblemInstance {
    let mut gen = Gen::new(0x5A9_4000 + i as u64);
    let leaves = gen.size(4, 7);
    let workflow: Workflow = if i < 4 {
        gen.fork(leaves, 1, 30).into()
    } else {
        gen.forkjoin(leaves, 1, 30).into()
    };
    let objective = if i.is_multiple_of(2) {
        Objective::Period
    } else {
        Objective::Latency
    };
    let p = gen.size(3, 5);
    ProblemInstance::new(workflow, gen.het_platform(p, 1, 8), i % 4 < 2, objective)
}

/// Every recorded case, in file order: `(name, request)`.
fn cases() -> Vec<(String, SolveRequest)> {
    let mut out = Vec::new();
    for i in 0..24 {
        let instance = comm_bb_pipeline(i);
        for (tag, engine) in [
            ("comm-heuristic", EnginePref::Heuristic),
            ("comm-bb", EnginePref::CommBb),
        ] {
            out.push((
                format!("comm-bb-size/{i}/{tag}"),
                SolveRequest::new(instance.clone())
                    .engine(engine)
                    .budget(budget()),
            ));
        }
    }
    for i in 0..12 {
        out.push((
            format!("reliability/{i}/auto"),
            SolveRequest::new(reliability_pipeline(i)).budget(budget()),
        ));
    }
    for i in 0..4 {
        out.push((
            format!("simplified-15/{i}/heuristic"),
            SolveRequest::new(simplified_pipeline(i))
                .engine(EnginePref::Heuristic)
                .budget(budget()),
        ));
    }
    for i in 0..24 {
        out.push((
            format!("simplified-bicriteria/{i}/heuristic"),
            SolveRequest::new(simplified_bicriteria(i))
                .engine(EnginePref::Heuristic)
                .budget(budget()),
        ));
    }
    for i in 0..8 {
        out.push((
            format!("simplified-fork/{i}/heuristic"),
            SolveRequest::new(simplified_fork_shape(i))
                .engine(EnginePref::Heuristic)
                .budget(budget()),
        ));
    }
    out
}

fn line(registry: &EngineRegistry, name: &str, request: &SolveRequest) -> String {
    let json = match registry.solve(request) {
        Ok(report) => report.canonical_json(),
        Err(e) => format!("error: {e}"),
    };
    format!("{name}\t{json}")
}

#[test]
fn heuristic_reports_match_the_recorded_snapshot() {
    let recorded = std::fs::read_to_string(SNAPSHOT_PATH).expect("snapshot file is committed");
    let recorded: Vec<&str> = recorded.lines().collect();
    let cases = cases();
    assert_eq!(
        recorded.len(),
        cases.len(),
        "snapshot and case list differ in length"
    );
    let registry = EngineRegistry::default();
    for (k, (name, request)) in cases.iter().enumerate().step_by(STRIDE) {
        assert_eq!(
            line(&registry, name, request),
            recorded[k],
            "case {name} no longer reproduces its recorded report"
        );
    }
}

/// Rewrites the snapshot from the current build. Run only after an
/// intentional change to the search, and review the diff.
#[test]
#[ignore]
fn record_snapshot() {
    let registry = EngineRegistry::default();
    let mut text = String::new();
    for (name, request) in cases() {
        text.push_str(&line(&registry, &name, &request));
        text.push('\n');
    }
    std::fs::write(SNAPSHOT_PATH, text).expect("snapshot file is writable");
}
