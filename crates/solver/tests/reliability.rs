//! Registry handling of reliability-bounded objectives: the reduction
//! short-circuits (trivial / unattainable bounds), binding-bound
//! routing per engine, and the fail-free degeneracy that makes
//! bounded objectives equivalent to their unbounded counterparts.

use repliflow_core::instance::{CostModel, Objective, ObjectiveClass, ProblemInstance};
use repliflow_core::platform::Platform;
use repliflow_core::rational::Rat;
use repliflow_core::workflow::Pipeline;
use repliflow_solver::{
    EnginePref, EngineRegistry, FallbackReason, Optimality, SolveError, SolveReport, SolveRequest,
};

fn solve(
    registry: &EngineRegistry,
    instance: &ProblemInstance,
    pref: EnginePref,
) -> Result<SolveReport, SolveError> {
    registry.solve(&SolveRequest::new(instance.clone()).engine(pref))
}

fn failure_probs() -> Vec<Rat> {
    vec![Rat::new(1, 10), Rat::new(1, 20), Rat::new(1, 4)]
}

/// Simplified-model pipeline on a platform whose processors can fail.
fn failing_instance(objective: Objective) -> ProblemInstance {
    ProblemInstance {
        cost_model: CostModel::Simplified,
        workflow: Pipeline::new(vec![4, 7, 3, 5]).into(),
        platform: Platform::heterogeneous(vec![1, 2, 3]).with_failure_probs(failure_probs()),
        allow_data_parallel: true,
        objective,
    }
}

/// The same pipeline on the same speeds, with no failure annotation.
fn failfree_instance(objective: Objective) -> ProblemInstance {
    let mut instance = failing_instance(objective);
    instance.platform = Platform::heterogeneous(vec![1, 2, 3]);
    instance
}

#[test]
fn unattainable_bound_reports_infeasible_without_an_engine_run() {
    let registry = EngineRegistry::default();
    // No mapping's success probability exceeds one, so a bound above
    // one is rejected before any engine runs.
    let instance = failing_instance(Objective::LatencyUnderReliability(Rat::new(11, 10)));
    let report = solve(&registry, &instance, EnginePref::Auto)
        .expect("unattainable bounds are a report, not an error");
    assert_eq!(report.engine_used, "reliability");
    assert_eq!(report.optimality, Optimality::Infeasible);
    assert!(report.mapping.is_none());
    assert_eq!(report.variant.objective, ObjectiveClass::Reliability);

    // A bound of exactly one *binds* (it is not provably unattainable
    // up front), but the enumeration still proves it infeasible: every
    // mapping on a failing platform succeeds with probability < 1.
    let binding_one = failing_instance(Objective::LatencyUnderReliability(Rat::new(1, 1)));
    let report = solve(&registry, &binding_one, EnginePref::Auto)
        .expect("infeasible bounds are a report, not an error");
    assert_eq!(report.optimality, Optimality::Infeasible);
    assert!(report.mapping.is_none());
}

#[test]
fn failfree_platforms_make_bounded_objectives_equivalent_to_unbounded() {
    let registry = EngineRegistry::default();
    for (bounded, unbounded) in [
        (
            Objective::LatencyUnderReliability(Rat::new(99, 100)),
            Objective::Latency,
        ),
        (
            Objective::PeriodUnderReliability(Rat::new(99, 100)),
            Objective::Period,
        ),
    ] {
        let relaxed = solve(&registry, &failfree_instance(unbounded), EnginePref::Auto)
            .expect("unbounded solve");
        let reduced = solve(&registry, &failfree_instance(bounded), EnginePref::Auto)
            .expect("trivially-bounded solve");
        assert_eq!(reduced.period, relaxed.period);
        assert_eq!(reduced.latency, relaxed.latency);
        assert_eq!(reduced.mapping, relaxed.mapping);
        // Classification still follows the *requested* objective.
        assert_eq!(reduced.variant.objective, ObjectiveClass::Reliability);
        assert_ne!(relaxed.variant.objective, ObjectiveClass::Reliability);
    }
}

#[test]
fn binding_bound_is_enforced_by_the_exact_enumeration() {
    let registry = EngineRegistry::default();
    let bound = Rat::new(93, 100);
    let instance = failing_instance(Objective::LatencyUnderReliability(bound));
    let report =
        solve(&registry, &instance, EnginePref::Auto).expect("binding bound within exact capacity");
    assert_eq!(report.optimality, Optimality::Proven);
    let mapping = report.mapping.as_ref().expect("witness");
    assert!(instance.reliability(mapping) >= bound);
    assert!(instance.meets_reliability_bound(mapping));

    // The bound really binds: the unbounded optimum violates it
    // (otherwise this test exercises nothing).
    let unbounded = solve(
        &registry,
        &failing_instance(Objective::Latency),
        EnginePref::Auto,
    )
    .expect("unbounded solve");
    let free_mapping = unbounded.mapping.as_ref().expect("witness");
    assert!(
        instance.reliability(free_mapping) < bound,
        "pick a tighter bound: the unbounded optimum already meets it"
    );
    assert!(
        report.latency.unwrap() >= unbounded.latency.unwrap(),
        "constrained optimum can never beat the unconstrained one"
    );
}

#[test]
fn explicit_heuristic_respects_binding_bounds() {
    let registry = EngineRegistry::default();
    let bound = Rat::new(93, 100);
    let instance = failing_instance(Objective::LatencyUnderReliability(bound));
    let report = solve(&registry, &instance, EnginePref::Heuristic).expect("heuristic solve");
    let mapping = report.mapping.as_ref().expect("witness");
    assert!(instance.reliability(mapping) >= bound);
}

fn binding_comm_instance() -> ProblemInstance {
    use repliflow_core::comm::{CommModel, Network};
    // Seven stages: past the default comm-exact budget (6 stages), so
    // Auto must fall back — and with a binding bound it must pick the
    // comm heuristic, never comm-bb.
    ProblemInstance {
        cost_model: CostModel::WithComm {
            network: Network::uniform(3, 4),
            comm: CommModel::OnePort,
            overlap: true,
        },
        workflow: Pipeline::new(vec![4, 7, 3, 5, 2, 6, 4]).into(),
        platform: Platform::heterogeneous(vec![1, 2, 3]).with_failure_probs(failure_probs()),
        allow_data_parallel: false,
        objective: Objective::LatencyUnderReliability(Rat::new(9, 10)),
    }
}

#[test]
fn auto_skips_comm_bb_on_binding_bounds_and_records_why() {
    let registry = EngineRegistry::default();
    let instance = binding_comm_instance();
    let report = solve(&registry, &instance, EnginePref::Auto).expect("comm heuristic fallback");
    assert_eq!(report.engine_used, "comm-heuristic");
    assert_eq!(report.fallback, Some(FallbackReason::ReliabilityBound));
    let mapping = report.mapping.as_ref().expect("witness");
    assert!(instance.meets_reliability_bound(mapping));
}

#[test]
fn comm_bb_refuses_binding_bounds_outright() {
    let registry = EngineRegistry::default();
    let instance = binding_comm_instance();
    let err = solve(&registry, &instance, EnginePref::CommBb)
        .expect_err("comm-bb cannot enforce mapping-level bounds");
    assert!(matches!(err, SolveError::Unsupported { engine, .. } if engine == "comm-bb"));
}

#[test]
fn small_comm_instances_enforce_bounds_through_comm_exact() {
    let registry = EngineRegistry::default();
    let mut instance = binding_comm_instance();
    instance.workflow = Pipeline::new(vec![4, 7, 3]).into();
    let bound = instance.objective.reliability_bound().unwrap();
    let report = solve(&registry, &instance, EnginePref::Auto).expect("comm-exact enumeration");
    assert_eq!(report.engine_used, "comm-exact");
    assert_eq!(report.optimality, Optimality::Proven);
    let mapping = report.mapping.as_ref().expect("witness");
    assert!(instance.reliability(mapping) >= bound);
}

#[test]
fn heuristic_search_ranks_by_reliability_not_only_the_final_pick() {
    // A search that ranks neighbors by latency alone walks to mappings
    // that miss the bound, and the final reliability filter then falls
    // back to a slow baseline (latency 70). Scoring every neighbor
    // through the bound keeps the descent among reliable mappings,
    // where it reaches the exact optimum.
    let registry = EngineRegistry::default();
    let instance = ProblemInstance {
        cost_model: CostModel::Simplified,
        workflow: Pipeline::new(vec![14, 18, 19, 3, 16]).into(),
        platform: Platform::heterogeneous(vec![2, 5, 1, 6]).with_failure_probs(vec![
            Rat::new(3, 100),
            Rat::new(11, 100),
            Rat::new(3, 25),
            Rat::new(17, 100),
        ]),
        allow_data_parallel: true,
        objective: Objective::LatencyUnderReliability(Rat::new(19, 20)),
    };
    let exact = solve(&registry, &instance, EnginePref::Exact).expect("exact solve");
    assert_eq!(exact.optimality, Optimality::Proven);
    assert_eq!(exact.latency, Some(Rat::int(14)));
    let heuristic = solve(&registry, &instance, EnginePref::Heuristic).expect("heuristic solve");
    assert_eq!(heuristic.engine_used, "heuristic");
    assert!(instance.meets_reliability_bound(heuristic.mapping.as_ref().expect("witness")));
    assert_eq!(heuristic.latency, Some(Rat::int(14)));
}
