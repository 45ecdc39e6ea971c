//! The heuristic portfolio behind the `heuristic` and `comm-heuristic`
//! engines: baselines, a shape-specific greedy start,
//! steepest-descent local search and (per the quality tier) seeded
//! simulated annealing, every candidate ranked by the instance's own
//! cost model and objective. Covers every Table 1 cell (including
//! fork-join, which the old CLI refused) without optimality
//! guarantees.
//!
//! The two engines are one search: they differ only in the name a
//! report carries. The registry hands simplified instances to
//! `heuristic` and communication-aware ones to `comm-heuristic`; what
//! differs between the two is decided by the instance alone — its
//! cost model prices the mappings, and
//! [`instance_neighborhood`](repliflow_heuristics::neighborhood::instance_neighborhood)
//! picks the moves.

use super::orient;
use crate::engine::{Engine, EngineRun};
use crate::report::SolveError;
use crate::request::Budget;
use repliflow_algorithms::Solved;
use repliflow_core::instance::{ProblemInstance, Variant};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::Workflow;
use repliflow_heuristics::score::{score_instance, Score};
use repliflow_heuristics::{annealing, baselines, greedy, local_search};

/// The portfolio's best mapping for `instance` and its lexicographic
/// score. Candidates, in order (the first of equally scored ones
/// wins):
///
/// 1. the two baselines, replicate-all and fastest-single;
/// 2. local search from the greedy start of the shape (chains-to-chains
///    for pipelines, LPT for forks and fork-joins) and, for pipelines,
///    from the replicate-all mapping too;
/// 3. per the [`Budget`]'s quality tier, annealing from replicate-all
///    (pipelines) or the greedy start (fork shapes), seeded by
///    `budget.seed`.
///
/// Shared by both heuristic engines and by `comm-bb`, which seeds its
/// branch-and-bound incumbent from it (the determinism test guards this
/// path: fixed seed, fixed result).
pub(crate) fn portfolio(instance: &ProblemInstance, budget: &Budget) -> (Score, Solved) {
    let platform = &instance.platform;
    let replicate_all = baselines::replicate_all(&instance.workflow, platform);
    let mut candidates = vec![
        replicate_all.clone(),
        baselines::fastest_single(&instance.workflow, platform),
    ];
    let (starts, anneal_from) = match &instance.workflow {
        Workflow::Pipeline(pipe) => (
            vec![
                greedy::pipeline_period_greedy(pipe, platform),
                replicate_all.clone(),
            ],
            replicate_all,
        ),
        Workflow::Fork(fork) => {
            let start = greedy::fork_latency_greedy(fork, platform);
            (vec![start.clone()], start)
        }
        Workflow::ForkJoin(fj) => {
            let start = greedy::forkjoin_latency_greedy(fj, platform);
            (vec![start.clone()], start)
        }
    };
    for start in starts {
        candidates.push(local_search::improve(
            instance,
            start,
            budget.local_search_rounds,
        ));
    }
    if let Some(schedule) = budget.quality.annealing_schedule() {
        candidates.push(annealing::anneal(
            instance,
            anneal_from,
            schedule,
            budget.seed,
        ));
    }
    let (best_score, best) = candidates
        .into_iter()
        .map(|m| (score_instance(instance, &m), m))
        .min_by(|(a, _), (b, _)| a.cmp(b))
        .expect("the portfolio always yields candidates");
    let (period, latency) = instance
        .objectives(&best)
        .expect("candidate mappings are valid");
    (
        best_score,
        orient(instance.objective, best, period, latency),
    )
}

/// Runs the [`portfolio`] as an engine: its best mapping, or — when
/// every candidate violates the objective's bound — an infeasibility
/// error carrying the least-bad witness (a heuristic cannot prove the
/// bound unattainable).
fn solve(instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
    let (best_score, solved) = portfolio(instance, budget);
    if best_score.0 == Rat::INFINITY {
        return Err(SolveError::Infeasible {
            best_effort: Some(Box::new(solved)),
        });
    }
    Ok(EngineRun::heuristic(solved))
}

/// The heuristic portfolio under the name `heuristic` (the registry's
/// route for simplified-model instances).
#[derive(Clone, Copy, Debug, Default)]
pub struct HeuristicEngine;

impl Engine for HeuristicEngine {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn supports(&self, _variant: &Variant) -> bool {
        true
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        solve(instance, budget)
    }
}

/// The heuristic portfolio under the name `comm-heuristic` (the
/// registry's route for communication-aware instances).
#[derive(Clone, Copy, Debug, Default)]
pub struct CommHeuristicEngine;

impl Engine for CommHeuristicEngine {
    fn name(&self) -> &'static str {
        "comm-heuristic"
    }

    fn supports(&self, _variant: &Variant) -> bool {
        true
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        solve(instance, budget)
    }
}
