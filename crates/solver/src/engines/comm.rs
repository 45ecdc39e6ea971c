//! The `comm-exact` engine behind [`CostModel::WithComm`] routing:
//! exhaustive enumeration of the full mapping space scored under the
//! general model (Sections 3.2–3.3). Beyond its guard the registry
//! routes to `comm-bb` and then to the heuristic portfolio
//! (`comm-heuristic`).
//!
//! [`CostModel::WithComm`]: repliflow_core::instance::CostModel::WithComm

use super::orient;
use crate::engine::{Engine, EngineRun};
use crate::report::SolveError;
use crate::request::Budget;
use repliflow_core::instance::{ProblemInstance, Variant};
use repliflow_core::mapping::Mapping;
use repliflow_core::workflow::Workflow;
use repliflow_exact::{Frontier, Solution};

/// Exhaustive search over every legal mapping, scored under the
/// instance's communication-aware cost model. Optimal in the full
/// Section 3.4 mapping space (replication and data-parallelism
/// included); exponential, so the registry only auto-routes to it under
/// [`Budget::allows_comm_exact`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CommExactEngine;

impl Engine for CommExactEngine {
    fn name(&self) -> &'static str {
        "comm-exact"
    }

    fn supports(&self, _variant: &Variant) -> bool {
        true
    }

    fn solve(&self, instance: &ProblemInstance, _budget: &Budget) -> Result<EngineRun, SolveError> {
        solve_by_enumeration(instance)
    }
}

/// Exhaustive exact solve of any instance (either cost model) by
/// enumerating every legal mapping into a Pareto frontier and picking
/// the instance's goal — including reliability-bounded objectives,
/// which are enforced by filtering mappings *before* frontier insertion
/// (the frontier's dominance eviction is oblivious to reliability, so a
/// dominated-but-reliable mapping must never compete against an
/// unreliable dominator). Shared by [`CommExactEngine`] (all its
/// objectives) and [`ExactEngine`]'s reliability path, whose Pareto DP
/// cannot express mapping-level constraints.
///
/// [`ExactEngine`]: super::ExactEngine
pub(crate) fn solve_by_enumeration(instance: &ProblemInstance) -> Result<EngineRun, SolveError> {
    if !super::instance_fits(instance) {
        return Err(SolveError::ExceedsExactCapacity {
            n_stages: instance.workflow.n_stages(),
            n_procs: instance.platform.n_procs(),
        });
    }
    let platform = &instance.platform;
    let dp = instance.allow_data_parallel;
    let reliability_bound = instance.objective.reliability_bound();
    let mut frontier = Frontier::new();
    {
        let mut visit = |m: &Mapping| {
            if let Some(bound) = reliability_bound {
                if instance.reliability(m) < bound {
                    return;
                }
            }
            let (period, latency) = instance
                .objectives(m)
                .expect("enumerated mappings are valid");
            frontier.insert(Solution {
                mapping: m.clone(),
                period,
                latency,
            });
        };
        match &instance.workflow {
            Workflow::Pipeline(p) => {
                repliflow_exact::pipeline::enumerate_pipeline(p, platform, dp, &mut visit)
            }
            Workflow::Fork(f) => repliflow_exact::fork::enumerate_fork(f, platform, dp, &mut visit),
            Workflow::ForkJoin(fj) => {
                repliflow_exact::forkjoin::enumerate_forkjoin(fj, platform, dp, &mut visit)
            }
        }
    }
    match frontier.pick(instance.objective.into()) {
        Some(sol) => Ok(EngineRun::proven(orient(
            instance.objective,
            sol.mapping,
            sol.period,
            sol.latency,
        ))),
        // The enumeration is exhaustive, so an empty pick proves the
        // bound (bi-criteria or reliability) unattainable under this
        // cost model.
        None => Err(SolveError::Infeasible { best_effort: None }),
    }
}
