//! Scoring of mappings as a lexicographic pair (primary criterion,
//! tiebreak criterion). Constraint violations score `+∞` so searches
//! are pulled back into the feasible region.
//!
//! [`score_instance`] evaluates through [`ProblemInstance::objectives`],
//! so the same search code ranks mappings of any workflow shape under
//! the simplified Section 3.4 model and under the communication-aware
//! general model alike, and orders them with [`Objective::score`] (the
//! ordering the exact branch-and-bound shares).
//!
//! [`Objective::score`]: repliflow_core::instance::Objective::score

use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::Mapping;
use repliflow_core::rational::Rat;

/// Lexicographic score: smaller is better.
pub type Score = (Rat, Rat);

/// Scores `mapping` for `instance` under its objective **and cost
/// model** (any workflow shape). This is the one funnel that has the
/// mapping in hand, so reliability-bounded objectives are enforced
/// here: a mapping whose success probability misses the bound scores
/// `+∞` in the primary slot, with the reliability *shortfall* as the
/// tiebreak — so searches in the infeasible region are still pulled
/// toward more reliable mappings.
pub fn score_instance(instance: &ProblemInstance, mapping: &Mapping) -> Score {
    let (period, latency) = instance
        .objectives(mapping)
        .expect("scored mappings are valid");
    if let Some(bound) = instance.objective.reliability_bound() {
        let reliability = instance.reliability(mapping);
        if reliability < bound {
            return (Rat::INFINITY, Rat::ONE - reliability);
        }
    }
    instance.objective.score(period, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::instance::Objective;
    use repliflow_core::mapping::Mode;
    use repliflow_core::platform::{Platform, ProcId};
    use repliflow_core::workflow::Pipeline;

    fn single_proc(weights: Vec<u64>, p: usize, objective: Objective) -> ProblemInstance {
        ProblemInstance::new(
            Pipeline::new(weights),
            Platform::homogeneous(p, 1),
            false,
            objective,
        )
    }

    #[test]
    fn constraint_violation_scores_infinite() {
        let m = Mapping::whole(1, vec![ProcId(0)], Mode::Replicated);
        let tight = single_proc(vec![10], 1, Objective::LatencyUnderPeriod(Rat::ONE));
        assert_eq!(score_instance(&tight, &m).0, Rat::INFINITY);
        let slack = single_proc(vec![10], 1, Objective::LatencyUnderPeriod(Rat::int(10)));
        assert_eq!(score_instance(&slack, &m).0, Rat::int(10));
    }

    #[test]
    fn period_and_latency_objectives_swap_roles() {
        let m = Mapping::whole(2, vec![ProcId(0), ProcId(1)], Mode::Replicated);
        let sp = score_instance(&single_proc(vec![4, 6], 2, Objective::Period), &m);
        let sl = score_instance(&single_proc(vec![4, 6], 2, Objective::Latency), &m);
        assert_eq!(sp.0, sl.1);
        assert_eq!(sp.1, sl.0);
    }

    #[test]
    fn missed_reliability_bound_scores_infinite_with_the_shortfall() {
        // one processor failing with probability 1/10: success 9/10
        let platform = Platform::homogeneous(1, 1).with_failure_probs(vec![Rat::new(1, 10)]);
        let m = Mapping::whole(1, vec![ProcId(0)], Mode::Replicated);
        let instance = |bound| {
            ProblemInstance::new(
                Pipeline::new(vec![10]),
                platform.clone(),
                false,
                Objective::LatencyUnderReliability(bound),
            )
        };
        assert_eq!(
            score_instance(&instance(Rat::new(19, 20)), &m),
            (Rat::INFINITY, Rat::new(1, 10))
        );
        assert_eq!(
            score_instance(&instance(Rat::new(9, 10)), &m).0,
            Rat::int(10)
        );
    }
}
