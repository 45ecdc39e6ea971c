//! Steepest-descent local search over pipeline mappings.

use crate::neighborhood::{Neighborhood, PipelineNeighborhood};
use crate::score::{score, Score};
use repliflow_core::instance::Objective;
use repliflow_core::mapping::Mapping;
use repliflow_core::platform::Platform;
use repliflow_core::workflow::Pipeline;

/// Improves `start` by steepest descent until a local optimum (or
/// `max_rounds` rounds). The returned mapping never scores worse than
/// `start`.
pub fn improve(
    pipeline: &Pipeline,
    platform: &Platform,
    allow_dp: bool,
    objective: Objective,
    start: Mapping,
    max_rounds: usize,
) -> Mapping {
    improve_with(
        start,
        max_rounds,
        &mut PipelineNeighborhood::structural(pipeline, platform, allow_dp),
        |m| score(pipeline, platform, m, objective),
    )
}

/// The steepest-descent loop itself, generic over the neighborhood and
/// the scorer — one implementation serves the pipeline-specific
/// [`improve`] and the cost-model-aware search in [`crate::comm`].
///
/// Each neighbor is built only to be scored.
pub fn improve_with(
    start: Mapping,
    max_rounds: usize,
    neighborhood: &mut dyn Neighborhood,
    mut score_of: impl FnMut(&Mapping) -> Score,
) -> Mapping {
    let mut current = start;
    let mut current_score = score_of(&current);
    for _ in 0..max_rounds {
        let mut best_neighbor: Option<(Score, Mapping)> = None;
        neighborhood.fill(&current);
        for k in 0..neighborhood.len() {
            let m = neighborhood.get(k);
            let s = score_of(&m);
            if s < current_score && best_neighbor.as_ref().is_none_or(|(bs, _)| s < *bs) {
                best_neighbor = Some((s, m));
            }
        }
        match best_neighbor {
            Some((s, m)) => {
                current = m;
                current_score = s;
            }
            None => break,
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;
    use repliflow_core::mapping::Mode;
    use repliflow_core::rational::Rat;
    use repliflow_exact::Goal;

    fn start_mapping(pipe: &Pipeline, plat: &Platform) -> Mapping {
        Mapping::whole(pipe.n_stages(), plat.procs().collect(), Mode::Replicated)
    }

    #[test]
    fn never_worsens() {
        let mut gen = Gen::new(0x71);
        for _ in 0..30 {
            let n = gen.size(1, 6);
            let p = gen.size(1, 5);
            let pipe = gen.pipeline(n, 1, 15);
            let plat = gen.het_platform(p, 1, 6);
            let start = start_mapping(&pipe, &plat);
            let before = pipe.period(&plat, &start).unwrap();
            let improved = improve(&pipe, &plat, false, Objective::Period, start, 100);
            let after = pipe.period(&plat, &improved).unwrap();
            assert!(after <= before);
            assert!(improved.validate_pipeline(&pipe, &plat, false).is_ok());
        }
    }

    #[test]
    fn often_reaches_the_exact_optimum_on_small_instances() {
        let mut gen = Gen::new(0x72);
        let mut hits = 0;
        let total = 20;
        for _ in 0..total {
            let n = gen.size(1, 4);
            let p = gen.size(1, 4);
            let pipe = gen.pipeline(n, 1, 10);
            let plat = gen.het_platform(p, 1, 5);
            let start = start_mapping(&pipe, &plat);
            let improved = improve(&pipe, &plat, true, Objective::Period, start, 200);
            let got = pipe.period(&plat, &improved).unwrap();
            let opt = repliflow_exact::solve_pipeline(&pipe, &plat, true, Goal::MinPeriod)
                .unwrap()
                .period;
            assert!(got >= opt);
            if got == opt {
                hits += 1;
            }
        }
        assert!(hits >= total / 2, "local search should usually find optima");
    }

    #[test]
    fn respects_period_bound_objective() {
        let mut gen = Gen::new(0x73);
        for _ in 0..10 {
            let pipe = gen.pipeline(4, 1, 10);
            let plat = gen.het_platform(4, 1, 5);
            // bound = period of the replicate-all start (always feasible)
            let start = start_mapping(&pipe, &plat);
            let bound = pipe.period(&plat, &start).unwrap();
            let improved = improve(
                &pipe,
                &plat,
                true,
                Objective::LatencyUnderPeriod(bound),
                start,
                100,
            );
            assert!(pipe.period(&plat, &improved).unwrap() <= bound);
            let _ = Rat::ZERO;
        }
    }
}
