//! Simulated annealing over pipeline mappings.
//!
//! A randomized counterpart to [`crate::local_search`]: random moves from
//! the same neighborhood, accepting uphill steps with probability
//! `exp(-Δ/T)` under a geometric cooling schedule. Fully deterministic
//! for a given seed. Temperatures and deltas use `f64` (this is the one
//! place the crate deliberately leaves exact arithmetic — acceptance
//! randomness dominates any rounding), while the returned best mapping is
//! always re-scored exactly.

use crate::neighborhood::{Neighborhood, PipelineNeighborhood};
use crate::score::score;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repliflow_core::instance::Objective;
use repliflow_core::mapping::Mapping;
use repliflow_core::platform::Platform;
use repliflow_core::workflow::Pipeline;

/// Annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Number of proposal steps.
    pub steps: usize,
    /// Initial temperature.
    pub t0: f64,
    /// Geometric cooling factor per step (e.g. `0.995`).
    pub cooling: f64,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            steps: 2000,
            t0: 1.0,
            cooling: 0.995,
        }
    }
}

/// Runs simulated annealing from `start`; returns the best mapping seen
/// (never worse than `start` under `objective`).
pub fn anneal(
    pipeline: &Pipeline,
    platform: &Platform,
    allow_dp: bool,
    objective: Objective,
    start: Mapping,
    schedule: Schedule,
    seed: u64,
) -> Mapping {
    anneal_with(
        start,
        schedule,
        seed,
        &mut PipelineNeighborhood::structural(pipeline, platform, allow_dp),
        |m| score(pipeline, platform, m, objective),
    )
}

/// The annealing loop itself, generic over the neighborhood and the
/// scorer — one implementation serves the pipeline-specific [`anneal`]
/// and the cost-model-aware search in [`crate::comm`].
///
/// Each step draws one neighbor of the current mapping and builds only
/// that one.
pub fn anneal_with(
    start: Mapping,
    schedule: Schedule,
    seed: u64,
    neighborhood: &mut dyn Neighborhood,
    mut score_of: impl FnMut(&Mapping) -> crate::score::Score,
) -> Mapping {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start.clone();
    let mut current_score = score_of(&current);
    let mut best = start;
    let mut best_score = current_score;
    let mut temperature = schedule.t0;

    for _ in 0..schedule.steps {
        neighborhood.fill(&current);
        if neighborhood.is_empty() {
            break;
        }
        let candidate = neighborhood.get(rng.gen_range(0..neighborhood.len()));
        let cand_score = score_of(&candidate);
        let accept = if cand_score <= current_score {
            true
        } else {
            let delta = cand_score.0.to_f64() - current_score.0.to_f64();
            // +∞ deltas never accept; finite uphill with Boltzmann prob.
            delta.is_finite() && rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp()
        };
        if accept {
            current = candidate;
            current_score = cand_score;
            if current_score < best_score {
                best = current.clone();
                best_score = current_score;
            }
        }
        temperature *= schedule.cooling;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;
    use repliflow_core::mapping::Mode;
    use repliflow_exact::Goal;

    #[test]
    fn deterministic_per_seed_and_never_worse() {
        let mut gen = Gen::new(0x81);
        for _ in 0..10 {
            let n = gen.size(1, 5);
            let p = gen.size(1, 4);
            let pipe = gen.pipeline(n, 1, 12);
            let plat = gen.het_platform(p, 1, 5);
            let start = Mapping::whole(pipe.n_stages(), plat.procs().collect(), Mode::Replicated);
            let before = pipe.period(&plat, &start).unwrap();
            let sched = Schedule {
                steps: 300,
                ..Schedule::default()
            };
            let a = anneal(
                &pipe,
                &plat,
                true,
                Objective::Period,
                start.clone(),
                sched,
                7,
            );
            let b = anneal(&pipe, &plat, true, Objective::Period, start, sched, 7);
            assert_eq!(a, b, "same seed, same result");
            let after = pipe.period(&plat, &a).unwrap();
            assert!(after <= before);
        }
    }

    #[test]
    fn finds_optimum_on_small_instances_often() {
        let mut gen = Gen::new(0x82);
        let mut hits = 0;
        let total = 10;
        for seed in 0..total {
            let pipe = gen.pipeline(4, 1, 10);
            let plat = gen.het_platform(4, 1, 5);
            let start = Mapping::whole(4, plat.procs().collect(), Mode::Replicated);
            let a = anneal(
                &pipe,
                &plat,
                true,
                Objective::Period,
                start,
                Schedule::default(),
                seed,
            );
            let got = pipe.period(&plat, &a).unwrap();
            let opt = repliflow_exact::solve_pipeline(&pipe, &plat, true, Goal::MinPeriod)
                .unwrap()
                .period;
            assert!(got >= opt);
            if got == opt {
                hits += 1;
            }
        }
        assert!(hits >= total / 2);
    }
}
