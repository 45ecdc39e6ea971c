//! Simulated annealing over mappings of any workflow shape, scored
//! under the instance's objective and cost model.
//!
//! A randomized counterpart to [`crate::local_search`]: random moves from
//! the same neighborhood, accepting uphill steps with probability
//! `exp(-Δ/T)` under a geometric cooling schedule. Fully deterministic
//! for a given seed. Temperatures and deltas use `f64` (this is the one
//! place the crate deliberately leaves exact arithmetic — acceptance
//! randomness dominates any rounding), while the returned best mapping is
//! always re-scored exactly.

use crate::neighborhood::instance_neighborhood;
use crate::score::score_instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::Mapping;

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

/// Runs simulated annealing from `start` over the
/// [`instance_neighborhood`], ranking mappings by [`score_instance`];
/// returns the best mapping seen (never worse than `start`).
/// Deterministic for a given `seed`.
///
/// Each step draws one neighbor of the current mapping and builds only
/// that one.
pub fn anneal(
    instance: &ProblemInstance,
    start: Mapping,
    schedule: Schedule,
    seed: u64,
) -> Mapping {
    let mut neighborhood = instance_neighborhood(instance);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start.clone();
    let mut current_score = score_instance(instance, &current);
    let mut best = start;
    let mut best_score = current_score;
    let mut temperature = schedule.t0;

    for _ in 0..schedule.steps {
        neighborhood.fill(&current);
        if neighborhood.is_empty() {
            break;
        }
        let candidate = neighborhood.get(rng.gen_range(0..neighborhood.len()));
        let cand_score = score_instance(instance, &candidate);
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
    use repliflow_core::comm::{CommModel, Network};
    use repliflow_core::gen::Gen;
    use repliflow_core::instance::{CostModel, Objective};
    use repliflow_core::mapping::Mode;
    use repliflow_core::workflow::Pipeline;
    use repliflow_exact::Goal;

    fn whole(instance: &ProblemInstance) -> Mapping {
        Mapping::whole(
            instance.workflow.n_stages(),
            instance.platform.procs().collect(),
            Mode::Replicated,
        )
    }

    #[test]
    fn deterministic_per_seed_and_never_worse() {
        let mut gen = Gen::new(0x81);
        for _ in 0..10 {
            let n = gen.size(1, 5);
            let p = gen.size(1, 4);
            let instance = ProblemInstance::new(
                gen.pipeline(n, 1, 12),
                gen.het_platform(p, 1, 5),
                true,
                Objective::Period,
            );
            let start = whole(&instance);
            let before = instance.period(&start).unwrap();
            let sched = Schedule {
                steps: 300,
                ..Schedule::default()
            };
            let a = anneal(&instance, start.clone(), sched, 7);
            let b = anneal(&instance, start, sched, 7);
            assert_eq!(a, b, "same seed, same result");
            let after = instance.period(&a).unwrap();
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
            let opt = repliflow_exact::solve_pipeline(&pipe, &plat, true, Goal::MinPeriod)
                .unwrap()
                .period;
            let instance = ProblemInstance::new(pipe, plat, true, Objective::Period);
            let a = anneal(&instance, whole(&instance), Schedule::default(), seed);
            let got = instance.period(&a).unwrap();
            assert!(got >= opt);
            if got == opt {
                hits += 1;
            }
        }
        assert!(hits >= total / 2);
    }

    #[test]
    fn comm_annealing_deterministic_and_never_worse() {
        let mut gen = Gen::new(0x92);
        let pipe =
            Pipeline::with_data_sizes(gen.positive_ints(4, 1, 10), gen.positive_ints(5, 1, 6));
        let plat = gen.het_platform(3, 1, 5);
        let instance = ProblemInstance::new(pipe, plat, true, Objective::Period).with_cost_model(
            CostModel::WithComm {
                network: Network::uniform(3, 2),
                comm: CommModel::OnePort,
                overlap: true,
            },
        );
        let start = whole(&instance);
        let before = score_instance(&instance, &start);
        let sched = Schedule {
            steps: 300,
            ..Schedule::default()
        };
        let a = anneal(&instance, start.clone(), sched, 7);
        let b = anneal(&instance, start, sched, 7);
        assert_eq!(a, b, "same seed, same result");
        assert!(score_instance(&instance, &a) <= before);
    }
}
