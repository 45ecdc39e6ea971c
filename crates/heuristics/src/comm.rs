//! Cost-model-aware search: the greedy/local-search/annealing portfolio
//! generalized to evaluate through a [`ProblemInstance`]'s own cost
//! model, so the same machinery optimizes under the simplified
//! Section 3.4 model and the communication-aware general model
//! (Sections 3.2–3.3) alike.
//!
//! Pipelines search the structural neighborhood of [`crate::moves`]
//! *plus* processor swaps ([`crate::moves::proc_swaps`]) — swaps are the
//! move class that matters once link bandwidths make processor identity
//! significant. Forks and fork-joins search the full workflow-generic
//! neighborhood of [`crate::moves::neighbors_any`]: structural group
//! moves (split a group, merge two groups, migrate a single leaf) *and*
//! processor swaps, so local search can escape a bad constructive group
//! structure instead of merely re-labelling its processors.
//!
//! Both searches walk the [`instance_neighborhood`]: the lazy
//! [`PipelineNeighborhood`] for pipelines (the same list as
//! [`neighbors_instance`], built one neighbor at a time) and the
//! materialised [`ForkNeighborhood`] for fork shapes.

use crate::annealing::Schedule;
use crate::moves::{neighbors_any, neighbors_with_swaps};
use crate::neighborhood::{ForkNeighborhood, Neighborhood, PipelineNeighborhood};
use crate::score::score_instance;
use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::Mapping;
use repliflow_core::workflow::Workflow;

/// Every neighbor of `mapping` under the instance's workflow shape:
/// the pipeline structural-move + swap neighborhood, or the fork /
/// fork-join group-move + swap neighborhood. Both are duplicate-free.
///
/// This is the materialised reference of [`instance_neighborhood`],
/// which the searches use.
pub fn neighbors_instance(instance: &ProblemInstance, mapping: &Mapping) -> Vec<Mapping> {
    match &instance.workflow {
        Workflow::Pipeline(pipe) => neighbors_with_swaps(
            pipe,
            &instance.platform,
            mapping,
            instance.allow_data_parallel,
        ),
        Workflow::Fork(_) | Workflow::ForkJoin(_) => neighbors_any(
            &instance.workflow,
            &instance.platform,
            mapping,
            instance.allow_data_parallel,
        ),
    }
}

/// The neighborhood searches under `instance` walk: the list of
/// [`neighbors_instance`], listed lazily for pipelines and
/// materialised for forks and fork-joins.
pub fn instance_neighborhood(instance: &ProblemInstance) -> Box<dyn Neighborhood + '_> {
    let (platform, dp) = (&instance.platform, instance.allow_data_parallel);
    match &instance.workflow {
        Workflow::Pipeline(pipe) => Box::new(PipelineNeighborhood::with_swaps(pipe, platform, dp)),
        workflow => Box::new(ForkNeighborhood::new(workflow, platform, dp)),
    }
}

/// Steepest-descent local search under the instance's cost model; the
/// returned mapping never scores worse than `start`.
pub fn improve_instance(instance: &ProblemInstance, start: Mapping, max_rounds: usize) -> Mapping {
    crate::local_search::improve_with(
        start,
        max_rounds,
        &mut *instance_neighborhood(instance),
        |m| score_instance(instance, m),
    )
}

/// Simulated annealing under the instance's cost model (deterministic
/// per seed; returns the best mapping seen, never worse than `start`).
pub fn anneal_instance(
    instance: &ProblemInstance,
    start: Mapping,
    schedule: Schedule,
    seed: u64,
) -> Mapping {
    crate::annealing::anneal_with(
        start,
        schedule,
        seed,
        &mut *instance_neighborhood(instance),
        |m| score_instance(instance, m),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::comm::{CommModel, Network};
    use repliflow_core::gen::Gen;
    use repliflow_core::instance::{CostModel, Objective};
    use repliflow_core::mapping::Mode;
    use repliflow_core::platform::Platform;
    use repliflow_core::workflow::Pipeline;

    fn comm_instance(pipe: Pipeline, plat: Platform, bw: u64) -> ProblemInstance {
        let p = plat.n_procs();
        ProblemInstance {
            workflow: pipe.into(),
            platform: plat,
            allow_data_parallel: true,
            objective: Objective::Period,
            cost_model: CostModel::WithComm {
                network: Network::uniform(p, bw),
                comm: CommModel::OnePort,
                overlap: true,
            },
        }
    }

    #[test]
    fn comm_local_search_never_worsens() {
        let mut gen = Gen::new(0x91);
        for _ in 0..15 {
            let n = gen.size(1, 5);
            let p = gen.size(1, 4);
            let weights = gen.positive_ints(n, 1, 12);
            let sizes = gen.positive_ints(n + 1, 0, 8);
            let pipe = Pipeline::with_data_sizes(weights, sizes);
            let plat = gen.het_platform(p, 1, 5);
            let instance = comm_instance(pipe, plat, gen.int(1, 4));
            let start = Mapping::whole(
                instance.workflow.n_stages(),
                instance.platform.procs().collect(),
                Mode::Replicated,
            );
            let before = score_instance(&instance, &start);
            let improved = improve_instance(&instance, start, 100);
            assert!(score_instance(&instance, &improved) <= before);
            assert!(instance.period(&improved).is_ok());
        }
    }

    #[test]
    fn comm_annealing_deterministic_and_never_worse() {
        let mut gen = Gen::new(0x92);
        let pipe =
            Pipeline::with_data_sizes(gen.positive_ints(4, 1, 10), gen.positive_ints(5, 1, 6));
        let plat = gen.het_platform(3, 1, 5);
        let instance = comm_instance(pipe, plat, 2);
        let start = Mapping::whole(4, instance.platform.procs().collect(), Mode::Replicated);
        let before = score_instance(&instance, &start);
        let sched = Schedule {
            steps: 300,
            ..Schedule::default()
        };
        let a = anneal_instance(&instance, start.clone(), sched, 7);
        let b = anneal_instance(&instance, start, sched, 7);
        assert_eq!(a, b, "same seed, same result");
        assert!(score_instance(&instance, &a) <= before);
    }

    #[test]
    fn fork_local_search_strictly_improves_a_bad_seed() {
        // Fork with a heavy root and light leaves on a heterogeneous
        // platform, seeded with the WRONG placement: the slow processor
        // holds the root, the fast one a light leaf. A single processor
        // swap fixes it; before `proc_swaps_any`, fork searches had no
        // moves at all and returned the seed unchanged.
        use repliflow_core::mapping::Assignment;
        use repliflow_core::platform::ProcId;
        use repliflow_core::workflow::Fork;

        let fork = Fork::with_data_sizes(12, vec![2, 2], 4, 2, vec![1, 1]);
        let plat = Platform::heterogeneous(vec![1, 4, 1]);
        let instance = ProblemInstance {
            workflow: fork.into(),
            platform: plat,
            allow_data_parallel: false,
            objective: Objective::Latency,
            cost_model: CostModel::WithComm {
                network: Network::uniform(3, 2),
                comm: CommModel::OnePort,
                overlap: true,
            },
        };
        let bad = Mapping::new(vec![
            Assignment::new(vec![0], vec![ProcId(0)], Mode::Replicated), // root on slow P0
            Assignment::new(vec![1], vec![ProcId(1)], Mode::Replicated), // leaf on fast P1
            Assignment::new(vec![2], vec![ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve_instance(&instance, bad, 50);
        let after = instance.latency(&improved).unwrap();
        assert!(
            after < before,
            "swap moves should strictly improve: before {before}, after {after}"
        );
        // the winning move puts the fast processor on the root group
        assert_eq!(
            improved.assignment_of(0).unwrap().procs(),
            &[ProcId(1)],
            "fast processor should serve the heavy root, got {improved}"
        );
    }

    #[test]
    fn forkjoin_local_search_never_worsens_and_finds_swaps() {
        // Same shape of argument for fork-joins: a seeded bad placement
        // (slow processor on the heavy join) strictly improves.
        use repliflow_core::mapping::Assignment;
        use repliflow_core::platform::ProcId;
        use repliflow_core::workflow::ForkJoin;

        let fj = ForkJoin::new(1, vec![2, 2], 12);
        let plat = Platform::heterogeneous(vec![4, 1, 1]);
        let instance = ProblemInstance {
            workflow: fj.into(),
            platform: plat,
            allow_data_parallel: false,
            objective: Objective::Latency,
            cost_model: CostModel::WithComm {
                network: Network::uniform(3, 2),
                comm: CommModel::OnePort,
                overlap: true,
            },
        };
        let bad = Mapping::new(vec![
            Assignment::new(vec![0, 1], vec![ProcId(0)], Mode::Replicated),
            Assignment::new(vec![2], vec![ProcId(1)], Mode::Replicated),
            Assignment::new(vec![3], vec![ProcId(2)], Mode::Replicated), // join on slow P2
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve_instance(&instance, bad, 50);
        let after = instance.latency(&improved).unwrap();
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn fork_structural_moves_escape_a_bad_group_structure() {
        // Two heavy leaves crammed into one group while a processor
        // sits idle: no processor swap can fix this (swaps preserve the
        // group structure), but a single *split* move does. Before
        // `group_moves_any` the fork search was stuck at the seed.
        use repliflow_core::mapping::Assignment;
        use repliflow_core::platform::ProcId;
        use repliflow_core::workflow::Fork;

        let fork = Fork::with_data_sizes(1, vec![10, 10], 2, 2, vec![1, 1]);
        let plat = Platform::homogeneous(3, 1);
        let instance = ProblemInstance {
            workflow: fork.into(),
            platform: plat,
            allow_data_parallel: false,
            objective: Objective::Latency,
            cost_model: CostModel::WithComm {
                network: Network::uniform(3, 2),
                comm: CommModel::OnePort,
                overlap: true,
            },
        };
        let bad = Mapping::new(vec![
            Assignment::new(vec![0], vec![ProcId(0)], Mode::Replicated),
            // both leaves serialized on P1 while P2 idles
            Assignment::new(vec![1, 2], vec![ProcId(1), ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve_instance(&instance, bad, 50);
        let after = instance.latency(&improved).unwrap();
        assert!(
            after < before,
            "a split move should strictly improve: before {before}, after {after}"
        );
        let group_of = |s: usize| improved.assignment_of(s).unwrap().stages().to_vec();
        assert_ne!(
            group_of(1),
            group_of(2),
            "the winning structure separates the leaves, got {improved}"
        );
    }

    #[test]
    fn forkjoin_structural_moves_reach_a_merge() {
        // The join stage sits alone on a slow processor with expensive
        // leaf->join links; merging it into the (fast) root group
        // removes the transfer entirely. Only a structural move can do
        // that — swaps keep the join group alive.
        use repliflow_core::mapping::Assignment;
        use repliflow_core::platform::ProcId;
        use repliflow_core::workflow::ForkJoin;

        let fj = ForkJoin::with_data_sizes(2, vec![2, 2], 8, 1, 1, vec![6, 6]);
        let plat = Platform::heterogeneous(vec![4, 1, 1]);
        let instance = ProblemInstance {
            workflow: fj.into(),
            platform: plat,
            allow_data_parallel: false,
            objective: Objective::Latency,
            cost_model: CostModel::WithComm {
                network: Network::uniform(3, 1),
                comm: CommModel::OnePort,
                overlap: true,
            },
        };
        let bad = Mapping::new(vec![
            Assignment::new(vec![0, 1, 2], vec![ProcId(0)], Mode::Replicated),
            Assignment::new(vec![3], vec![ProcId(1), ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve_instance(&instance, bad, 50);
        let after = instance.latency(&improved).unwrap();
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn swaps_reach_bandwidth_aware_placements() {
        // Two stages with a heavy transfer between them; the link
        // P1 <-> P3 is fast, P1 <-> P2 is slow. From the mapping
        // {S1 -> P1, S2 -> P2} a single processor swap (P2 <-> P3)
        // reaches the fast-link placement, which plain structural moves
        // cannot express without passing through worse mappings.
        let pipe = Pipeline::with_data_sizes(vec![4, 4], vec![0, 100, 0]);
        let mut proc_bw = vec![vec![1; 3]; 3];
        proc_bw[0][2] = 100;
        proc_bw[2][0] = 100;
        let net = Network::heterogeneous(proc_bw, vec![10, 10, 10], vec![10, 10, 10]);
        let instance = ProblemInstance {
            workflow: pipe.into(),
            platform: Platform::homogeneous(3, 1),
            allow_data_parallel: false,
            objective: Objective::Period,
            cost_model: CostModel::WithComm {
                network: net,
                comm: CommModel::OnePort,
                overlap: true,
            },
        };
        use repliflow_core::mapping::Assignment;
        use repliflow_core::platform::ProcId;
        let start = Mapping::new(vec![
            Assignment::interval(0, 0, vec![ProcId(0)], Mode::Replicated),
            Assignment::interval(1, 1, vec![ProcId(1)], Mode::Replicated),
        ]);
        let improved = improve_instance(&instance, start.clone(), 50);
        assert!(
            instance.period(&improved).unwrap() < instance.period(&start).unwrap(),
            "local search should exploit the fast link"
        );
    }
}
