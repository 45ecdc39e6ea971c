//! Steepest-descent local search over mappings of any workflow shape,
//! scored under the instance's objective and cost model.

use crate::neighborhood::instance_neighborhood;
use crate::score::{score_instance, Score};
use repliflow_core::instance::ProblemInstance;
use repliflow_core::mapping::Mapping;

/// Improves `start` by steepest descent over the
/// [`instance_neighborhood`] until a local optimum (or `max_rounds`
/// rounds). Every neighbor is ranked by [`score_instance`], so
/// bi-criteria and reliability bounds steer the descent, not only the
/// final pick. The returned mapping never scores worse than `start`.
///
/// Each neighbor is built only to be scored.
pub fn improve(instance: &ProblemInstance, start: Mapping, max_rounds: usize) -> Mapping {
    let mut neighborhood = instance_neighborhood(instance);
    let mut current = start;
    let mut current_score = score_instance(instance, &current);
    for _ in 0..max_rounds {
        let mut best_neighbor: Option<(Score, Mapping)> = None;
        neighborhood.fill(&current);
        for k in 0..neighborhood.len() {
            let m = neighborhood.get(k);
            let s = score_instance(instance, &m);
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
    use repliflow_core::comm::{CommModel, Network};
    use repliflow_core::gen::Gen;
    use repliflow_core::instance::{CostModel, Objective};
    use repliflow_core::mapping::{Assignment, Mode};
    use repliflow_core::platform::{Platform, ProcId};
    use repliflow_core::workflow::{Fork, ForkJoin, Pipeline};
    use repliflow_exact::Goal;

    fn whole(instance: &ProblemInstance) -> Mapping {
        Mapping::whole(
            instance.workflow.n_stages(),
            instance.platform.procs().collect(),
            Mode::Replicated,
        )
    }

    fn one_port(p: usize, bandwidth: u64) -> CostModel {
        CostModel::WithComm {
            network: Network::uniform(p, bandwidth),
            comm: CommModel::OnePort,
            overlap: true,
        }
    }

    #[test]
    fn never_worsens() {
        let mut gen = Gen::new(0x71);
        for _ in 0..30 {
            let n = gen.size(1, 6);
            let p = gen.size(1, 5);
            let pipe = gen.pipeline(n, 1, 15);
            let plat = gen.het_platform(p, 1, 6);
            let instance =
                ProblemInstance::new(pipe.clone(), plat.clone(), false, Objective::Period);
            let start = whole(&instance);
            let before = instance.period(&start).unwrap();
            let improved = improve(&instance, start, 100);
            let after = instance.period(&improved).unwrap();
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
            let opt = repliflow_exact::solve_pipeline(&pipe, &plat, true, Goal::MinPeriod)
                .unwrap()
                .period;
            let instance = ProblemInstance::new(pipe, plat, true, Objective::Period);
            let improved = improve(&instance, whole(&instance), 200);
            let got = instance.period(&improved).unwrap();
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
            let mut instance = ProblemInstance::new(
                gen.pipeline(4, 1, 10),
                gen.het_platform(4, 1, 5),
                true,
                Objective::Period,
            );
            // bound = period of the replicate-all start (always feasible)
            let start = whole(&instance);
            let bound = instance.period(&start).unwrap();
            instance.objective = Objective::LatencyUnderPeriod(bound);
            let improved = improve(&instance, start, 100);
            assert!(instance.period(&improved).unwrap() <= bound);
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
            let instance = ProblemInstance::new(pipe, plat, true, Objective::Period)
                .with_cost_model(one_port(p, gen.int(1, 4)));
            let start = whole(&instance);
            let before = score_instance(&instance, &start);
            let improved = improve(&instance, start, 100);
            assert!(score_instance(&instance, &improved) <= before);
            assert!(instance.period(&improved).is_ok());
        }
    }

    #[test]
    fn fork_local_search_strictly_improves_a_bad_seed() {
        // Fork with a heavy root and light leaves on a heterogeneous
        // platform, seeded with the WRONG placement: the slow processor
        // holds the root, the fast one a light leaf. A single processor
        // swap fixes it; before `proc_swaps_any`, fork searches had no
        // moves at all and returned the seed unchanged.
        let fork = Fork::with_data_sizes(12, vec![2, 2], 4, 2, vec![1, 1]);
        let plat = Platform::heterogeneous(vec![1, 4, 1]);
        let instance = ProblemInstance::new(fork, plat, false, Objective::Latency)
            .with_cost_model(one_port(3, 2));
        let bad = Mapping::new(vec![
            Assignment::new(vec![0], vec![ProcId(0)], Mode::Replicated), // root on slow P0
            Assignment::new(vec![1], vec![ProcId(1)], Mode::Replicated), // leaf on fast P1
            Assignment::new(vec![2], vec![ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve(&instance, bad, 50);
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
        let fj = ForkJoin::new(1, vec![2, 2], 12);
        let plat = Platform::heterogeneous(vec![4, 1, 1]);
        let instance = ProblemInstance::new(fj, plat, false, Objective::Latency)
            .with_cost_model(one_port(3, 2));
        let bad = Mapping::new(vec![
            Assignment::new(vec![0, 1], vec![ProcId(0)], Mode::Replicated),
            Assignment::new(vec![2], vec![ProcId(1)], Mode::Replicated),
            Assignment::new(vec![3], vec![ProcId(2)], Mode::Replicated), // join on slow P2
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve(&instance, bad, 50);
        let after = instance.latency(&improved).unwrap();
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn fork_structural_moves_escape_a_bad_group_structure() {
        // Two heavy leaves crammed into one group while a processor
        // sits idle: no processor swap can fix this (swaps preserve the
        // group structure), but a single *split* move does. Before
        // `group_moves_any` the fork search was stuck at the seed.
        let fork = Fork::with_data_sizes(1, vec![10, 10], 2, 2, vec![1, 1]);
        let instance =
            ProblemInstance::new(fork, Platform::homogeneous(3, 1), false, Objective::Latency)
                .with_cost_model(one_port(3, 2));
        let bad = Mapping::new(vec![
            Assignment::new(vec![0], vec![ProcId(0)], Mode::Replicated),
            // both leaves serialized on P1 while P2 idles
            Assignment::new(vec![1, 2], vec![ProcId(1), ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve(&instance, bad, 50);
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
        let fj = ForkJoin::with_data_sizes(2, vec![2, 2], 8, 1, 1, vec![6, 6]);
        let plat = Platform::heterogeneous(vec![4, 1, 1]);
        let instance = ProblemInstance::new(fj, plat, false, Objective::Latency)
            .with_cost_model(one_port(3, 1));
        let bad = Mapping::new(vec![
            Assignment::new(vec![0, 1, 2], vec![ProcId(0)], Mode::Replicated),
            Assignment::new(vec![3], vec![ProcId(1), ProcId(2)], Mode::Replicated),
        ]);
        let before = instance.latency(&bad).unwrap();
        let improved = improve(&instance, bad, 50);
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
        let instance =
            ProblemInstance::new(pipe, Platform::homogeneous(3, 1), false, Objective::Period)
                .with_cost_model(CostModel::WithComm {
                    network: net,
                    comm: CommModel::OnePort,
                    overlap: true,
                });
        let start = Mapping::new(vec![
            Assignment::interval(0, 0, vec![ProcId(0)], Mode::Replicated),
            Assignment::interval(1, 1, vec![ProcId(1)], Mode::Replicated),
        ]);
        let improved = improve(&instance, start.clone(), 50);
        assert!(
            instance.period(&improved).unwrap() < instance.period(&start).unwrap(),
            "local search should exploit the fast link"
        );
    }
}
