//! Differential suite for the lazy pipeline neighborhood: along seeded
//! random walks, `PipelineNeighborhood` must list exactly the
//! materialised reference neighborhood (`moves::neighbors`, or
//! `moves::neighbors_with_swaps` with swaps) — the same mappings in
//! the same order — and every neighbor it builds must validate. Any
//! drift in order, mode coercion or deduplication would change the
//! annealing draws, so equality is checked mapping for mapping.
//!
//! The quick profile (default) runs on every PR; the `slow-tests`
//! feature multiplies the walk counts.

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::mapping::{Assignment, Mapping, Mode};
use repliflow_core::platform::{Platform, ProcId};
use repliflow_core::workflow::{Pipeline, Workflow};
use repliflow_heuristics::moves::{neighbors, neighbors_with_swaps};
use repliflow_heuristics::neighborhood::{
    instance_neighborhood, neighbors_instance, Neighborhood, PipelineNeighborhood,
};
use repliflow_solver::{CommModel, Network};

/// Random walks per configuration.
const WALKS: usize = if cfg!(feature = "slow-tests") { 60 } else { 12 };
/// Steps per walk.
const STEPS: usize = if cfg!(feature = "slow-tests") { 30 } else { 12 };

/// A random valid pipeline mapping: `n` stages cut into intervals, each
/// on a non-empty share of a shuffled processor list (some processors
/// may stay idle), single-stage multi-processor groups data-parallel
/// at random when allowed. The groups come in stage order or, now and
/// then, shuffled (a mapping's group order is free, and moves keep it).
fn random_mapping(gen: &mut Gen, n: usize, p: usize, allow_dp: bool) -> Mapping {
    let groups = gen.size(1, n.min(p));
    // distinct cut points 1..n, sorted
    let mut cuts: Vec<usize> = (1..n).collect();
    shuffle(gen, &mut cuts);
    cuts.truncate(groups - 1);
    cuts.sort_unstable();
    let mut procs: Vec<usize> = (0..p).collect();
    shuffle(gen, &mut procs);
    let used = gen.size(groups, p);
    let mut shares: Vec<usize> = (1..used).collect();
    shuffle(gen, &mut shares);
    shares.truncate(groups - 1);
    shares.sort_unstable();
    let stage_bounds: Vec<usize> = std::iter::once(0).chain(cuts).chain([n]).collect();
    let proc_bounds: Vec<usize> = std::iter::once(0).chain(shares).chain([used]).collect();
    let mut assignments: Vec<Assignment> = (0..groups)
        .map(|g| {
            let stages: Vec<usize> = (stage_bounds[g]..stage_bounds[g + 1]).collect();
            let share: Vec<ProcId> = procs[proc_bounds[g]..proc_bounds[g + 1]]
                .iter()
                .map(|&q| ProcId(q))
                .collect();
            let mode = if allow_dp && stages.len() == 1 && share.len() >= 2 && gen.flip(0.5) {
                Mode::DataParallel
            } else {
                Mode::Replicated
            };
            Assignment::new(stages, share, mode)
        })
        .collect();
    if gen.flip(0.3) {
        shuffle(gen, &mut assignments);
    }
    Mapping::new(assignments)
}

fn shuffle<T>(gen: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = gen.size(0, i);
        items.swap(i, j);
    }
}

/// Fills `lazy` from `mapping` and checks it against `reference`
/// mapping for mapping; returns the listed neighbors.
fn assert_same_list(
    lazy: &mut PipelineNeighborhood,
    reference: Vec<Mapping>,
    mapping: &Mapping,
    (pipe, plat, allow_dp): (&Pipeline, &Platform, bool),
    context: &str,
) -> Vec<Mapping> {
    lazy.fill(mapping);
    assert_eq!(
        lazy.len(),
        reference.len(),
        "{context}: neighborhood size differs from {mapping}"
    );
    for (k, expected) in reference.iter().enumerate() {
        let got = lazy.get(k);
        assert_eq!(&got, expected, "{context}: neighbor {k} of {mapping}");
        assert!(
            got.validate_pipeline(pipe, plat, allow_dp).is_ok(),
            "{context}: neighbor {k} of {mapping} is invalid: {got}"
        );
    }
    reference
}

/// Walks `steps` moves from random starts, comparing the lazy and the
/// reference neighborhood at every mapping visited. Each step moves to
/// a random neighbor, re-lists the same mapping, or jumps to a fresh
/// random mapping (so a `fill` is checked after each kind of change).
fn walk(seed: u64, n: usize, p: usize, allow_dp: bool, swaps: bool, walks: usize, steps: usize) {
    let mut gen = Gen::new(seed);
    for w in 0..walks {
        let pipe = gen.pipeline(n, 1, 20);
        let plat = gen.het_platform(p, 1, 6);
        let mut lazy = if swaps {
            PipelineNeighborhood::with_swaps(&pipe, &plat, allow_dp)
        } else {
            PipelineNeighborhood::structural(&pipe, &plat, allow_dp)
        };
        let mut current = random_mapping(&mut gen, n, p, allow_dp);
        for step in 0..steps {
            let context = format!("n={n} p={p} dp={allow_dp} swaps={swaps} walk {w} step {step}");
            let reference = if swaps {
                neighbors_with_swaps(&pipe, &plat, &current, allow_dp)
            } else {
                neighbors(&pipe, &plat, &current, allow_dp)
            };
            let listed = assert_same_list(
                &mut lazy,
                reference,
                &current,
                (&pipe, &plat, allow_dp),
                &context,
            );
            match gen.size(0, 5) {
                0 => {}
                1 => current = random_mapping(&mut gen, n, p, allow_dp),
                _ if !listed.is_empty() => {
                    let k = gen.size(0, listed.len() - 1);
                    current = listed[k].clone();
                }
                _ => current = random_mapping(&mut gen, n, p, allow_dp),
            }
        }
    }
}

#[test]
fn lazy_pipeline_neighborhood_matches_the_reference_along_walks() {
    for (i, (allow_dp, swaps)) in [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .enumerate()
    {
        let seed = 0x1A2_0000 + i as u64;
        walk(seed, 8, 6, allow_dp, swaps, WALKS, STEPS);
        walk(seed ^ 0x55, 5, 4, allow_dp, swaps, WALKS, STEPS);
        walk(seed ^ 0xAA, 12, 9, allow_dp, swaps, WALKS / 2, STEPS);
    }
}

#[test]
fn degenerate_shapes_match_the_reference() {
    for (i, (allow_dp, swaps)) in [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .enumerate()
    {
        let seed = 0x1A2_1000 + i as u64;
        // one stage: only transfers between... nothing, and mode toggles
        walk(seed, 1, 5, allow_dp, swaps, WALKS, STEPS);
        // one processor: every mapping is a single group, no moves at all
        walk(seed ^ 0x11, 6, 1, allow_dp, swaps, WALKS, STEPS);
        walk(seed ^ 0x22, 1, 1, allow_dp, swaps, 2, 3);
        // two processors, many stages: groups are few and narrow
        walk(seed ^ 0x33, 9, 2, allow_dp, swaps, WALKS, STEPS);
    }
}

#[test]
fn data_parallel_groups_match_the_reference() {
    // many single-stage groups on several processors each, so
    // data-parallel groups (and the mode coercions moves apply to
    // them) are common
    let mut gen = Gen::new(0x1A2_2000);
    for swaps in [false, true] {
        for w in 0..WALKS {
            let n = gen.size(3, 6);
            let p = 2 * n + gen.size(0, 3);
            let pipe = gen.pipeline(n, 1, 9);
            let plat = gen.het_platform(p, 1, 4);
            let mut procs = (0..p).map(ProcId);
            let mut groups: Vec<Assignment> = (0..n)
                .map(|s| {
                    let share: Vec<ProcId> = procs.by_ref().take(2).collect();
                    Assignment::new(vec![s], share, Mode::DataParallel)
                })
                .collect();
            // the spare processors join the last group
            groups[n - 1] = Assignment::new(
                vec![n - 1],
                (2 * (n - 1)..p).map(ProcId).collect(),
                Mode::DataParallel,
            );
            let start = Mapping::new(groups);
            assert!(start.validate_pipeline(&pipe, &plat, true).is_ok());
            let mut lazy = if swaps {
                PipelineNeighborhood::with_swaps(&pipe, &plat, true)
            } else {
                PipelineNeighborhood::structural(&pipe, &plat, true)
            };
            let mut current = start;
            for step in 0..STEPS {
                let reference = if swaps {
                    neighbors_with_swaps(&pipe, &plat, &current, true)
                } else {
                    neighbors(&pipe, &plat, &current, true)
                };
                let context = format!("dp groups swaps={swaps} walk {w} step {step}");
                let listed = assert_same_list(
                    &mut lazy,
                    reference,
                    &current,
                    (&pipe, &plat, true),
                    &context,
                );
                if listed.is_empty() {
                    break;
                }
                current = listed[gen.size(0, listed.len() - 1)].clone();
            }
        }
    }
}

#[test]
fn wide_pipeline_has_no_stage_or_processor_cap() {
    // 200 stages on 150 processors: beyond any 128-wide mask
    let mut gen = Gen::new(0x1A2_3000);
    let steps = if cfg!(feature = "slow-tests") { 4 } else { 2 };
    for (allow_dp, swaps) in [(true, false), (false, true)] {
        walk(
            gen.int(0, u64::MAX >> 1),
            200,
            150,
            allow_dp,
            swaps,
            1,
            steps,
        );
    }
}

#[test]
fn instance_neighborhood_matches_neighbors_instance() {
    // the neighborhood the searches walk, for every arm of the
    // dispatcher — comm pipelines (lazy, with swaps), simplified
    // pipelines (lazy, structural moves only) and forks under either
    // cost model (materialised) — against the reference dispatcher
    let mut gen = Gen::new(0x1A2_4000);
    for i in 0..2 * WALKS {
        let p = gen.size(2, 5);
        let workflow: Workflow = if i.is_multiple_of(2) {
            let n = gen.size(2, 7);
            Pipeline::with_data_sizes(gen.positive_ints(n, 1, 12), gen.positive_ints(n + 1, 1, 6))
                .into()
        } else {
            let leaves = gen.size(2, 4);
            gen.fork(leaves, 1, 12).into()
        };
        let n = workflow.n_stages();
        let cost_model = if i < WALKS {
            CostModel::WithComm {
                network: Network::uniform(p, 2),
                comm: CommModel::OnePort,
                overlap: true,
            }
        } else {
            CostModel::Simplified
        };
        let instance = ProblemInstance {
            workflow,
            platform: gen.het_platform(p, 1, 5),
            allow_data_parallel: i.is_multiple_of(3),
            objective: Objective::Period,
            cost_model,
        };
        let mut lazy = instance_neighborhood(&instance);
        let mut current = Mapping::whole(n, instance.platform.procs().collect(), Mode::Replicated);
        for step in 0..STEPS {
            let reference = neighbors_instance(&instance, &current);
            lazy.fill(&current);
            assert_eq!(lazy.len(), reference.len(), "case {i} step {step}");
            for (k, expected) in reference.iter().enumerate() {
                assert_eq!(&lazy.get(k), expected, "case {i} step {step} neighbor {k}");
            }
            if reference.is_empty() {
                break;
            }
            current = reference[gen.size(0, reference.len() - 1)].clone();
        }
    }
}

#[test]
fn simplified_pipelines_walk_no_swaps() {
    // the simplified arm lists the structural moves alone: on a
    // pipeline whose every group holds one processor, a swap would
    // exchange two of them, and no structural move does that
    let pipe = Pipeline::new(vec![3, 5, 7]);
    let platform = Platform::heterogeneous(vec![1, 2, 3]);
    let mapping = Mapping::new(
        (0..3)
            .map(|s| Assignment::interval(s, s, vec![ProcId(s)], Mode::Replicated))
            .collect(),
    );
    let swapped = Mapping::new(vec![
        Assignment::interval(0, 0, vec![ProcId(1)], Mode::Replicated),
        Assignment::interval(1, 1, vec![ProcId(0)], Mode::Replicated),
        Assignment::interval(2, 2, vec![ProcId(2)], Mode::Replicated),
    ]);
    let simplified = ProblemInstance::new(pipe, platform, false, Objective::Period);
    let comm = simplified.clone().with_cost_model(CostModel::WithComm {
        network: Network::uniform(3, 2),
        comm: CommModel::OnePort,
        overlap: true,
    });
    let listed = |instance: &ProblemInstance| {
        let mut lazy = instance_neighborhood(instance);
        lazy.fill(&mapping);
        (0..lazy.len()).map(|k| lazy.get(k)).collect::<Vec<_>>()
    };
    assert!(!listed(&simplified).contains(&swapped));
    assert!(listed(&comm).contains(&swapped));
}
