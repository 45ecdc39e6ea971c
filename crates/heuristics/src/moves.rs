//! Neighborhood moves over mappings, shared by local search and
//! simulated annealing: structural moves and processor swaps for
//! pipelines, plus workflow-generic moves for forks and fork-joins —
//! processor swaps ([`proc_swaps_any`]), the move class that matters
//! once link bandwidths and heterogeneous speeds make processor
//! *identity* significant, and structural group moves
//! ([`group_moves_any`]: split / merge / migrate), the move class that
//! re-decides the *group structure* itself. Every public neighborhood
//! is deduplicated, so mode coercion and symmetric moves never hand the
//! same mapping to the scorer twice.
//!
//! The searches walk these neighborhoods through
//! [`crate::neighborhood`]. The Vec-returning pipeline functions
//! ([`neighbors`], [`proc_swaps`], [`neighbors_with_swaps`]) are the
//! reference its lazy pipeline lists are tested against.

use repliflow_core::mapping::{Assignment, Mapping, Mode};
use repliflow_core::platform::Platform;
use repliflow_core::workflow::{Pipeline, Workflow};
use std::collections::HashSet;

/// Order-insensitive canonical form of a mapping (groups sorted by
/// first stage), so two moves that reach the same mapping through
/// different group orders are recognized as duplicates.
type MappingKey = Vec<(Vec<usize>, Vec<usize>, bool)>;

fn canonical_key(mapping: &Mapping) -> MappingKey {
    let mut key: MappingKey = mapping
        .assignments()
        .iter()
        .map(|a| {
            (
                a.stages().to_vec(),
                a.procs().iter().map(|q| q.0).collect(),
                a.mode == Mode::DataParallel,
            )
        })
        .collect();
    key.sort();
    key
}

/// Removes duplicate mappings (first occurrence wins). Mode coercion in
/// the move generators (`legal_mode`) and symmetric moves (e.g. two
/// splits producing the same two groups) can reach one mapping through
/// several moves; scoring it more than once wastes local-search
/// evaluations, so every public neighborhood is deduplicated.
fn dedup_mappings(mappings: Vec<Mapping>) -> Vec<Mapping> {
    let mut seen = HashSet::new();
    mappings
        .into_iter()
        .filter(|m| seen.insert(canonical_key(m)))
        .collect()
}

/// Generates every neighbor of `mapping` reachable by one structural move:
/// shifting an interval boundary, moving a processor between groups,
/// merging adjacent groups, splitting a group, or toggling a single-stage
/// group's mode (when `allow_dp`). All returned mappings are valid.
///
/// The searches list this neighborhood lazily through
/// [`PipelineNeighborhood::structural`]; this materialised list is the
/// reference it is tested against.
///
/// [`PipelineNeighborhood::structural`]: crate::neighborhood::PipelineNeighborhood::structural
pub fn neighbors(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let groups = mapping.assignments();
    let mut out = Vec::new();

    let rebuild = |groups: Vec<Assignment>| Mapping::new(groups);
    let legal_mode = |stages: usize, procs: usize, mode: Mode| -> Mode {
        // data-parallel groups must be single stages; k=1 dp is pointless
        if mode == Mode::DataParallel && (stages > 1 || procs < 2 || !allow_dp) {
            Mode::Replicated
        } else {
            mode
        }
    };

    for g in 0..groups.len() {
        // ---- boundary shifts with the right neighbor ----
        if g + 1 < groups.len() {
            let (a, b) = (&groups[g], &groups[g + 1]);
            // shift last stage of a into b
            if a.stages().len() > 1 {
                let mut ga = a.stages().to_vec();
                let moved = ga.pop().unwrap();
                let mut gb = b.stages().to_vec();
                gb.insert(0, moved);
                let mut new_groups = groups.to_vec();
                new_groups[g] = Assignment::new(
                    ga.clone(),
                    a.procs().to_vec(),
                    legal_mode(ga.len(), a.n_procs(), a.mode),
                );
                new_groups[g + 1] = Assignment::new(
                    gb.clone(),
                    b.procs().to_vec(),
                    legal_mode(gb.len(), b.n_procs(), b.mode),
                );
                out.push(rebuild(new_groups));
            }
            // shift first stage of b into a
            if b.stages().len() > 1 {
                let mut gb = b.stages().to_vec();
                let moved = gb.remove(0);
                let mut ga = a.stages().to_vec();
                ga.push(moved);
                let mut new_groups = groups.to_vec();
                new_groups[g] = Assignment::new(
                    ga.clone(),
                    a.procs().to_vec(),
                    legal_mode(ga.len(), a.n_procs(), a.mode),
                );
                new_groups[g + 1] = Assignment::new(
                    gb.clone(),
                    b.procs().to_vec(),
                    legal_mode(gb.len(), b.n_procs(), b.mode),
                );
                out.push(rebuild(new_groups));
            }
            // merge a and b (union of processors, replicated)
            {
                let mut stages = a.stages().to_vec();
                stages.extend_from_slice(b.stages());
                let mut procs = a.procs().to_vec();
                procs.extend_from_slice(b.procs());
                let mut new_groups = groups.to_vec();
                new_groups[g] = Assignment::new(stages, procs, Mode::Replicated);
                new_groups.remove(g + 1);
                out.push(rebuild(new_groups));
            }
        }
        // ---- processor transfers ----
        for h in 0..groups.len() {
            if g == h || groups[g].n_procs() < 2 {
                continue;
            }
            for &moved in groups[g].procs() {
                let ga: Vec<_> = groups[g]
                    .procs()
                    .iter()
                    .copied()
                    .filter(|&q| q != moved)
                    .collect();
                let mut gh = groups[h].procs().to_vec();
                gh.push(moved);
                let mut new_groups = groups.to_vec();
                new_groups[g] = Assignment::new(
                    groups[g].stages().to_vec(),
                    ga.clone(),
                    legal_mode(groups[g].stages().len(), ga.len(), groups[g].mode),
                );
                new_groups[h] = Assignment::new(
                    groups[h].stages().to_vec(),
                    gh.clone(),
                    legal_mode(groups[h].stages().len(), gh.len(), groups[h].mode),
                );
                out.push(rebuild(new_groups));
            }
        }
        // ---- split a multi-stage multi-proc group in half ----
        if groups[g].stages().len() >= 2 && groups[g].n_procs() >= 2 {
            let stages = groups[g].stages();
            let procs = groups[g].procs();
            let sm = stages.len() / 2;
            let pm = procs.len() / 2;
            let mut new_groups = groups.to_vec();
            new_groups[g] = Assignment::new(
                stages[..sm].to_vec(),
                procs[..pm.max(1)].to_vec(),
                Mode::Replicated,
            );
            new_groups.insert(
                g + 1,
                Assignment::new(
                    stages[sm..].to_vec(),
                    procs[pm.max(1)..].to_vec(),
                    Mode::Replicated,
                ),
            );
            out.push(rebuild(new_groups));
        }
        // ---- mode toggle on single-stage groups ----
        if allow_dp && groups[g].stages().len() == 1 && groups[g].n_procs() >= 2 {
            let flipped = match groups[g].mode {
                Mode::Replicated => Mode::DataParallel,
                Mode::DataParallel => Mode::Replicated,
            };
            let mut new_groups = groups.to_vec();
            new_groups[g] = Assignment::new(
                groups[g].stages().to_vec(),
                groups[g].procs().to_vec(),
                flipped,
            );
            out.push(rebuild(new_groups));
        }
    }

    out.retain(|m| m.validate_pipeline(pipeline, platform, allow_dp).is_ok());
    dedup_mappings(out)
}

/// Exchanges one processor between every pair of groups — a move that is
/// score-neutral-or-redundant under the simplified model (two transfers
/// compose it) but essential under the communication-aware model, where
/// *which* processor serves an interval decides the link bandwidths on
/// both of its boundaries.
///
/// Test reference for the swaps of [`PipelineNeighborhood::with_swaps`].
///
/// [`PipelineNeighborhood::with_swaps`]: crate::neighborhood::PipelineNeighborhood::with_swaps
pub fn proc_swaps(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let groups = mapping.assignments();
    let mut out = Vec::new();
    for g in 0..groups.len() {
        for h in g + 1..groups.len() {
            for &a in groups[g].procs() {
                for &b in groups[h].procs() {
                    let ga: Vec<_> = groups[g]
                        .procs()
                        .iter()
                        .map(|&q| if q == a { b } else { q })
                        .collect();
                    let gh: Vec<_> = groups[h]
                        .procs()
                        .iter()
                        .map(|&q| if q == b { a } else { q })
                        .collect();
                    let mut new_groups = groups.to_vec();
                    new_groups[g] =
                        Assignment::new(groups[g].stages().to_vec(), ga, groups[g].mode);
                    new_groups[h] =
                        Assignment::new(groups[h].stages().to_vec(), gh, groups[h].mode);
                    out.push(Mapping::new(new_groups));
                }
            }
        }
    }
    out.retain(|m| m.validate_pipeline(pipeline, platform, allow_dp).is_ok());
    out
}

/// The full communication-aware neighborhood: the structural moves of
/// [`neighbors`] plus the processor swaps of [`proc_swaps`].
///
/// Test reference for [`PipelineNeighborhood::with_swaps`].
///
/// [`PipelineNeighborhood::with_swaps`]: crate::neighborhood::PipelineNeighborhood::with_swaps
pub fn neighbors_with_swaps(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let mut out = neighbors(pipeline, platform, mapping, allow_dp);
    out.extend(proc_swaps(pipeline, platform, mapping, allow_dp));
    dedup_mappings(out)
}

/// Workflow-generic processor swaps: exchanges one processor between
/// every pair of groups, keeping every group's stage set and mode — so
/// the move is structurally legal for *any* workflow shape (fork and
/// fork-join group structure is untouched) and only re-decides which
/// physical processors serve which group. Swaps are what let local
/// search move a fast processor onto the critical root/leaf group, or a
/// well-connected one onto a transfer-heavy group, without passing
/// through the worse intermediate states two one-directional transfers
/// would require.
pub fn proc_swaps_any(
    workflow: &Workflow,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let groups = mapping.assignments();
    let mut out = Vec::new();
    for g in 0..groups.len() {
        for h in g + 1..groups.len() {
            for &a in groups[g].procs() {
                for &b in groups[h].procs() {
                    let ga: Vec<_> = groups[g]
                        .procs()
                        .iter()
                        .map(|&q| if q == a { b } else { q })
                        .collect();
                    let gh: Vec<_> = groups[h]
                        .procs()
                        .iter()
                        .map(|&q| if q == b { a } else { q })
                        .collect();
                    let mut new_groups = groups.to_vec();
                    new_groups[g] =
                        Assignment::new(groups[g].stages().to_vec(), ga, groups[g].mode);
                    new_groups[h] =
                        Assignment::new(groups[h].stages().to_vec(), gh, groups[h].mode);
                    out.push(Mapping::new(new_groups));
                }
            }
        }
    }
    out.retain(|m| m.validate(workflow, platform, allow_dp).is_ok());
    out
}

/// Structural group moves for **fork and fork-join** mappings — the
/// move class the processor swaps of [`proc_swaps_any`] cannot express,
/// because swaps keep the group *structure* fixed:
///
/// * **split** — a stage of a multi-stage, multi-processor group moves
///   into a brand-new group, taking one of the donor's processors with
///   it (every `(stage, processor)` choice is a distinct neighbor);
/// * **merge** — two groups fuse into one replicated group (stage and
///   processor union);
/// * **migrate** — a single stage moves from one group to another,
///   leaving both processor sets unchanged (the donor must keep at
///   least one stage).
///
/// Modes are preserved where legal and coerced to [`Mode::Replicated`]
/// where the move makes data-parallelism illegal (processor count drops
/// below 2, or the group now mixes the root/join stage with others);
/// the result is deduplicated, so the coercion never emits the same
/// neighbor twice. Pipelines return an empty set — their structural
/// neighborhood is [`neighbors`], which respects interval contiguity.
pub fn group_moves_any(
    workflow: &Workflow,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let sequential: Vec<usize> = match workflow {
        Workflow::Pipeline(_) => return Vec::new(),
        Workflow::Fork(_) => vec![0],
        Workflow::ForkJoin(fj) => vec![0, fj.join_stage()],
    };
    let legal_mode = |stages: &[usize], n_procs: usize, mode: Mode| -> Mode {
        let mixes_seq = stages.len() > 1 && stages.iter().any(|s| sequential.contains(s));
        if mode == Mode::DataParallel && (!allow_dp || n_procs < 2 || mixes_seq) {
            Mode::Replicated
        } else {
            mode
        }
    };
    let rebuild = |mut gs: Vec<Assignment>| {
        gs.sort_by_key(|a| a.stages()[0]);
        Mapping::new(gs)
    };
    let groups = mapping.assignments();
    let mut out = Vec::new();

    for g in 0..groups.len() {
        // ---- split: stage s leaves group g into a new singleton group,
        // taking processor q with it ----
        if groups[g].stages().len() >= 2 && groups[g].n_procs() >= 2 {
            for &s in groups[g].stages() {
                let rest_stages: Vec<usize> = groups[g]
                    .stages()
                    .iter()
                    .copied()
                    .filter(|&t| t != s)
                    .collect();
                for &q in groups[g].procs() {
                    let rest_procs: Vec<_> = groups[g]
                        .procs()
                        .iter()
                        .copied()
                        .filter(|&r| r != q)
                        .collect();
                    let mut new_groups = groups.to_vec();
                    new_groups[g] = Assignment::new(
                        rest_stages.clone(),
                        rest_procs.clone(),
                        legal_mode(&rest_stages, rest_procs.len(), groups[g].mode),
                    );
                    new_groups.push(Assignment::new(vec![s], vec![q], Mode::Replicated));
                    out.push(rebuild(new_groups));
                }
            }
        }
        for h in 0..groups.len() {
            if g >= h {
                continue;
            }
            // ---- merge groups g and h (stage + processor union) ----
            let mut stages = groups[g].stages().to_vec();
            stages.extend_from_slice(groups[h].stages());
            let mut procs = groups[g].procs().to_vec();
            procs.extend_from_slice(groups[h].procs());
            let mut new_groups = groups.to_vec();
            new_groups[g] = Assignment::new(stages, procs, Mode::Replicated);
            new_groups.remove(h);
            out.push(rebuild(new_groups));
        }
        // ---- migrate: stage s moves from group g to group h ----
        if groups[g].stages().len() >= 2 {
            for h in 0..groups.len() {
                if g == h {
                    continue;
                }
                for &s in groups[g].stages() {
                    let rest: Vec<usize> = groups[g]
                        .stages()
                        .iter()
                        .copied()
                        .filter(|&t| t != s)
                        .collect();
                    let mut gained = groups[h].stages().to_vec();
                    gained.push(s);
                    let mut new_groups = groups.to_vec();
                    new_groups[g] = Assignment::new(
                        rest.clone(),
                        groups[g].procs().to_vec(),
                        legal_mode(&rest, groups[g].n_procs(), groups[g].mode),
                    );
                    new_groups[h] = Assignment::new(
                        gained.clone(),
                        groups[h].procs().to_vec(),
                        legal_mode(&gained, groups[h].n_procs(), groups[h].mode),
                    );
                    out.push(rebuild(new_groups));
                }
            }
        }
    }

    out.retain(|m| m.validate(workflow, platform, allow_dp).is_ok());
    dedup_mappings(out)
}

/// The full workflow-generic neighborhood for forks and fork-joins:
/// structural group moves ([`group_moves_any`]) plus processor swaps
/// ([`proc_swaps_any`]), deduplicated.
pub fn neighbors_any(
    workflow: &Workflow,
    platform: &Platform,
    mapping: &Mapping,
    allow_dp: bool,
) -> Vec<Mapping> {
    let mut out = group_moves_any(workflow, platform, mapping, allow_dp);
    out.extend(proc_swaps_any(workflow, platform, mapping, allow_dp));
    dedup_mappings(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::platform::ProcId;

    #[test]
    fn neighbors_are_valid_and_nonempty() {
        let pipe = Pipeline::new(vec![3, 4, 5]);
        let plat = Platform::heterogeneous(vec![2, 1, 1]);
        let start = Mapping::whole(3, (0..3).map(ProcId).collect(), Mode::Replicated);
        let ns = neighbors(&pipe, &plat, &start, true);
        assert!(!ns.is_empty());
        for m in &ns {
            assert!(m.validate_pipeline(&pipe, &plat, true).is_ok());
        }
    }

    #[test]
    fn no_dp_neighbors_without_flag() {
        let pipe = Pipeline::new(vec![3, 4]);
        let plat = Platform::homogeneous(3, 1);
        let start = Mapping::whole(2, (0..3).map(ProcId).collect(), Mode::Replicated);
        for m in neighbors(&pipe, &plat, &start, false) {
            assert!(!m.uses_data_parallelism());
        }
    }

    fn assert_unique(mappings: &[Mapping], context: &str) {
        let mut seen = HashSet::new();
        for m in mappings {
            assert!(
                seen.insert(canonical_key(m)),
                "duplicate neighbor in {context}: {m}"
            );
        }
    }

    #[test]
    fn pipeline_neighborhoods_are_duplicate_free() {
        // Mode coercion (`legal_mode` turning an illegal DataParallel
        // group into Replicated) used to let two distinct moves reach
        // the same mapping; the neighborhood is deduplicated now.
        use repliflow_core::gen::Gen;
        let mut gen = Gen::new(0x0DD5);
        for _ in 0..25 {
            let n = gen.size(1, 5);
            let p = gen.size(2, 5);
            let pipe = gen.pipeline(n, 1, 9);
            let plat = gen.het_platform(p, 1, 4);
            let start = Mapping::whole(n, plat.procs().collect(), Mode::Replicated);
            let ns = neighbors_with_swaps(&pipe, &plat, &start, true);
            assert_unique(&ns, "neighbors_with_swaps");
            // walk one step in and check the deeper neighborhoods too
            for m in ns.iter().take(4) {
                assert_unique(
                    &neighbors_with_swaps(&pipe, &plat, m, true),
                    "neighbors_with_swaps (depth 2)",
                );
            }
        }
    }

    #[test]
    fn fork_group_moves_split_merge_migrate() {
        use repliflow_core::workflow::Fork;
        let fork = Fork::new(2, vec![3, 4, 5]);
        let workflow: Workflow = fork.into();
        let plat = Platform::heterogeneous(vec![2, 1, 1]);
        // one group holding everything on all three processors
        let start = Mapping::whole(4, (0..3).map(ProcId).collect(), Mode::Replicated);
        let moves = group_moves_any(&workflow, &plat, &start, true);
        assert!(
            moves.iter().any(|m| m.n_assignments() == 2),
            "split must create a second group"
        );
        assert_unique(&moves, "group_moves_any");
        for m in &moves {
            assert!(m.validate(&workflow, &plat, true).is_ok());
        }
        // from a fully split mapping, merges and migrations must appear
        let split = Mapping::new(vec![
            Assignment::new(vec![0, 1], vec![ProcId(0)], Mode::Replicated),
            Assignment::new(vec![2], vec![ProcId(1)], Mode::Replicated),
            Assignment::new(vec![3], vec![ProcId(2)], Mode::Replicated),
        ]);
        let moves = group_moves_any(&workflow, &plat, &split, true);
        assert!(
            moves.iter().any(|m| m.n_assignments() == 2),
            "merge must fuse two groups"
        );
        assert!(
            moves.iter().any(|m| m.n_assignments() == 3 && m != &split),
            "migration must move a leaf between groups"
        );
        assert_unique(&moves, "group_moves_any (split start)");
    }

    #[test]
    fn forkjoin_group_moves_are_legal_and_unique() {
        use repliflow_core::workflow::ForkJoin;
        let fj = ForkJoin::new(1, vec![2, 2, 2], 3);
        let workflow: Workflow = fj.into();
        let plat = Platform::homogeneous(4, 1);
        let start = Mapping::new(vec![
            Assignment::new(vec![0, 1], vec![ProcId(0), ProcId(1)], Mode::Replicated),
            Assignment::new(vec![2, 3], vec![ProcId(2)], Mode::Replicated),
            Assignment::new(vec![4], vec![ProcId(3)], Mode::Replicated),
        ]);
        let ns = neighbors_any(&workflow, &plat, &start, true);
        assert!(!ns.is_empty());
        assert_unique(&ns, "neighbors_any");
        for m in &ns {
            assert!(m.validate(&workflow, &plat, true).is_ok(), "illegal {m}");
        }
    }

    #[test]
    fn group_moves_empty_for_pipelines() {
        let pipe = Pipeline::new(vec![1, 2]);
        let workflow: Workflow = pipe.into();
        let plat = Platform::homogeneous(2, 1);
        let start = Mapping::whole(2, (0..2).map(ProcId).collect(), Mode::Replicated);
        assert!(group_moves_any(&workflow, &plat, &start, true).is_empty());
    }
}
