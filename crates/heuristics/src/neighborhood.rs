//! The neighborhood a search walks, one mapping at a time. The
//! instance picks it ([`instance_neighborhood`]): the lazy
//! [`PipelineNeighborhood`] for pipelines — structural moves under the
//! simplified model, structural moves plus processor swaps under the
//! communication-aware one — and the materialised [`ForkNeighborhood`]
//! for forks and fork-joins (see the crate docs for the contract the
//! lazy list keeps).

use crate::moves::{neighbors, neighbors_any, neighbors_with_swaps};
use repliflow_core::instance::{CostModel, ProblemInstance};
use repliflow_core::mapping::{Assignment, Mapping, Mode};
use repliflow_core::platform::{Platform, ProcId};
use repliflow_core::workflow::{Pipeline, Workflow};

/// The neighbors of one mapping at a time, listed by [`fill`] and
/// built one by one by [`get`] — the interface local search and
/// annealing walk a neighborhood through. One object serves a whole
/// search, so its buffers are reused from step to step.
///
/// [`fill`]: Neighborhood::fill
/// [`get`]: Neighborhood::get
pub trait Neighborhood {
    /// Lists the neighbors of `mapping`, replacing the previous list.
    fn fill(&mut self, mapping: &Mapping);
    /// Number of neighbors listed by the last [`fill`](Neighborhood::fill).
    fn len(&self) -> usize;
    /// Whether the last [`fill`](Neighborhood::fill) listed no neighbor.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `k`-th listed neighbor (`k < len()`).
    fn get(&self, k: usize) -> Mapping;
}

/// The fork / fork-join neighborhood behind the [`Neighborhood`]
/// interface: each `fill` materialises [`neighbors_any`].
#[derive(Debug)]
pub struct ForkNeighborhood<'a> {
    workflow: &'a Workflow,
    platform: &'a Platform,
    allow_dp: bool,
    listed: Vec<Mapping>,
}

impl<'a> ForkNeighborhood<'a> {
    /// The [`neighbors_any`] neighborhood of mappings of `workflow`.
    pub fn new(workflow: &'a Workflow, platform: &'a Platform, allow_dp: bool) -> Self {
        ForkNeighborhood {
            workflow,
            platform,
            allow_dp,
            listed: Vec::new(),
        }
    }
}

impl Neighborhood for ForkNeighborhood<'_> {
    fn fill(&mut self, mapping: &Mapping) {
        self.listed = neighbors_any(self.workflow, self.platform, mapping, self.allow_dp);
    }

    fn len(&self) -> usize {
        self.listed.len()
    }

    fn get(&self, k: usize) -> Mapping {
        self.listed[k].clone()
    }
}

/// The neighborhood the searches walk under `instance`, keyed on the
/// input:
///
/// * a simplified pipeline walks the structural moves
///   ([`PipelineNeighborhood::structural`]) — under the simplified model
///   a processor swap composes two transfers, which the structural
///   moves already make one at a time;
/// * a communication-aware pipeline adds processor swaps
///   ([`PipelineNeighborhood::with_swaps`]), because there the
///   processor serving an interval decides the link bandwidths on both
///   of its boundaries;
/// * forks and fork-joins walk the group moves and swaps of
///   [`ForkNeighborhood`], under either cost model.
///
/// [`neighbors_instance`] is the materialised reference of this list.
pub fn instance_neighborhood(instance: &ProblemInstance) -> Box<dyn Neighborhood + '_> {
    let (platform, dp) = (&instance.platform, instance.allow_data_parallel);
    match (&instance.workflow, &instance.cost_model) {
        (Workflow::Pipeline(pipe), CostModel::Simplified) => {
            Box::new(PipelineNeighborhood::structural(pipe, platform, dp))
        }
        (Workflow::Pipeline(pipe), CostModel::WithComm { .. }) => {
            Box::new(PipelineNeighborhood::with_swaps(pipe, platform, dp))
        }
        (workflow, _) => Box::new(ForkNeighborhood::new(workflow, platform, dp)),
    }
}

/// Every neighbor of `mapping` that [`instance_neighborhood`] lists,
/// materialised through the reference move generators
/// ([`neighbors`], [`neighbors_with_swaps`], [`neighbors_any`]) — the
/// reference the lazy lists are tested against.
pub fn neighbors_instance(instance: &ProblemInstance, mapping: &Mapping) -> Vec<Mapping> {
    let (platform, dp) = (&instance.platform, instance.allow_data_parallel);
    match (&instance.workflow, &instance.cost_model) {
        (Workflow::Pipeline(pipe), CostModel::Simplified) => neighbors(pipe, platform, mapping, dp),
        (Workflow::Pipeline(pipe), CostModel::WithComm { .. }) => {
            neighbors_with_swaps(pipe, platform, mapping, dp)
        }
        (workflow, _) => neighbors_any(workflow, platform, mapping, dp),
    }
}

/// One group of a compact pipeline mapping: the stage interval
/// `lo..=hi`, its processors `arena[start..start + len]` (sorted), and
/// its mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Group {
    lo: usize,
    hi: usize,
    start: usize,
    len: usize,
    mode: Mode,
}

impl Group {
    fn n_stages(&self) -> usize {
        self.hi + 1 - self.lo
    }

    fn procs(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The pipeline neighborhood of [`neighbors`] (and, when built
/// [`with_swaps`](PipelineNeighborhood::with_swaps), the swaps of
/// [`proc_swaps`] after it), listed lazily: every neighbor is a compact
/// record of groups in reused buffers, and only [`get`] builds a
/// [`Mapping`].
///
/// The list is exactly the reference list: the same moves in the same
/// order, the same `legal_mode` coercions, and each record checked
/// against the rules of [`Mapping::validate_pipeline`] on the compact
/// form. A search therefore makes the same random draws, and returns
/// the same mapping, as it would over the materialised list.
///
/// The reference's first-occurrence deduplication never removes a
/// pipeline neighbor of a valid mapping, so the lazy list needs no
/// dedup index. The moves are told apart by what they change: merges
/// and splits change the group count (and each touches different
/// groups); shifts move one interval boundary one stage left or right;
/// the remaining moves keep every stage set, and then a toggle keeps
/// every processor set, a transfer changes two groups' processor
/// counts, and a swap exchanges one pair of processors — so no two
/// moves reach the same mapping. The differential suite checks the
/// lazy list against the deduplicated reference.
///
/// `fill` expects a valid pipeline mapping and lists nothing for an
/// invalid one.
///
/// [`get`]: Neighborhood::get
/// [`neighbors`]: crate::moves::neighbors
/// [`proc_swaps`]: crate::moves::proc_swaps
#[derive(Debug)]
pub struct PipelineNeighborhood {
    n_stages: usize,
    n_procs: usize,
    allow_dp: bool,
    swaps: bool,
    /// The mapping being expanded, in its own group order.
    current: Vec<Group>,
    /// Processor lists: the current mapping's first, then the lists of
    /// the groups the records change.
    arena: Vec<usize>,
    /// The groups of every listed neighbor, back to back.
    groups: Vec<Group>,
    /// Neighbor `k` is `groups[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    /// Validation scratch, indexed by stage and by processor: an entry
    /// is live when its stamp equals `stamp`.
    stage_stamp: Vec<usize>,
    stage_link: Vec<usize>,
    proc_stamp: Vec<usize>,
    stamp: usize,
}

impl PipelineNeighborhood {
    /// The structural moves of [`neighbors`].
    pub fn structural(pipeline: &Pipeline, platform: &Platform, allow_dp: bool) -> Self {
        Self::build(pipeline, platform, allow_dp, false)
    }

    /// The structural moves followed by the processor swaps: the list
    /// of [`neighbors_with_swaps`].
    pub fn with_swaps(pipeline: &Pipeline, platform: &Platform, allow_dp: bool) -> Self {
        Self::build(pipeline, platform, allow_dp, true)
    }

    fn build(pipeline: &Pipeline, platform: &Platform, allow_dp: bool, swaps: bool) -> Self {
        let (n_stages, n_procs) = (pipeline.n_stages(), platform.n_procs());
        PipelineNeighborhood {
            n_stages,
            n_procs,
            allow_dp,
            swaps,
            current: Vec::new(),
            arena: Vec::new(),
            groups: Vec::new(),
            offsets: vec![0],
            stage_stamp: vec![0; n_stages],
            stage_link: vec![0; n_stages],
            proc_stamp: vec![0; n_procs],
            stamp: 0,
        }
    }

    /// The reference's `legal_mode`: data-parallel groups must be
    /// single stages on at least two processors, and allowed at all.
    fn legal_mode(&self, n_stages: usize, n_procs: usize, mode: Mode) -> Mode {
        if mode == Mode::DataParallel && (n_stages > 1 || n_procs < 2 || !self.allow_dp) {
            Mode::Replicated
        } else {
            mode
        }
    }

    /// Appends to the arena the processors of `from` (arena ranges),
    /// with the pair `swap` exchanged, minus `drop`, plus `add`, sorted;
    /// returns the new list's `(start, len)`.
    fn push_procs(
        &mut self,
        from: [std::ops::Range<usize>; 2],
        swap: Option<(usize, usize)>,
        drop: Option<usize>,
        add: Option<usize>,
    ) -> (usize, usize) {
        let start = self.arena.len();
        for range in from {
            for i in range {
                let q = match (self.arena[i], swap) {
                    (q, Some((a, b))) if q == a => b,
                    (q, Some((a, b))) if q == b => a,
                    (q, _) => q,
                };
                if Some(q) != drop {
                    self.arena.push(q);
                }
            }
        }
        self.arena.extend(add);
        self.arena[start..].sort_unstable();
        (start, self.arena.len() - start)
    }

    /// Lists one neighbor: `cur` with group `g` replaced by `with_g`
    /// and group `h` (if any) by `with_h` — an empty replacement drops
    /// the group, two groups insert one. A record that is not a valid
    /// pipeline mapping is dropped, and the arena is cut back to
    /// `mark`, where the move's processor lists start.
    fn emit(
        &mut self,
        cur: &[Group],
        mark: usize,
        (g, with_g): (usize, &[Group]),
        (h, with_h): (Option<usize>, &[Group]),
    ) {
        let first = self.groups.len();
        for (i, &group) in cur.iter().enumerate() {
            if i == g {
                self.groups.extend_from_slice(with_g);
            } else if Some(i) == h {
                self.groups.extend_from_slice(with_h);
            } else {
                self.groups.push(group);
            }
        }
        if self.valid(first) {
            self.offsets.push(self.groups.len());
        } else {
            self.groups.truncate(first);
            self.arena.truncate(mark);
        }
    }

    /// The rules of [`Mapping::validate_pipeline`] on the record
    /// `groups[first..]`: every group a non-empty in-range interval on
    /// a non-empty set of in-range processors, the intervals a
    /// partition of the stages, no processor used twice, and
    /// data-parallel groups allowed and single-stage.
    fn valid(&mut self, first: usize) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let record = &self.groups[first..];
        for group in record {
            if group.lo > group.hi || group.hi >= self.n_stages || group.len == 0 {
                return false;
            }
            if group.mode == Mode::DataParallel && (!self.allow_dp || group.lo != group.hi) {
                return false;
            }
            if self.stage_stamp[group.lo] == stamp {
                return false;
            }
            self.stage_stamp[group.lo] = stamp;
            self.stage_link[group.lo] = group.hi + 1;
            for &q in &self.arena[group.procs()] {
                if q >= self.n_procs || self.proc_stamp[q] == stamp {
                    return false;
                }
                self.proc_stamp[q] = stamp;
            }
        }
        // the intervals partition 0..n iff following each one to the
        // next from stage 0 visits every group and ends exactly at n
        let (mut stage, mut visited) = (0, 0);
        while stage < self.n_stages {
            if self.stage_stamp[stage] != stamp {
                return false;
            }
            stage = self.stage_link[stage];
            visited += 1;
        }
        stage == self.n_stages && visited == record.len()
    }

    /// Reads `mapping` into `current` (and its processors into the
    /// arena); false if it is not a valid pipeline mapping.
    fn load(&mut self, mapping: &Mapping) -> bool {
        self.current.clear();
        self.arena.clear();
        self.groups.clear();
        for a in mapping.assignments() {
            let (Some(&lo), Some(&hi)) = (a.stages().first(), a.stages().last()) else {
                return false;
            };
            if !a.is_contiguous() {
                return false;
            }
            let start = self.arena.len();
            self.arena.extend(a.procs().iter().map(|q| q.0));
            self.arena[start..].sort_unstable();
            self.groups.push(Group {
                lo,
                hi,
                start,
                len: a.n_procs(),
                mode: a.mode,
            });
        }
        let valid = self.valid(0);
        std::mem::swap(&mut self.current, &mut self.groups);
        valid
    }

    /// Lists the reference's structural moves from `cur`, in its order.
    fn structural_moves(&mut self, cur: &[Group]) {
        let n = cur.len();
        for g in 0..n {
            if g + 1 < n {
                let (a, b) = (cur[g], cur[g + 1]);
                // shift the last stage of a into b
                if a.n_stages() > 1 {
                    if let Some((lo, hi)) = union((a.hi, a.hi), (b.lo, b.hi)) {
                        let ga = Group {
                            hi: a.hi - 1,
                            mode: self.legal_mode(a.n_stages() - 1, a.len, a.mode),
                            ..a
                        };
                        let gb = Group {
                            lo,
                            hi,
                            mode: self.legal_mode(b.n_stages() + 1, b.len, b.mode),
                            ..b
                        };
                        let mark = self.arena.len();
                        self.emit(cur, mark, (g, &[ga]), (Some(g + 1), &[gb]));
                    }
                }
                // shift the first stage of b into a
                if b.n_stages() > 1 {
                    if let Some((lo, hi)) = union((a.lo, a.hi), (b.lo, b.lo)) {
                        let ga = Group {
                            lo,
                            hi,
                            mode: self.legal_mode(a.n_stages() + 1, a.len, a.mode),
                            ..a
                        };
                        let gb = Group {
                            lo: b.lo + 1,
                            mode: self.legal_mode(b.n_stages() - 1, b.len, b.mode),
                            ..b
                        };
                        let mark = self.arena.len();
                        self.emit(cur, mark, (g, &[ga]), (Some(g + 1), &[gb]));
                    }
                }
                // merge a and b (union of processors, replicated)
                if let Some((lo, hi)) = union((a.lo, a.hi), (b.lo, b.hi)) {
                    let mark = self.arena.len();
                    let (start, len) = self.push_procs([a.procs(), b.procs()], None, None, None);
                    let merged = Group {
                        lo,
                        hi,
                        start,
                        len,
                        mode: Mode::Replicated,
                    };
                    self.emit(cur, mark, (g, &[merged]), (Some(g + 1), &[]));
                }
            }
            // processor transfers out of g
            let group = cur[g];
            if group.len >= 2 {
                for (h, to) in cur.iter().enumerate().filter(|&(h, _)| h != g) {
                    for i in group.procs() {
                        let mark = self.arena.len();
                        let moved = self.arena[i];
                        let (gs, gl) =
                            self.push_procs([group.procs(), 0..0], None, Some(moved), None);
                        let (hs, hl) = self.push_procs([to.procs(), 0..0], None, None, Some(moved));
                        let from = Group {
                            start: gs,
                            len: gl,
                            mode: self.legal_mode(group.n_stages(), gl, group.mode),
                            ..group
                        };
                        let to = Group {
                            start: hs,
                            len: hl,
                            mode: self.legal_mode(to.n_stages(), hl, to.mode),
                            ..*to
                        };
                        self.emit(cur, mark, (g, &[from]), (Some(h), &[to]));
                    }
                }
            }
            // split a multi-stage multi-processor group in half
            if group.n_stages() >= 2 && group.len >= 2 {
                let sm = group.n_stages() / 2;
                let pm = (group.len / 2).max(1);
                let left = Group {
                    hi: group.lo + sm - 1,
                    len: pm,
                    mode: Mode::Replicated,
                    ..group
                };
                let right = Group {
                    lo: group.lo + sm,
                    start: group.start + pm,
                    len: group.len - pm,
                    mode: Mode::Replicated,
                    ..group
                };
                let mark = self.arena.len();
                self.emit(cur, mark, (g, &[left, right]), (None, &[]));
            }
            // mode toggle on single-stage groups
            if self.allow_dp && group.n_stages() == 1 && group.len >= 2 {
                let mode = match group.mode {
                    Mode::Replicated => Mode::DataParallel,
                    Mode::DataParallel => Mode::Replicated,
                };
                let mark = self.arena.len();
                self.emit(cur, mark, (g, &[Group { mode, ..group }]), (None, &[]));
            }
        }
    }

    /// Lists the reference's swaps from `cur`, in its order.
    fn swap_moves(&mut self, cur: &[Group]) {
        for (g, x) in cur.iter().enumerate() {
            for (h, y) in cur.iter().enumerate().skip(g + 1) {
                for i in x.procs() {
                    for j in y.procs() {
                        let mark = self.arena.len();
                        let pair = Some((self.arena[i], self.arena[j]));
                        let (xs, xl) = self.push_procs([x.procs(), 0..0], pair, None, None);
                        let (ys, yl) = self.push_procs([y.procs(), 0..0], pair, None, None);
                        let gx = Group {
                            start: xs,
                            len: xl,
                            ..*x
                        };
                        let gy = Group {
                            start: ys,
                            len: yl,
                            ..*y
                        };
                        self.emit(cur, mark, (g, &[gx]), (Some(h), &[gy]));
                    }
                }
            }
        }
    }
}

/// The union of two stage intervals if it is itself an interval of
/// disjoint parts; `None` if they overlap or leave a gap (the merged
/// stage set would fail [`Mapping::validate_pipeline`]).
fn union(a: (usize, usize), b: (usize, usize)) -> Option<(usize, usize)> {
    if a.1 + 1 == b.0 {
        Some((a.0, b.1))
    } else if b.1 + 1 == a.0 {
        Some((b.0, a.1))
    } else {
        None
    }
}

impl Neighborhood for PipelineNeighborhood {
    fn fill(&mut self, mapping: &Mapping) {
        self.offsets.truncate(1);
        if !self.load(mapping) {
            return;
        }
        let cur = std::mem::take(&mut self.current);
        self.structural_moves(&cur);
        if self.swaps {
            self.swap_moves(&cur);
        }
        self.current = cur;
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, k: usize) -> Mapping {
        let record = &self.groups[self.offsets[k]..self.offsets[k + 1]];
        Mapping::new(
            record
                .iter()
                .map(|group| {
                    Assignment::new(
                        (group.lo..=group.hi).collect(),
                        self.arena[group.procs()]
                            .iter()
                            .map(|&q| ProcId(q))
                            .collect(),
                        group.mode,
                    )
                })
                .collect(),
        )
    }
}
