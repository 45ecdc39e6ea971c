//! # repliflow-heuristics
//!
//! Heuristics for the NP-hard cells of Table 1 — the "heuristics should be
//! designed to solve the combinatorial instances of the problem" future
//! work the paper's conclusion calls for.
//!
//! * [`baselines`] — replicate-everything and fastest-single-processor.
//! * [`greedy`] — constructive heuristics: chains-to-chains splitting with
//!   heavy-to-fast matching for heterogeneous pipeline period (the
//!   Theorem 9 cell), LPT placement for heterogeneous fork latency (the
//!   Theorem 12/15 cells).
//! * [`local_search`] — steepest-descent over the instance's
//!   neighborhood.
//! * [`annealing`] — simulated annealing over the same neighborhood.
//! * [`neighborhood`] — the neighborhood a search walks, picked from the
//!   [`ProblemInstance`](repliflow_core::instance::ProblemInstance) by
//!   [`neighborhood::instance_neighborhood`]: structural moves (boundary
//!   shifts, processor transfers, merges, splits, mode toggles) for
//!   simplified pipelines, the same plus processor swaps for
//!   communication-aware pipelines (swaps only matter once link
//!   bandwidths exist), and group moves plus swaps for forks and
//!   fork-joins.
//! * [`score`] — the one scorer every search ranks mappings by,
//!   [`score::score_instance`]: it evaluates through the instance's own
//!   cost model (the simplified Section 3.4 model or the
//!   communication-aware model of Sections 3.2–3.3) and enforces
//!   bi-criteria and reliability bounds on every mapping it ranks.
//! * [`moves`] — the move generators behind the neighborhoods.
//!
//! Local search and annealing walk a [`neighborhood::Neighborhood`]:
//! `fill` lists the neighbors of the current mapping, `get(k)` builds
//! the `k`-th. For pipelines the list is lazy
//! ([`neighborhood::PipelineNeighborhood`]): compact records in reused
//! buffers, so annealing builds only the neighbor it draws and local
//! search only the neighbors it scores. The contract is that the lazy
//! list is the materialised one ([`moves::neighbors`],
//! [`moves::neighbors_with_swaps`]) — same neighbors, same order, same
//! deduplication — so every random draw, and every result, is the one
//! the materialised search would make.
//!
//! All heuristics emit *valid* mappings; their optimality gaps against
//! the exhaustive `repliflow-exact` oracle are measured by this crate's
//! tests (small instances) and quantified by
//! `repliflow-bench --bin heuristic_gap`.

#![warn(missing_docs)]

pub mod annealing;
pub mod baselines;
pub mod greedy;
pub mod local_search;
pub mod moves;
pub mod neighborhood;
pub mod score;
