//! The built-in engines behind the registry: exhaustive search and the
//! paper's polynomial algorithms for the simplified model, enumeration
//! and branch-and-bound for the communication-aware model, the hedged
//! race, and one heuristic portfolio for both models. The portfolio
//! runs as [`HeuristicEngine`] (`heuristic`) on simplified instances
//! and as [`CommHeuristicEngine`] (`comm-heuristic`) on
//! communication-aware ones; the two engines share every line of
//! search and differ only in their name, because the instance itself
//! picks the cost model that prices mappings and the neighborhood the
//! search walks.

mod comm;
mod comm_bb;
mod exact;
pub mod hedged;
mod heuristic;
mod paper;

pub use comm::CommExactEngine;
pub use comm_bb::CommBbEngine;
pub use exact::ExactEngine;
pub use hedged::{HedgeStats, HedgedEngine};
pub use heuristic::{CommHeuristicEngine, HeuristicEngine};
pub use paper::PaperEngine;

pub(crate) use exact::{instance_fits, within_exact_capacity};

/// Whether `comm-bb` can even *represent* the instance. The
/// branch-and-bound's wide-mask search carries its own capacity
/// (`repliflow_exact::comm_bb::{MAX_STAGES, MAX_PROCS}`, 128 each) —
/// it no longer shares the dense-DP bitmask limits of the
/// simplified-model solvers (`pipeline::MAX_PROCS` / `fork::MAX_LEAVES`
/// = 20). Instances beyond this panic-free ceiling are rejected by the
/// engine with a capacity error and skipped by the `Auto` route (which
/// falls through to `comm-heuristic`).
pub(crate) fn comm_bb_capacity(instance: &repliflow_core::instance::ProblemInstance) -> bool {
    instance.workflow.n_stages() <= repliflow_exact::comm_bb::MAX_STAGES
        && instance.platform.n_procs() <= repliflow_exact::comm_bb::MAX_PROCS
}

use repliflow_algorithms::Solved;
use repliflow_core::instance::Objective;
use repliflow_core::mapping::Mapping;
use repliflow_core::rational::Rat;

/// Orients a (mapping, period, latency) triple into a [`Solved`] whose
/// `objective` field matches the instance's objective — the one place
/// that decides which criterion a report's `objective_value` carries.
pub(crate) fn orient(objective: Objective, mapping: Mapping, period: Rat, latency: Rat) -> Solved {
    match objective {
        Objective::Period
        | Objective::PeriodUnderLatency(_)
        | Objective::PeriodUnderLatencyStrict(_)
        | Objective::PeriodUnderReliability(_) => Solved::for_period(mapping, period, latency),
        Objective::Latency
        | Objective::LatencyUnderPeriod(_)
        | Objective::LatencyUnderPeriodStrict(_)
        | Objective::LatencyUnderReliability(_) => Solved::for_latency(mapping, period, latency),
    }
}
