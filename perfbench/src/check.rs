//! Answer checks, run outside the timed windows: every answer's
//! (period, latency) re-derived through the core cost model, proven
//! answers compared with the enumeration oracle where it is small
//! enough, and the golden instances compared with their snapshots.

use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::mapping::{Mapping, Mode};
use repliflow_solver::{Optimality, SolveReport, SolveRequest, SolverService};
use std::path::Path;

/// Largest instance the oracle check enumerates.
const ORACLE_MAX_STAGES: usize = 8;
const ORACLE_MAX_PROCS: usize = 6;

/// Re-derives an answer's period and latency from its mapping through
/// `ProblemInstance::objectives` and checks the reported objective.
pub fn rederive(instance: &ProblemInstance, report: &SolveReport) -> Result<(), String> {
    let Some(mapping) = &report.mapping else {
        return match report.optimality {
            Optimality::Infeasible => Ok(()),
            other => Err(format!("{other} answer without a mapping")),
        };
    };
    let (period, latency) = instance
        .objectives(mapping)
        .map_err(|e| format!("mapping does not evaluate: {e}"))?;
    if Some(period) != report.period || Some(latency) != report.latency {
        return Err(format!(
            "reported ({:?}, {:?}) but the cost model gives ({period}, {latency})",
            report.period, report.latency
        ));
    }
    if report.optimality != Optimality::Infeasible {
        let primary = instance.objective.score(period, latency).0;
        if Some(primary) != report.objective_value {
            return Err(format!(
                "reported objective {:?} but the mapping scores {primary}",
                report.objective_value
            ));
        }
    }
    Ok(())
}

/// Compares a proven answer with the exhaustive oracle when the instance
/// is a simplified-model one small enough to enumerate; `None` when the
/// oracle does not apply.
pub fn oracle(instance: &ProblemInstance, report: &SolveReport) -> Option<Result<(), String>> {
    if report.optimality != Optimality::Proven
        || instance.cost_model != CostModel::Simplified
        || instance.objective.reliability_bound().is_some()
        || instance.workflow.n_stages() > ORACLE_MAX_STAGES
        || instance.platform.n_procs() > ORACLE_MAX_PROCS
    {
        return None;
    }
    let best = repliflow_exact::solve(instance)?;
    let want = instance.objective.score(best.period, best.latency).0;
    Some(if report.objective_value == Some(want) {
        Ok(())
    } else {
        Err(format!(
            "proven objective {:?} but the oracle finds {want}",
            report.objective_value
        ))
    })
}

/// The objective of the trivial mapping (every stage replicated on the
/// fastest processor alone): the scale `objective_geomean` divides by, so
/// that instances of different sizes weigh alike.
pub fn reference_objective(instance: &ProblemInstance) -> Option<f64> {
    let whole = Mapping::whole(
        instance.workflow.n_stages(),
        vec![instance.platform.fastest()],
        Mode::Replicated,
    );
    let (period, latency) = instance.objectives(&whole).ok()?;
    let primary = match instance.objective {
        Objective::Period
        | Objective::PeriodUnderLatency(_)
        | Objective::PeriodUnderLatencyStrict(_)
        | Objective::PeriodUnderReliability(_) => period,
        _ => latency,
    };
    Some(primary.to_f64())
}

/// Solves every golden instance under `dir` that has a `.expected`
/// snapshot and compares engine, optimality, period, latency and
/// objective. Returns how many were checked.
pub fn goldens(service: &SolverService, dir: &Path) -> Result<usize, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.with_extension("expected").exists())
        .collect();
    paths.sort();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let expected =
            std::fs::read_to_string(path.with_extension("expected")).map_err(|e| e.to_string())?;
        let instance: ProblemInstance =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = service
            .solve(&SolveRequest::new(instance.clone()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rederive(&instance, &report).map_err(|e| format!("{}: {e}", path.display()))?;
        let show = |r: Option<repliflow_core::rational::Rat>| r.map(|r| r.to_string());
        let got = [
            ("engine", Some(report.engine_used.to_string())),
            ("optimal", Some(report.optimality.to_string())),
            ("period", show(report.period)),
            ("latency", show(report.latency)),
            ("objective", show(report.objective_value)),
        ];
        for (key, value) in got {
            let want = expected.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == key).then(|| v.split_whitespace().next().unwrap_or("").to_string())
            });
            if want.is_some() && want != value {
                return Err(format!(
                    "{}: {key} is {value:?}, snapshot says {want:?}",
                    path.display()
                ));
            }
        }
    }
    Ok(paths.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_match_their_snapshots() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/instances");
        let service = SolverService::builder().build();
        assert!(goldens(&service, &dir).unwrap() >= 10);
    }

    #[test]
    fn a_tampered_answer_is_caught() {
        let mut gen = crate::gen::Generator::new(1);
        let instance = gen.exact();
        let service = SolverService::builder().build();
        let report = service.solve(&SolveRequest::new(instance.clone())).unwrap();
        assert_eq!(rederive(&instance, &report), Ok(()));
        assert_eq!(oracle(&instance, &report), Some(Ok(())));
        let mut wrong = (*report).clone();
        wrong.period = wrong.period.map(|p| p + repliflow_core::rational::Rat::ONE);
        assert!(rederive(&instance, &wrong).is_err());
        let mut wrong = (*report).clone();
        wrong.objective_value = wrong.objective_value.map(|p| p + p);
        assert!(oracle(&instance, &wrong).unwrap().is_err());
    }
}
