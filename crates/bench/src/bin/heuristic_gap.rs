//! Measures the optimality gap of the heuristics on the NP-hard Table 1
//! cells (heterogeneous pipeline period, heterogeneous fork latency) —
//! the experiment behind the paper's "heuristics should be designed to
//! solve the combinatorial instances" future work.
//!
//! Small instances are compared against the exhaustive oracle (exact
//! gaps); a large instance demonstrates that every heuristic stays
//! polynomial where exact search is hopeless.

use repliflow_bench::config::SEED;
use repliflow_core::gen::Gen;
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::mapping::{Mapping, Mode};
use repliflow_core::rational::Rat;
use repliflow_exact::Goal;
use repliflow_heuristics::{annealing, baselines, greedy, local_search};
use std::time::Instant;

struct GapStats {
    name: &'static str,
    optimal: usize,
    total: usize,
    worst_gap: f64,
    mean_gap: f64,
}

fn main() {
    let mut gen = Gen::new(SEED ^ 0x6A9);
    let total = 40;

    // ---------------- heterogeneous pipeline period (Thm 9 cell) -------
    let mut stats: Vec<GapStats> = ["greedy", "local-search", "annealing", "replicate-all"]
        .into_iter()
        .map(|name| GapStats {
            name,
            optimal: 0,
            total,
            worst_gap: 1.0,
            mean_gap: 0.0,
        })
        .collect();

    for case in 0..total {
        let n = gen.size(2, 6);
        let p = gen.size(2, 5);
        let pipe = gen.pipeline(n, 1, 20);
        let plat = gen.het_platform(p, 1, 8);
        let opt = repliflow_exact::solve_pipeline(&pipe, &plat, false, Goal::MinPeriod)
            .unwrap()
            .period;

        let start = Mapping::whole(n, plat.procs().collect(), Mode::Replicated);
        let instance = ProblemInstance::new(pipe.clone(), plat.clone(), false, Objective::Period);
        let candidates: Vec<(usize, Rat)> = vec![
            (0, {
                let m = greedy::pipeline_period_greedy(&pipe, &plat);
                pipe.period(&plat, &m).unwrap()
            }),
            (1, {
                let m = local_search::improve(&instance, start.clone(), 200);
                pipe.period(&plat, &m).unwrap()
            }),
            (2, {
                let m = annealing::anneal(
                    &instance,
                    start.clone(),
                    annealing::Schedule::default(),
                    case as u64,
                );
                pipe.period(&plat, &m).unwrap()
            }),
            (3, pipe.period(&plat, &start).unwrap()),
        ];
        for (idx, value) in candidates {
            let gap = value.to_f64() / opt.to_f64();
            let s = &mut stats[idx];
            if value == opt {
                s.optimal += 1;
            }
            s.worst_gap = s.worst_gap.max(gap);
            s.mean_gap += gap;
        }
    }

    println!("Heterogeneous pipeline, period objective (NP-hard, Theorem 9 cell)");
    println!("{total} random instances (n<=6, p<=5) vs the exhaustive oracle:\n");
    println!(
        "  {:<16} {:>10} {:>12} {:>12}",
        "heuristic", "optimal", "mean gap", "worst gap"
    );
    for s in &stats {
        println!(
            "  {:<16} {:>7}/{:<3} {:>11.4}x {:>11.4}x",
            s.name,
            s.optimal,
            s.total,
            s.mean_gap / s.total as f64,
            s.worst_gap
        );
    }

    // ---------------- heterogeneous fork latency (Thm 12/15 cell) ------
    let mut fork_optimal = 0;
    let mut fork_worst: f64 = 1.0;
    let mut fork_mean = 0.0;
    for _ in 0..total {
        let leaves = gen.size(1, 5);
        let p = gen.size(2, 4);
        let fork = gen.fork(leaves, 1, 15);
        let plat = gen.het_platform(p, 1, 6);
        let opt = repliflow_exact::solve_fork(&fork, &plat, false, Goal::MinLatency)
            .unwrap()
            .latency;
        let m = greedy::fork_latency_greedy(&fork, &plat);
        let got = fork.latency(&plat, &m).unwrap();
        let gap = got.to_f64() / opt.to_f64();
        if got == opt {
            fork_optimal += 1;
        }
        fork_worst = fork_worst.max(gap);
        fork_mean += gap;
    }
    println!("\nHeterogeneous fork, latency objective (NP-hard, Theorems 12/15 cells)");
    println!(
        "  {:<16} {:>7}/{:<3} {:>11.4}x {:>11.4}x",
        "LPT greedy",
        fork_optimal,
        total,
        fork_mean / total as f64,
        fork_worst
    );

    // ---------------- scale demonstration ------------------------------
    println!("\nPolynomial scalability (n = 200 stages, p = 64 processors):");
    let pipe = gen.pipeline(200, 1, 1000);
    let plat = gen.het_platform(64, 1, 100);
    let wf = repliflow_core::workflow::Workflow::Pipeline(pipe.clone());

    let t = Instant::now();
    let m = greedy::pipeline_period_greedy(&pipe, &plat);
    println!(
        "  greedy:        period {:>12.3}   in {:?}",
        pipe.period(&plat, &m).unwrap().to_f64(),
        t.elapsed()
    );
    let t = Instant::now();
    let m = baselines::replicate_all(&wf, &plat);
    println!(
        "  replicate-all: period {:>12.3}   in {:?}",
        pipe.period(&plat, &m).unwrap().to_f64(),
        t.elapsed()
    );
    let t = Instant::now();
    let start = Mapping::whole(pipe.n_stages(), plat.procs().collect(), Mode::Replicated);
    let instance = ProblemInstance::new(pipe.clone(), plat.clone(), false, Objective::Period);
    let m = local_search::improve(&instance, start, 30);
    println!(
        "  local search:  period {:>12.3}   in {:?}",
        pipe.period(&plat, &m).unwrap().to_f64(),
        t.elapsed()
    );
}
