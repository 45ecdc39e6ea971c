//! Runtime of the heuristics on instances far beyond exhaustive reach —
//! the practical counterpart to the NP-hard cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use repliflow_core::gen::Gen;
use repliflow_core::instance::{Objective, ProblemInstance};
use repliflow_core::mapping::{Mapping, Mode};
use repliflow_heuristics::{annealing, greedy, local_search};
use std::hint::black_box;

fn bench_pipeline_greedy(c: &mut Criterion) {
    let mut gen = Gen::new(0x6B0);
    let mut group = c.benchmark_group("pipeline_period_greedy");
    for n in [16usize, 64, 256] {
        let pipe = gen.pipeline(n, 1, 100);
        let plat = gen.het_platform(16, 1, 10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(greedy::pipeline_period_greedy(&pipe, &plat)));
        });
    }
    group.finish();
}

fn bench_fork_greedy(c: &mut Criterion) {
    let mut gen = Gen::new(0x6B1);
    let mut group = c.benchmark_group("fork_latency_greedy");
    for n in [16usize, 64, 256] {
        let fork = gen.fork(n, 1, 100);
        let plat = gen.het_platform(16, 1, 10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(greedy::fork_latency_greedy(&fork, &plat)));
        });
    }
    group.finish();
}

fn bench_local_search(c: &mut Criterion) {
    let mut gen = Gen::new(0x6B2);
    let mut group = c.benchmark_group("local_search_round");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let pipe = gen.pipeline(n, 1, 100);
        let plat = gen.het_platform(8, 1, 10);
        let start = Mapping::whole(n, plat.procs().collect(), Mode::Replicated);
        let instance = ProblemInstance::new(pipe, plat, false, Objective::Period);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(local_search::improve(&instance, start.clone(), 5)));
        });
    }
    group.finish();
}

fn bench_annealing(c: &mut Criterion) {
    let mut gen = Gen::new(0x6B3);
    let mut group = c.benchmark_group("annealing_500_steps");
    group.sample_size(10);
    let pipe = gen.pipeline(12, 1, 100);
    let plat = gen.het_platform(6, 1, 10);
    let start = Mapping::whole(12, plat.procs().collect(), Mode::Replicated);
    let instance = ProblemInstance::new(pipe, plat, false, Objective::Period);
    let schedule = annealing::Schedule {
        steps: 500,
        ..annealing::Schedule::default()
    };
    group.bench_function("n12_p6", |b| {
        b.iter(|| black_box(annealing::anneal(&instance, start.clone(), schedule, 42)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_greedy,
    bench_fork_greedy,
    bench_local_search,
    bench_annealing
);
criterion_main!(benches);
