//! Benchmarks of full (surrogate-mode) search runs: miniature versions of
//! the Figure 7 / Figure 8 workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use gmorph::graph::{parser, CapacityVector, WeightStore};
use gmorph::perf::accuracy::{FinetuneConfig, SurrogateParams};
use gmorph::prelude::*;
use gmorph::search::driver::{run_search, SearchConfig};
use gmorph::search::evaluator::{EvalMode, SurrogateContext};
use std::hint::black_box;

fn setup() -> (AbsGraph, AbsGraph, WeightStore, EvalMode) {
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 1).unwrap();
    let mini = parser::parse_specs(&bench.mini).unwrap();
    let paper = parser::parse_specs(&bench.paper).unwrap();
    let mut weights = WeightStore::new();
    for (_, n) in mini.iter() {
        weights.insert(n.key(), n.spec.clone(), Vec::new());
    }
    let mode = EvalMode::Surrogate(SurrogateContext {
        orig_capacity: CapacityVector::of(&mini).unwrap(),
        params: SurrogateParams::default(),
        teacher_scores: vec![0.85, 0.9, 0.8],
    });
    (mini, paper, weights, mode)
}

fn config(rule_filter: bool, early_termination: bool) -> SearchConfig {
    SearchConfig {
        iterations: 12,
        rule_filter,
        finetune: FinetuneConfig {
            max_epochs: 35,
            eval_every: 5,
            target_drop: 0.01,
            early_termination,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn bench_search_variants(c: &mut Criterion) {
    let (mini, paper, weights, mode) = setup();
    let mut g = c.benchmark_group("search-12iter-B1");
    g.bench_function("gmorph", |b| {
        b.iter(|| {
            run_search(
                black_box(&mini),
                black_box(&paper),
                &weights,
                &mode,
                &config(false, false),
            )
            .unwrap()
        })
    });
    g.bench_function("gmorph-p", |b| {
        b.iter(|| run_search(&mini, &paper, &weights, &mode, &config(false, true)).unwrap())
    });
    g.bench_function("gmorph-p-r", |b| {
        b.iter(|| run_search(&mini, &paper, &weights, &mode, &config(true, true)).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_search_variants
}
criterion_main!(benches);
