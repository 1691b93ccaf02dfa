//! Micro-benchmarks of the tensor kernels: GEMM, convolution, attention,
//! interpolation. These dominate the cost of real-mode fine-tuning, so
//! regressions here directly slow every experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use gmorph::nn::layers::MultiHeadAttention;
use gmorph::nn::Mode;
use gmorph::tensor::conv::{conv2d_forward, Conv2dGeom};
use gmorph::tensor::engine;
use gmorph::tensor::gemm::{matmul, matmul_nt, matmul_tn, naive as gemm_naive};
use gmorph::tensor::interp::{resize2d_forward, InterpMode};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::Tensor;
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Rng::new(0);
    let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let b = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let mut g = c.benchmark_group("gemm-64");
    g.bench_function("nn", |bench| {
        bench.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
    });
    g.bench_function("nt", |bench| {
        bench.iter(|| matmul_nt(black_box(&a), black_box(&b)).unwrap())
    });
    g.bench_function("tn", |bench| {
        bench.iter(|| matmul_tn(black_box(&a), black_box(&b)).unwrap())
    });
    g.finish();
}

fn bench_gemm_blocked_vs_seed(c: &mut Criterion) {
    // The blocked/threaded engine against the seed's naive loops at a size
    // where blocking matters (256³ ≈ 33 MFLOP).
    let mut rng = Rng::new(4);
    let a = Tensor::randn(&[256, 256], 1.0, &mut rng);
    let b = Tensor::randn(&[256, 256], 1.0, &mut rng);
    let mut g = c.benchmark_group("gemm-256");
    g.bench_function("naive-seed", |bench| {
        bench.iter(|| gemm_naive::matmul(black_box(&a), black_box(&b)).unwrap())
    });
    g.bench_function("blocked-1t", |bench| {
        engine::with_thread_limit(1, || {
            bench.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
        })
    });
    let many = engine::num_threads().max(2);
    g.bench_function("blocked-nt", |bench| {
        engine::with_thread_limit(many, || {
            bench.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
        })
    });
    g.finish();
}

fn bench_conv_threads(c: &mut Criterion) {
    // Batch-parallel conv at 1 thread vs the pool size.
    let mut rng = Rng::new(5);
    let x = Tensor::randn(&[8, 8, 16, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], 0.5, &mut rng);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    let mut g = c.benchmark_group("conv2d-threads");
    g.bench_function("1t", |bench| {
        engine::with_thread_limit(1, || {
            bench.iter(|| conv2d_forward(black_box(&x), black_box(&w), None, geom).unwrap())
        })
    });
    let many = engine::num_threads().max(2);
    g.bench_function("nt", |bench| {
        engine::with_thread_limit(many, || {
            bench.iter(|| conv2d_forward(black_box(&x), black_box(&w), None, geom).unwrap())
        })
    });
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let x = Tensor::randn(&[8, 8, 16, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], 0.5, &mut rng);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    c.bench_function("conv2d-8x8x16x16", |bench| {
        bench.iter(|| conv2d_forward(black_box(&x), black_box(&w), None, geom).unwrap())
    });
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let mut attn = MultiHeadAttention::new(32, 4, &mut rng).unwrap();
    let x = Tensor::randn(&[4, 16, 32], 1.0, &mut rng);
    c.bench_function("attention-4x16x32", |bench| {
        bench.iter(|| attn.forward(black_box(&x), Mode::Eval).unwrap())
    });
}

fn bench_interp(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let x = Tensor::randn(&[8, 16, 8, 8], 1.0, &mut rng);
    c.bench_function("bilinear-8x16x8x8-to-16x16", |bench| {
        bench.iter(|| resize2d_forward(black_box(&x), 16, 16, InterpMode::Bilinear).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gemm, bench_gemm_blocked_vs_seed, bench_conv, bench_conv_threads, bench_attention, bench_interp
}
criterion_main!(benches);
