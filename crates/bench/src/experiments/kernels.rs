//! Kernel-engine microbenchmark: blocked/threaded kernels vs the seed's
//! single-threaded naive loops, written as machine-readable JSON.
//!
//! Emits `BENCH_kernels.json` in the output directory — a JSON array of
//! `{op, shape, threads, ns_per_iter}` records — so CI and scripts can
//! track kernel throughput without parsing criterion output.

use crate::ExperimentOpts;
use gmorph::tensor::conv::{conv2d_forward, Conv2dGeom};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{engine, gemm, Tensor};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Record {
    op: String,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
}

/// Times `f` as min-over-samples nanoseconds per call.
fn time_ns(iters: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    // One warmup sample, then keep the fastest to suppress scheduler noise.
    for _ in 0..iters {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn gemm_records(opts: &ExperimentOpts, records: &mut Vec<Record>) {
    let mut rng = Rng::new(opts.seed);
    let dim = if opts.quick { 128 } else { 256 };
    let a = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let b = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let shape = format!("{dim}x{dim}x{dim}");
    let (iters, samples) = if opts.quick { (2, 3) } else { (4, 5) };

    records.push(Record {
        op: "gemm_naive".to_string(),
        shape: shape.clone(),
        threads: 1,
        ns_per_iter: time_ns(iters, samples, || {
            black_box(gemm::naive::matmul(black_box(&a), black_box(&b)).unwrap());
        }),
    });
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            records.push(Record {
                op: "gemm_blocked".to_string(),
                shape: shape.clone(),
                threads,
                ns_per_iter: time_ns(iters, samples, || {
                    black_box(gemm::matmul(black_box(&a), black_box(&b)).unwrap());
                }),
            });
        });
    }
}

fn conv_records(opts: &ExperimentOpts, records: &mut Vec<Record>) {
    let mut rng = Rng::new(opts.seed ^ 1);
    let x = Tensor::randn(&[8, 8, 16, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], 0.5, &mut rng);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    let (iters, samples) = if opts.quick { (3, 3) } else { (8, 5) };
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            records.push(Record {
                op: "conv2d".to_string(),
                shape: "8x8x16x16/k3s1p1".to_string(),
                threads,
                ns_per_iter: time_ns(iters, samples, || {
                    black_box(conv2d_forward(black_box(&x), black_box(&w), None, geom).unwrap());
                }),
            });
        });
    }
}

/// Runs the kernel microbenchmarks and writes `BENCH_kernels.json`.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let mut records = Vec::new();
    gemm_records(opts, &mut records);
    conv_records(opts, &mut records);

    println!(
        "{:<14} {:>16} {:>8} {:>14}",
        "op", "shape", "threads", "ns/iter"
    );
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        println!(
            "{:<14} {:>16} {:>8} {:>14.0}",
            r.op, r.shape, r.threads, r.ns_per_iter
        );
        let _ = writeln!(
            json,
            "  {{\"op\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"ns_per_iter\": {:.0}}}{}",
            r.op,
            r.shape,
            r.threads,
            r.ns_per_iter,
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    json.push_str("]\n");

    std::fs::create_dir_all(&opts.out_dir).ok();
    let path = opts.out_dir.join("BENCH_kernels.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[wrote {}]", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_machine_readable_json() {
        let dir = std::env::temp_dir().join("gmorph_bench_kernels_test");
        let opts = ExperimentOpts {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        run(&opts).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.contains("\"op\": \"gemm_blocked\""));
        assert!(text.contains("\"op\": \"gemm_naive\""));
        assert!(text.contains("\"op\": \"conv2d\""));
        assert!(text.contains("\"ns_per_iter\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
