//! FLOPs and latency estimation.
//!
//! Two latency paths exist, mirroring how we substitute for the paper's
//! GPU testbed (DESIGN.md §1):
//!
//! - [`measure_latency_ms`]: wall-clock of the real mini-scale
//!   [`TreeModel`] on this CPU — ground truth for our engine,
//! - [`estimate_latency_ms`]: an analytic model over *paper-scale*
//!   abstract graphs: each node costs a per-op launch overhead plus
//!   `flops / throughput`. The [`Backend::Eager`] constants approximate a
//!   PyTorch-style eager executor; [`Backend::Fused`] approximates a
//!   TensorRT-style compiled engine (lower launch overhead, higher
//!   effective throughput from operator fusion). The *ratio* structure —
//!   which model is faster and by how much — is what Table 3 depends on.

use gmorph_graph::{AbsGraph, TreeModel};
use gmorph_nn::Mode;
use gmorph_tensor::{Result, Tensor};
use std::time::Instant;

/// Execution backend for the analytic latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// PyTorch-like eager execution: high per-op overhead.
    Eager,
    /// TensorRT-like compiled execution: fused ops, lower overhead.
    Fused,
}

impl Backend {
    /// Per-operator launch overhead in microseconds.
    pub fn per_op_overhead_us(self) -> f64 {
        match self {
            Backend::Eager => 30.0,
            Backend::Fused => 6.0,
        }
    }

    /// Effective arithmetic throughput in GFLOP/s.
    pub fn throughput_gflops(self) -> f64 {
        match self {
            Backend::Eager => 14_000.0,
            Backend::Fused => 21_000.0,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Eager => write!(f, "Eager"),
            Backend::Fused => write!(f, "Fused"),
        }
    }
}

/// Total per-sample FLOPs of an abstract graph (the FLOPs Estimator).
pub fn flops_of(graph: &AbsGraph) -> Result<u64> {
    graph.flops()
}

/// Analytic latency of one inference pass over an abstract graph, in
/// milliseconds.
pub fn estimate_latency_ms(graph: &AbsGraph, backend: Backend) -> Result<f64> {
    let mut ms = 0.0f64;
    for (_, node) in graph.iter() {
        let flops = node.spec.flops(&node.input_shape)? as f64;
        ms += backend.per_op_overhead_us() / 1000.0
            + flops / backend.throughput_gflops() / 1e6;
    }
    Ok(ms)
}

/// Measures wall-clock inference latency of a tree model on this CPU.
///
/// Runs `warmup` unmeasured passes, then `iters` measured passes, and
/// returns the median in milliseconds. Caches are cleared first so the
/// measurement covers inference only.
pub fn measure_latency_ms(
    model: &mut TreeModel,
    input: &Tensor,
    warmup: usize,
    iters: usize,
) -> Result<f64> {
    model.clear_caches();
    for _ in 0..warmup {
        model.forward(input, Mode::Eval)?;
    }
    let mut samples = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        model.forward(input, Mode::Eval)?;
        samples.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(samples[samples.len() / 2])
}

/// Measures serving throughput in queries (samples) per second.
///
/// The paper's second deployment scenario (§7): "GMorph can be applied to
/// optimize multi-DNNs in model serving systems to improve serving
/// throughput, which is measured as queries per second." Runs batched
/// inference repeatedly for at least `min_duration` and reports
/// samples/second.
pub fn measure_throughput_qps(
    model: &mut TreeModel,
    input: &Tensor,
    min_duration: std::time::Duration,
) -> Result<f64> {
    model.clear_caches();
    model.forward(input, Mode::Eval)?; // Warm-up.
    let batch = input.dims().first().copied().unwrap_or(1);
    let t0 = Instant::now();
    let mut queries = 0usize;
    while t0.elapsed() < min_duration {
        model.forward(input, Mode::Eval)?;
        queries += batch;
    }
    Ok(queries as f64 / t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::{parse_models, parse_specs};
    use gmorph_graph::{generator, mutation, pairs};
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_tensor::rng::Rng;

    fn graphs() -> (AbsGraph, AbsGraph) {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let mini = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap();
        let paper = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t1).unwrap(),
        ])
        .unwrap();
        (mini, paper)
    }

    #[test]
    fn fused_is_faster_than_eager() {
        let (_, paper) = graphs();
        let eager = estimate_latency_ms(&paper, Backend::Eager).unwrap();
        let fused = estimate_latency_ms(&paper, Backend::Fused).unwrap();
        assert!(fused < eager, "{fused} !< {eager}");
        assert!(eager > 0.0);
    }

    #[test]
    fn paper_scale_latency_in_milliseconds_range() {
        // Two paper-scale VGG-13s should land in the single-digit
        // millisecond range, like Table 7's originals.
        let (_, paper) = graphs();
        let eager = estimate_latency_ms(&paper, Backend::Eager).unwrap();
        assert!(eager > 0.5 && eager < 50.0, "eager = {eager} ms");
    }

    #[test]
    fn mutation_reduces_estimated_latency_on_both_backends() {
        let (_, paper) = graphs();
        let prs = pairs::shareable_pairs(&paper).unwrap();
        let cross = prs
            .iter()
            .find(|&&(n, m)| {
                paper.node(n).unwrap().task_id != paper.node(m).unwrap().task_id
                    && paper.node(m).unwrap().op_id > 3
            })
            .copied()
            .unwrap();
        let (mutated, ops) = mutation::mutation_pass(&paper, &[cross]).unwrap();
        assert_eq!(ops.len(), 1);
        for b in [Backend::Eager, Backend::Fused] {
            let before = estimate_latency_ms(&paper, b).unwrap();
            let after = estimate_latency_ms(&mutated, b).unwrap();
            assert!(after < before, "{b}: {after} !< {before}");
        }
    }

    #[test]
    fn measured_latency_positive_and_shrinks_with_sharing() {
        let mut rng = Rng::new(0);
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let models = vec![
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
        ];
        let (graph, store) = parse_models(&models).unwrap();
        let x = Tensor::randn(&[4, 3, 16, 16], 1.0, &mut rng);

        let (mut orig, _) = generator::generate(&graph, &store, &mut rng).unwrap();
        let lat_orig = measure_latency_ms(&mut orig, &x, 1, 5).unwrap();
        assert!(lat_orig > 0.0);

        // Share the whole backbone: task 1's head reuses task 0's deepest
        // conv input.
        let heads = graph.head_of_task().unwrap();
        let deep = graph
            .iter()
            .find(|(_, n)| n.task_id == 0 && n.op_id == 10)
            .map(|(id, _)| id)
            .unwrap();
        let (mutated, _) = mutation::mutation_pass(&graph, &[(deep, heads[1])]).unwrap();
        let (mut fused, _) = generator::generate(&mutated, &store, &mut rng).unwrap();
        let lat_fused = measure_latency_ms(&mut fused, &x, 1, 5).unwrap();
        assert!(
            lat_fused < lat_orig,
            "fused {lat_fused} ms !< original {lat_orig} ms"
        );
    }

    #[test]
    fn throughput_improves_with_fusion() {
        let mut rng = Rng::new(5);
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let models = vec![
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
        ];
        let (graph, store) = parse_models(&models).unwrap();
        let x = Tensor::randn(&[4, 3, 16, 16], 1.0, &mut rng);
        let dur = std::time::Duration::from_millis(120);

        let (mut orig, _) = generator::generate(&graph, &store, &mut rng).unwrap();
        let qps_orig = measure_throughput_qps(&mut orig, &x, dur).unwrap();
        assert!(qps_orig > 0.0);

        let heads = graph.head_of_task().unwrap();
        let deep = graph
            .iter()
            .find(|(_, n)| n.task_id == 0 && n.op_id == 10)
            .map(|(id, _)| id)
            .unwrap();
        let (mutated, _) = mutation::mutation_pass(&graph, &[(deep, heads[1])]).unwrap();
        let (mut fused, _) = generator::generate(&mutated, &store, &mut rng).unwrap();
        let qps_fused = measure_throughput_qps(&mut fused, &x, dur).unwrap();
        assert!(
            qps_fused > qps_orig,
            "fused {qps_fused:.0} qps !> original {qps_orig:.0} qps"
        );
    }

    #[test]
    fn flops_of_matches_graph_flops() {
        let (mini, _) = graphs();
        assert_eq!(flops_of(&mini).unwrap(), mini.flops().unwrap());
    }
}
