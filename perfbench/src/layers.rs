//! The traced run: per-layer metrics.
//!
//! The workload's unit of work (one search, one grid pass, one serving
//! pass) runs once untraced and once with telemetry collecting; the traced
//! pass gives the counters, histograms and spans the program already
//! records, and the ratio of the two walls gives the tracing overhead.
//! Then, with telemetry off, the benchmark times calls into each layer's
//! public functions on the workload's own model.

use crate::report::{median, Ratio, Report};
use crate::search::{PickSearch, SearchTotals};
use crate::setup::{
    build_bench, cpu_timed, first_rows, fresh_original_tree, median_us, session_config,
    surrogate_pick, timed, traced, Ctx,
};
use gmorph::graph::TreeModel;
use gmorph::models::cache::load_or_train;
use gmorph::nn::layers::{LayerNorm, Linear, MultiHeadAttention};
use gmorph::nn::optim::Optim;
use gmorph::nn::{Block, Mode};
use gmorph::perf::accuracy::{finetune, surrogate_finetune, SurrogateParams};
use gmorph::perf::compile::compile_for_inference;
use gmorph::perf::estimator::{estimate_latency_ms, Backend};
use gmorph::prelude::*;
use gmorph::search::driver::propose_candidate;
use gmorph::search::EvalMode;
use gmorph::tensor::conv::{conv2d_backward_geom, conv2d_forward};
use gmorph::tensor::{buffer, engine, gemm, Result, Tensor};
use std::collections::BTreeMap;

/// What one unit of a workload did.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitStats {
    /// Operations the per-iteration counts divide by: search iterations,
    /// or serving requests.
    pub ops: usize,
    /// The unit's searches.
    pub search: SearchTotals,
    /// Best estimated speedup (the median over cells for the grid).
    pub best_speedup: f64,
    /// Best accuracy drop (the worst cell for the grid).
    pub best_drop: f32,
}

impl UnitStats {
    /// A unit made of searches: its iterations are its operations.
    pub fn search(search: SearchTotals, best_speedup: f64, best_drop: f32) -> UnitStats {
        UnitStats {
            ops: search.proposed,
            search,
            best_speedup,
            best_drop,
        }
    }
}

/// A workload's unit of work.
pub type Unit<'a> = dyn FnMut(&mut Report) -> Result<UnitStats> + 'a;

/// GEMM shapes (power-of-two buckets, M x K x N) that fill the top-five list
/// when a workload runs fewer distinct shapes: the five with the most
/// summed time in a traced B1 real-mode search.
const FALLBACK_GEMM_SHAPES: [[usize; 3]; 5] = [
    [16, 256, 4],
    [4, 64, 256],
    [256, 16, 4],
    [64, 4, 256],
    [16, 16, 256],
];

/// Runs the traced measurement and every per-layer microbenchmark.
///
/// `session` is the workload's primary benchmark (B1, or B7 for
/// `search-real-attn`).
pub fn traced_run(ctx: &Ctx, r: &mut Report, unit: &mut Unit, session: &Session) -> Result<()> {
    // Untraced, traced, untraced: the traced unit is compared with the
    // mean of the two around it, which cancels a steady drift in speed.
    let (before, cpu_before, _) = cpu_timed(|| unit(r));
    before?;
    buffer::set_byte_budget(Some(usize::MAX / 2));
    buffer::reset_served_bytes();
    let ((u, cpu_t, _), spans, tel) = traced(|| cpu_timed(|| unit(r)));
    let served_mib = buffer::served_bytes() as f64 / (1024.0 * 1024.0);
    buffer::set_byte_budget(None);
    buffer::reset_served_bytes();
    let u = u?;
    let (after, cpu_after, _) = cpu_timed(|| unit(r));
    after?;
    let cpu_u = (cpu_before + cpu_after) / 2.0;
    let ops = u.ops.max(1) as f64;
    let s = &u.search;

    // tensor: counts of the traced unit.
    let per = |c: f64| Ratio::new(c, ops);
    per(tel.counter("gemm.calls")).report(
        r,
        "tensor.gemm_calls_per_iter",
        "count",
        "gemm.calls / iterations",
    );
    per(tel.counter("conv.calls")).report(
        r,
        "tensor.conv_calls_per_iter",
        "count",
        "conv.calls / iterations",
    );
    let (hit, miss) = (tel.counter("pool.hit"), tel.counter("pool.miss"));
    Ratio::new(hit, hit + miss).report(
        r,
        "tensor.pool_hit_ratio",
        "ratio",
        "pool.hit / (pool.hit + pool.miss)",
    );
    per(served_mib).report(
        r,
        "tensor.pool_served_mb_per_iter",
        "MiB",
        "buffer::served_bytes / iterations",
    );
    let dispatches = tel.counter("engine.dispatch.pooled") + tel.counter("engine.dispatch.inline");
    per(dispatches).report(
        r,
        "tensor.engine_dispatches_per_iter",
        "count",
        "engine dispatches / iterations",
    );
    let dispatch = tel.hists.get("engine.dispatch_us");
    r.metric(
        "tensor.engine_dispatch_us_p50",
        dispatch.map_or(0.0, |h| h.p50),
        "us",
        format!(
            "engine.dispatch_us p50 (power-of-two bucket bound) of {} pooled dispatches",
            dispatch.map_or(0, |h| h.count)
        ),
    );

    // perf and search: the traced unit's searches.
    let (_, finetune_us) = spans.get("finetune");
    let proposed = s.proposed as f64;
    Ratio::new(finetune_us / 1e6, s.wall_s).report(
        r,
        "perf.finetune_share",
        "ratio",
        "finetune span s / search wall s",
    );
    Ratio::new(tel.counter("finetune.epochs"), tel.counter("finetune.runs")).report(
        r,
        "perf.finetune_epochs_per_candidate",
        "count",
        "finetune.epochs / finetune.runs",
    );
    Ratio::new(s.rule_filtered as f64, proposed).report(
        r,
        "perf.filter_skip_ratio",
        "ratio",
        "rule-filtered / proposed",
    );
    Ratio::new(s.early_terminated as f64, s.evaluated as f64).report(
        r,
        "perf.early_term_ratio",
        "ratio",
        "early-terminated / evaluated",
    );
    Ratio::new(s.wall_s - finetune_us / 1e6, proposed).report(
        r,
        "search.self_s_per_iter",
        "s",
        "(search wall - finetune spans) s / iterations",
    );
    Ratio::new(s.duplicates as f64, proposed).report(
        r,
        "search.dedup_ratio",
        "ratio",
        "duplicates / proposed",
    );
    Ratio::new(s.evaluated as f64, proposed).report(
        r,
        "search.evaluated_ratio",
        "ratio",
        "evaluated / proposed",
    );
    Ratio::new(tel.counter("search.accepted"), s.evaluated as f64).report(
        r,
        "search.accept_ratio",
        "ratio",
        "search.accepted / evaluated",
    );
    r.metric(
        "search.failed",
        s.failed as f64,
        "count",
        format!("of {} candidates", s.proposed),
    );
    r.metric(
        "search.quarantined",
        s.quarantined as f64,
        "count",
        format!("of {} candidates", s.proposed),
    );
    r.metric(
        "search.best_speedup_est",
        u.best_speedup,
        "x",
        "estimated (analytic) speedup of the best graph; quality, not gated",
    );
    r.metric(
        "search.best_drop",
        f64::from(u.best_drop),
        "ratio",
        "accuracy drop of the best graph; quality, not gated",
    );
    r.metric(
        "telemetry.overhead",
        cpu_t / cpu_u - 1.0,
        "ratio",
        format!(
            "traced {cpu_t:.4} / untraced {cpu_u:.4} process CPU s of one unit (mean of the \
             runs before and after), - 1"
        ),
    );

    let mut shapes: Vec<(String, f64, u64)> = tel
        .hists
        .iter()
        .filter_map(|(k, h)| {
            k.strip_prefix("gemm.us.")
                .map(|s| (s.to_string(), h.sum, h.count))
        })
        .collect();
    shapes.sort_by(|a, b| b.1.total_cmp(&a.1));
    let gemm_total: f64 = shapes.iter().map(|s| s.1).sum();
    gemm_metrics(r, &shapes, gemm_total)?;
    // The one wall-clock parallelism figure: the kernels get nproc threads
    // for it, then the benchmark's own count again.
    let pick = PickSearch::new(session, ctx.batch_k)?;
    engine::set_num_threads(ctx.batch_k);
    let pairs = (0..3).map(|_| pick.run(r)).collect::<Result<Vec<_>>>();
    engine::set_num_threads(ctx.threads);
    let pairs = pairs?;
    let col = |i: usize| median(&pairs.iter().map(|p| p[i]).collect::<Vec<_>>());
    Ratio::new(col(2), col(3)).report(
        r,
        "search.batched_speedup",
        "x",
        &format!(
            "sequential / batched wall s of the fixed-seed surrogate search, median of 3, {} \
             kernel threads and K = {}",
            ctx.batch_k, ctx.batch_k
        ),
    );
    microbench(ctx, r, session)
}

/// `tensor.gemm_us.top1..5` and `tensor.gemm_gflops`: `gemm::matmul` timed
/// at the five bucket shapes with the most traced time.
fn gemm_metrics(r: &mut Report, traced: &[(String, f64, u64)], total_us: f64) -> Result<()> {
    let parse = |s: &str| -> Option<[usize; 3]> {
        let d: Vec<usize> = s.split('x').filter_map(|p| p.parse().ok()).collect();
        (d.len() == 3).then(|| [d[0], d[1], d[2]])
    };
    let mut picked: Vec<([usize; 3], String)> = traced
        .iter()
        .filter_map(|(name, sum, count)| {
            let share = if total_us > 0.0 { sum / total_us } else { 0.0 };
            parse(name).map(|d| {
                (
                    d,
                    format!("{:.1}% of traced GEMM time, {count} calls", share * 100.0),
                )
            })
        })
        .take(5)
        .collect();
    for d in FALLBACK_GEMM_SHAPES {
        if picked.len() == 5 {
            break;
        }
        if !picked.iter().any(|(p, _)| *p == d) {
            picked.push((d, "not traced here: a top B1 real-search shape".to_string()));
        }
    }
    let mut rng = Rng::new(7);
    for (i, ([m, k, n], why)) in picked.iter().enumerate() {
        let a = Tensor::randn(&[*m, *k], 1.0, &mut rng);
        let b = Tensor::randn(&[*k, *n], 1.0, &mut rng);
        let mut err = None;
        let us = median_us(50, || {
            if let Err(e) = gemm::matmul(&a, &b) {
                err = Some(e);
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        r.metric(
            &format!("tensor.gemm_us.top{}", i + 1),
            us,
            "us",
            format!("gemm::matmul {m}x{k}x{n}, median of 50; {why}"),
        );
        if i == 0 {
            let flops = 2.0 * (*m * *k * *n) as f64;
            r.metric(
                "tensor.gemm_gflops",
                flops / (us * 1e3),
                "GFLOP/s",
                format!("2*{m}*{k}*{n} computed FLOPs / median time at the top shape"),
            );
        }
    }
    Ok(())
}

/// Forward and backward of a layer, for timing.
trait Layer {
    fn fwd(&mut self, x: &Tensor) -> Result<Tensor>;
    fn bwd(&mut self, g: &Tensor) -> Result<Tensor>;
}

macro_rules! impl_layer {
    ($($t:ty),*) => {$(
        impl Layer for $t {
            fn fwd(&mut self, x: &Tensor) -> Result<Tensor> {
                self.forward(x, Mode::Train)
            }
            fn bwd(&mut self, g: &Tensor) -> Result<Tensor> {
                self.backward(g)
            }
        }
    )*};
}
impl_layer!(Block, Linear, LayerNorm, MultiHeadAttention);

/// Median forward and backward microseconds of a layer on `x`.
fn time_layer(layer: &mut dyn Layer, x: &Tensor, reps: usize) -> Result<(f64, f64, Tensor)> {
    let y = layer.fwd(x)?;
    let mut fwd = Vec::with_capacity(reps);
    let mut bwd = Vec::with_capacity(reps);
    let g = Tensor::ones(y.dims());
    for _ in 0..reps {
        let (out, t) = timed(|| layer.fwd(x));
        out?;
        fwd.push(t * 1e6);
        let (out, t) = timed(|| layer.bwd(&g));
        out?;
        bwd.push(t * 1e6);
    }
    Ok((median(&fwd), median(&bwd), y))
}

/// Each node's training-mode input, by replaying the tree in index order
/// (a parent is always added before its children).
fn node_inputs(tree: &TreeModel, x: &Tensor) -> Result<Vec<Tensor>> {
    let mut nodes = tree.nodes().to_vec();
    let mut acts: Vec<Tensor> = Vec::with_capacity(nodes.len());
    let mut inputs = Vec::with_capacity(nodes.len());
    for node in &mut nodes {
        let input = match node.parent {
            Some(p) => acts[p].clone(),
            None => x.clone(),
        };
        let y = node.block.forward(&input, Mode::Train)?;
        inputs.push(input);
        acts.push(y);
    }
    Ok(inputs)
}

/// Per layer kind: summed forward and backward microseconds over every
/// layer of that kind in the tree, and how many layers that was.
#[derive(Debug, Default, Clone)]
struct KindTimes {
    fwd_us: f64,
    bwd_us: f64,
    layers: usize,
}

const KINDS: [&str; 5] = ["conv", "linear", "attention", "layernorm", "embedding"];

fn kind_times(tree: &TreeModel, x: &Tensor) -> Result<BTreeMap<&'static str, KindTimes>> {
    const REPS: usize = 7;
    let inputs = node_inputs(tree, x)?;
    let mut out: BTreeMap<&'static str, KindTimes> = BTreeMap::new();
    let mut add = |kind: &'static str, (f, b, y): (f64, f64, Tensor)| {
        let k = out.entry(kind).or_default();
        k.fwd_us += f;
        k.bwd_us += b;
        k.layers += 1;
        y
    };
    for (node, input) in tree.nodes().iter().zip(&inputs) {
        let mut block = node.block.clone();
        match &mut block {
            Block::ConvRelu { .. } | Block::ConvBnRelu { .. } => {
                add("conv", time_layer(&mut block, input, REPS)?);
            }
            Block::Head { .. } => {
                add("linear", time_layer(&mut block, input, REPS)?);
            }
            Block::TokenEmbedB(_) | Block::PatchEmbedB(_) => {
                add("embedding", time_layer(&mut block, input, REPS)?);
            }
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                ..
            } => {
                // The block runs its norms and MLP on [N*T, D] rows and
                // its attention on [N, T, D].
                let (n, t, d) = (input.dims()[0], input.dims()[1], input.dims()[2]);
                let rows = input.reshape(&[n * t, d])?;
                add("layernorm", time_layer(ln1, &rows, REPS)?);
                add("attention", time_layer(attn, input, REPS)?);
                add("layernorm", time_layer(ln2, &rows, REPS)?);
                let hidden = add("linear", time_layer(fc1, &rows, REPS)?);
                add("linear", time_layer(fc2, &hidden, REPS)?);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// The per-layer microbenchmarks on the workload's primary benchmark.
fn microbench(ctx: &Ctx, r: &mut Report, session: &Session) -> Result<()> {
    let id = session.bench.id;
    let pick = surrogate_pick(session)?;
    let fused_graph = &pick.best.mini;

    // graph
    let mut fused = session.materialize(fused_graph, &session.weights)?;
    r.metric(
        "graph.generate_ms",
        median_us(5, || {
            let _ = session.materialize(fused_graph, &session.weights);
        }) / 1e3,
        "ms",
        format!("Session::materialize of the {id} fused graph, median of 5"),
    );
    let (compiled, _) = compile_for_inference(&fused)?;
    r.metric(
        "perf.compile_ms",
        median_us(5, || {
            let _ = compile_for_inference(&fused);
        }) / 1e3,
        "ms",
        "compile_for_inference of the fused tree, median of 5",
    );
    let x32 = first_rows(&session.split.train, 32)?;
    let x1 = first_rows(&session.split.test, 1)?;
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for _ in 0..5 {
        let (y, t) = timed(|| fused.forward(&x32, Mode::Train));
        let grads: Vec<Tensor> = y?.iter().map(|t| Tensor::ones(t.dims())).collect();
        fwd.push(t * 1e3);
        let (res, t) = timed(|| fused.backward(&grads));
        res?;
        bwd.push(t * 1e3);
    }
    let base = format!(
        "{id} fused tree ({} nodes), batch 32, median of 5",
        fused.len()
    );
    r.metric(
        "graph.tree_fwd_train_ms.b32",
        median(&fwd),
        "ms",
        base.clone(),
    );
    r.metric("graph.tree_bwd_ms.b32", median(&bwd), "ms", base);
    fused.clear_caches();

    let mut serve_tree = compiled.clone();
    let mut orig_tree =
        compile_for_inference(&session.materialize(&session.mini_graph, &session.weights)?)?.0;
    let mut fused_us = Vec::new();
    let mut orig_us = Vec::new();
    for _ in 0..200 {
        fused_us.push(timed(|| serve_tree.forward(&x1, Mode::Eval)).1 * 1e6);
        orig_us.push(timed(|| orig_tree.forward(&x1, Mode::Eval)).1 * 1e6);
    }
    let (fused_p50, orig_p50) = (median(&fused_us), median(&orig_us));
    r.metric(
        "graph.tree_fwd_eval_us.b1",
        fused_p50,
        "us",
        "compiled fused tree, Mode::Eval, batch 1, median of 200",
    );
    r.metric(
        "serve.speedup_measured",
        orig_p50 / fused_p50,
        "x",
        format!(
            "original {orig_p50:.2} us / fused {fused_p50:.2} us, batch-1 p50; reported, not gated"
        ),
    );
    r.metric(
        "perf.speedup_est",
        pick.speedup,
        "x",
        "estimate_latency_ms original / fused, paper scale; reported, not gated",
    );

    // Per-node replay of the compiled fused tree at batch 1.
    let nodes = compiled.nodes();
    let mut heads_below = vec![0usize; nodes.len()];
    for i in (0..nodes.len()).rev() {
        heads_below[i] += usize::from(nodes[i].head_task.is_some());
        if let Some(p) = nodes[i].parent {
            heads_below[p] += heads_below[i];
        }
    }
    let mut blocks: Vec<Block> = nodes.iter().map(|n| n.block.clone()).collect();
    let mut per_node: Vec<Vec<f64>> = vec![Vec::new(); nodes.len()];
    for _ in 0..50 {
        let mut acts: Vec<Tensor> = Vec::with_capacity(nodes.len());
        for (i, block) in blocks.iter_mut().enumerate() {
            let input = nodes[i].parent.map_or(&x1, |p| &acts[p]);
            let (y, t) = timed(|| block.forward(input, Mode::Eval));
            per_node[i].push(t * 1e6);
            acts.push(y?);
        }
    }
    let (mut shared_us, mut private_us, mut shared_n) = (0.0, 0.0, 0usize);
    for (i, samples) in per_node.iter().enumerate() {
        if heads_below[i] >= 2 {
            shared_us += median(samples);
            shared_n += 1;
        } else {
            private_us += median(samples);
        }
    }
    let replay = "per-node Block::forward replay, batch 1, sum of per-node medians of 50";
    r.metric(
        "graph.node_us.shared",
        shared_us,
        "us",
        format!("{shared_n} shared nodes; {replay}"),
    );
    r.metric(
        "graph.node_us.private",
        private_us,
        "us",
        format!("{} private nodes; {replay}", nodes.len() - shared_n),
    );
    r.metric(
        "graph.nodes_shared",
        compiled.shared_node_count() as f64,
        "count",
        format!("of {} nodes in the {id} fused tree", compiled.len()),
    );

    // nn: layer kinds, from the fused tree, or from another benchmark's
    // original model for kinds the workload's model lacks.
    let mut kinds = kind_times(&fused, &x32)?;
    let other = if id == BenchId::B7 {
        BenchId::B1
    } else {
        BenchId::B7
    };
    let (other_tree, other_data) = fresh_original_tree(other, ctx)?;
    let other_kinds = kind_times(&other_tree, &first_rows(&other_data, 32)?)?;
    for kind in KINDS {
        let (k, src) = match kinds.remove(kind) {
            Some(k) => (k, format!("{id} fused tree")),
            None => (
                other_kinds.get(kind).cloned().unwrap_or_default(),
                format!("{other} original model (absent from {id})"),
            ),
        };
        let base = format!(
            "sum over {} layers of the {src}, batch 32, medians of 7",
            k.layers
        );
        r.metric(&format!("nn.fwd_us.{kind}"), k.fwd_us, "us", base.clone());
        r.metric(&format!("nn.bwd_us.{kind}"), k.bwd_us, "us", base);
    }
    let mut opt = Optim::adam(1e-3);
    r.metric(
        "nn.optim_step_us",
        median_us(20, || {
            opt.begin_step();
            fused.visit_params(&mut |p| opt.update(p));
        }),
        "us",
        format!(
            "one Adam step over the {id} fused tree's {} parameters, median of 20",
            fused.capacity()
        ),
    );

    // tensor: convolution at B1 stage shapes (one branch of VGG-13).
    let (b1_tree, b1_data) = if id == BenchId::B1 {
        fresh_original_tree(BenchId::B1, ctx)?
    } else {
        (other_tree, other_data)
    };
    for (batch, dir) in [(32usize, "fwd"), (32, "bwd"), (1, "fwd")] {
        let x = first_rows(&b1_data, batch)?;
        let inputs = node_inputs(&b1_tree, &x)?;
        let mut total = 0.0;
        let mut layers = 0usize;
        for (node, input) in b1_tree.nodes().iter().zip(&inputs) {
            let Block::ConvRelu { conv, .. } = &node.block else {
                continue;
            };
            if node.key.0 != 0 {
                continue;
            }
            layers += 1;
            let (w, b, geom) = (&conv.weight.value, &conv.bias.value, conv.geom);
            let f = conv2d_forward(input, w, Some(b), geom)?;
            let g = Tensor::ones(f.output.dims());
            let mut err = None;
            total += median_us(9, || {
                let res = if dir == "fwd" {
                    conv2d_forward(input, w, Some(b), geom).map(drop)
                } else {
                    conv2d_backward_geom(&g, w, input.dims(), &f, geom).map(drop)
                };
                if let Err(e) = res {
                    err = Some(e);
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        r.metric(
            &format!("tensor.conv_{dir}_us.b{batch}"),
            total,
            "us",
            format!("sum over the {layers} conv layers of one B1 VGG-13 branch, medians of 9"),
        );
    }

    // perf
    r.metric(
        "perf.estimate_us",
        median_us(200, || {
            let _ = estimate_latency_ms(&pick.best.paper, Backend::Eager);
        }),
        "us",
        "estimate_latency_ms of the fused paper-scale graph, median of 200",
    );
    let ft = crate::search::real_config().to_search_config().finetune;
    let orig_cap = CapacityVector::of(&session.mini_graph)?;
    let params = SurrogateParams::default();
    r.metric(
        "perf.surrogate_finetune_us",
        median_us(200, || {
            let _ = surrogate_finetune(
                fused_graph,
                &orig_cap,
                1.0,
                &params,
                &ft,
                0,
                &session.teacher_scores,
            );
        }),
        "us",
        "surrogate_finetune of the fused graph, median of 200",
    );
    let (mode, eval_mode_s) = timed(|| session.eval_mode(AccuracyMode::Real));
    r.metric(
        "core.eval_mode_s",
        eval_mode_s,
        "s",
        format!("Session::eval_mode(Real) on {id}, once"),
    );
    let EvalMode::Real(rc) = mode? else {
        unreachable!("eval_mode(Real) builds a real context")
    };
    let mut candidate = session.materialize(fused_graph, &session.weights)?;
    let (res, finetune_s) = timed(|| {
        finetune(
            &mut candidate,
            &rc.train_inputs,
            &rc.targets,
            &rc.test,
            &rc.teacher_scores,
            &ft,
        )
    });
    res?;
    r.metric(
        "perf.finetune_s",
        finetune_s,
        "s",
        format!(
            "one accuracy::finetune of the {id} fused tree, {} epochs, once",
            ft.max_epochs
        ),
    );

    // search
    let mut rng = Rng::new(11);
    r.metric(
        "search.propose_us",
        median_us(200, || {
            let _ = propose_candidate(
                &session.mini_graph,
                &session.paper_graph,
                gmorph::graph::pairs::PairPolicy::SimilarShape,
                2,
                &mut rng,
            );
        }),
        "us",
        format!("propose_candidate on the {id} original graph, median of 200"),
    );
    // data, models, core
    let cfg = session_config(ctx, true);
    let mut loads = Vec::new();
    for _ in 0..3 {
        let (res, t) = timed(|| {
            session
                .bench
                .mini
                .iter()
                .enumerate()
                .try_for_each(|(i, spec)| {
                    load_or_train(spec, &session.split, i, &cfg.teacher, cfg.seed).map(drop)
                })
        });
        res?;
        loads.push(t);
    }
    r.metric(
        "models.teacher_load_s",
        median(&loads),
        "s",
        format!(
            "load_or_train cache hits for the {} {id} teachers, median of 3",
            session.bench.mini.len()
        ),
    );
    let bench = build_bench(id, ctx)?;
    let (res, t) = timed(|| Session::prepare(bench, &session_config(ctx, false)));
    res?;
    r.metric(
        "models.teacher_train_s",
        t,
        "s",
        format!("cold Session::prepare of {id} without the cache, once"),
    );
    Ok(())
}
