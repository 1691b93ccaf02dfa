//! The `serve` workload: one closed-loop client, no think time, sends the
//! B1 test split to the compiled B1 fused model in blocks: one sample per
//! request, then 32.

use crate::layers::{self, UnitStats};
use crate::report::{median, tail_percentile, Better, Report, TAIL_MIN_BEYOND};
use crate::search::{self, SearchTotals};
use crate::setup::{
    check_search, cpu_timed, prepare, report_rss, report_setup, same_bits, surrogate_pick, Ctx,
    SetupSample, BUDGET, SETUP_REPS,
};
use crate::speed::{HostSpeed, Series};
use gmorph::graph::TreeModel;
use gmorph::nn::Mode;
use gmorph::perf::compile::compile_for_inference;
use gmorph::prelude::*;
use gmorph::tensor::{Result, Tensor};
use std::time::{Duration, Instant};

/// Samples per request in the throughput phase.
const BATCH: usize = 32;

/// Lengths of the batch-1 part and the batch-32 part of one serving block.
pub type Block = (Duration, Duration);

/// Blocks of the `serve` workload.
const BLOCK: Block = (Duration::from_millis(300), Duration::from_millis(300));

/// Blocks of the serving side measurement of the search workloads.
pub const SIDE_BLOCK: Block = (Duration::from_millis(150), Duration::from_millis(100));

/// Requests with the reference outputs computed for them in set-up.
struct Requests {
    inputs: Vec<Tensor>,
    refs: Vec<Vec<Tensor>>,
}

impl Requests {
    fn new(model: &mut TreeModel, test: &Tensor, batch: usize) -> Result<Requests> {
        let n = test.dims()[0] / batch;
        let inputs = (0..n)
            .map(|j| test.select_rows(&(j * batch..(j + 1) * batch).collect::<Vec<_>>()))
            .collect::<Result<Vec<_>>>()?;
        let refs = inputs
            .iter()
            .map(|x| model.forward(x, Mode::Eval))
            .collect::<Result<Vec<_>>>()?;
        Ok(Requests { inputs, refs })
    }

    /// Serves request `i` (cycling over the inputs) and checks that every
    /// per-task logit is bitwise equal to the reference. Returns the
    /// request's process CPU seconds and wall seconds.
    fn serve(&self, model: &mut TreeModel, r: &mut Report, i: usize) -> (f64, f64) {
        let j = i % self.inputs.len();
        let (out, cpu, wall) = cpu_timed(|| model.forward(&self.inputs[j], Mode::Eval));
        let ok = out.as_ref().is_ok_and(|o| same_bits(o, &self.refs[j]));
        r.checked_op(ok, || match out {
            Ok(_) => format!("request {i}: logits differ from the reference"),
            Err(e) => format!("request {i}: {e}"),
        });
        (cpu, wall)
    }
}

/// The compiled model under test with its batch-1 and batch-32 requests.
pub struct Server {
    model: TreeModel,
    b1: Requests,
    b32: Requests,
    /// Requests served so far at batch 1 and batch 32 (the next input).
    served: (usize, usize),
    /// One sample per block: batch-1 CPU ms at p50 and at the tail,
    /// batch-32 samples per CPU second; wall figures for the bases.
    p50_ms: Series,
    tail_ms: Series,
    qps: Series,
    wall_p50_ms: Vec<f64>,
    wall_qps: Vec<f64>,
    /// The lowest tail percentile a block used, and one block's tail base.
    tail_pct: Option<(f64, String)>,
    /// What is served, for the base strings.
    what: String,
}

impl Server {
    /// Builds the requests over a test split and their reference outputs.
    pub fn new(mut model: TreeModel, test: &Tensor, what: String) -> Result<Server> {
        let b1 = Requests::new(&mut model, test, 1)?;
        let b32 = Requests::new(&mut model, test, BATCH)?;
        Ok(Server {
            model,
            b1,
            b32,
            served: (0, 0),
            p50_ms: Series::default(),
            tail_ms: Series::default(),
            qps: Series::default(),
            wall_p50_ms: Vec::new(),
            wall_qps: Vec::new(),
            tail_pct: None,
            what,
        })
    }

    /// A fixed number of passes over the requests (the traced unit).
    fn passes(&mut self, r: &mut Report, b1: usize, b32: usize) -> usize {
        for i in 0..b1 * self.b1.inputs.len() {
            self.b1.serve(&mut self.model, r, i);
        }
        for i in 0..b32 * self.b32.inputs.len() {
            self.b32.serve(&mut self.model, r, i);
        }
        b1 * self.b1.inputs.len() + b32 * self.b32.inputs.len()
    }

    /// One block: batch-1 requests for `block.0`, a tick, then batch-32
    /// requests for `block.1`, each request timed and checked. The tick
    /// closes the batch-1 part's interval, so that its samples are
    /// calibrated by the reference right around them.
    pub fn block(&mut self, r: &mut Report, speed: &mut HostSpeed, block: Block) {
        let (mut cpu_ms, mut wall_ms) = (Vec::new(), Vec::new());
        let w0 = Instant::now();
        while cpu_ms.is_empty() || w0.elapsed() < block.0 {
            let (cpu, wall) = self.b1.serve(&mut self.model, r, self.served.0);
            self.served.0 += 1;
            cpu_ms.push(cpu * 1e3);
            wall_ms.push(wall * 1e3);
        }
        self.p50_ms.push(speed, median(&cpu_ms));
        self.wall_p50_ms.push(median(&wall_ms));
        if let Some(tail) = tail_percentile(&cpu_ms, 99.0) {
            self.tail_ms.push(speed, tail.value);
            if self.tail_pct.as_ref().is_none_or(|(p, _)| tail.pct < *p) {
                self.tail_pct = Some((tail.pct, tail.base()));
            }
        }
        speed.tick();
        let (mut cpu, mut wall, mut samples) = (0.0, 0.0, 0usize);
        let w0 = Instant::now();
        while samples == 0 || w0.elapsed() < block.1 {
            let (c, w) = self.b32.serve(&mut self.model, r, self.served.1);
            self.served.1 += 1;
            (cpu, wall) = (cpu + c, wall + w);
            samples += BATCH;
        }
        self.qps.push(speed, samples as f64 / cpu);
        self.wall_qps.push(samples as f64 / wall);
    }

    /// Reports `serve_b1_p50_ms`, `serve_b1_p99_ms` and `serve_b32_qps`
    /// from the blocks served so far, each block one sample.
    pub fn report(&self, r: &mut Report, speed: &HostSpeed) {
        let what = &self.what;
        self.p50_ms.report(
            r,
            speed,
            "serve_b1_p50_ms",
            "ms",
            Better::Lower,
            &format!(
                "{what}: process CPU ms per batch-1 request, the p50 of each block ({} requests \
                 in all; wall p50 median {:.4} ms)",
                self.served.0,
                median(&self.wall_p50_ms)
            ),
        );
        match &self.tail_pct {
            Some((lowest, example)) => self.tail_ms.report(
                r,
                speed,
                "serve_b1_p99_ms",
                "ms",
                Better::Lower,
                &format!(
                    "{what}: process CPU ms at the tail of each block: p99, or the highest \
                     percentile with {TAIL_MIN_BEYOND} samples beyond it (lowest used p{lowest}; \
                     the block that used it: {example})"
                ),
            ),
            None => r.check(false, || {
                format!("{what}: no block had enough batch-1 requests for a tail percentile")
            }),
        }
        self.qps.report(
            r,
            speed,
            "serve_b32_qps",
            "samples/s",
            Better::Higher,
            &format!(
                "{what}: samples per process CPU s at batch {BATCH}, one rate per block ({} \
                 requests in all; wall median {:.1} samples/s)",
                self.served.1,
                median(&self.wall_qps)
            ),
        );
    }
}

/// The compiled fused model of a fixed-seed surrogate search on a session's
/// benchmark, with the search checked.
pub fn fused_server(r: &mut Report, session: &Session) -> Result<Server> {
    let id = session.bench.id;
    let pick = surrogate_pick(session)?;
    check_search(
        r,
        &format!("{id} surrogate pick"),
        BUDGET,
        pick.best.drop,
        pick.speedup,
    );
    let (model, _) =
        compile_for_inference(&session.materialize(&pick.best.mini, &session.weights)?)?;
    Server::new(
        model,
        &session.split.test.inputs,
        format!("{id} fused model"),
    )
}

/// `serve`: the closed-loop client for the whole window, then the side
/// measurements every workload reports.
pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut r = Report::default();
    let session = prepare(BenchId::B1, ctx)?;
    let pick = surrogate_pick(&session)?;
    check_search(
        &mut r,
        "B1 surrogate pick",
        BUDGET,
        pick.best.drop,
        pick.speedup,
    );
    let mut speed = HostSpeed::new();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let mut s = SetupSample::at(&speed);
        let sess = s.prepare(BenchId::B1, ctx)?;
        let (compiled, cpu, _) =
            cpu_timed(|| compile_for_inference(&sess.materialize(&pick.best.mini, &sess.weights)?));
        s.compile_s = cpu;
        model = Some(compiled?.0);
        samples.push(s);
        speed.tick();
    }
    let model = model.expect("at least one set-up ran");
    report_setup(
        &mut r,
        ctx,
        &speed,
        &samples,
        "zoo::build + warm Session::prepare + materialize + compile_for_inference",
    );
    let mut server = Server::new(
        model,
        &session.split.test.inputs,
        "B1 fused model".to_string(),
    )?;

    if ctx.trace {
        let mut unit = |r: &mut Report| -> Result<UnitStats> {
            let (res, cpu, wall) = cpu_timed(|| surrogate_pick(&session));
            let res = res?;
            let mut search = SearchTotals::default();
            search.add(r, &res, cpu, wall);
            Ok(UnitStats {
                ops: server.passes(r, 2, 4),
                search,
                best_speedup: res.speedup,
                best_drop: res.best.drop,
            })
        };
        layers::traced_run(ctx, &mut r, &mut unit, &session)?;
        return Ok(r);
    }
    // Serving blocks alternate with rounds of the side measurements for the
    // whole window, so that a slow spell of the machine touches all alike.
    let mut side = search::Side::new(&session, ctx, search::SideWork::Both)?;
    let t0 = Instant::now();
    while side.rounds == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        server.block(&mut r, &mut speed, BLOCK);
        side.round(&mut r, &speed)?;
        speed.tick();
    }
    server.report(&mut r, &speed);
    side.report(&mut r, &speed, true);
    report_rss(&mut r);
    Ok(r)
}
