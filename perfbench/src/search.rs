//! The search workloads: real-mode (distillation) search on B1 and B7, and
//! the surrogate-mode Figure 7 / Table 5 grid.

use crate::layers::{self, UnitStats};
use crate::report::{median, Better, Report};
use crate::serve::{self, SIDE_BLOCK};
use crate::setup::{
    check_search, cpu_timed, report_rss, report_setup, search_config, surrogate_pick, Ctx,
    SetupSample, BUDGET, PICK_ITERATIONS, SETUP_REPS,
};
use crate::speed::{HostSpeed, Series};
use gmorph::graph::TreeModel;
use gmorph::perf::accuracy::{finetune, FinetuneConfig};
use gmorph::prelude::*;
use gmorph::search::batched::run_search_batched;
use gmorph::search::driver::{CandidateStatus, SearchConfig, SearchResult};
use gmorph::search::{EvalMode, RealContext};
use gmorph::tensor::Result;
use std::time::Instant;

/// Counts and times of one or more searches.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTotals {
    pub proposed: usize,
    pub duplicates: usize,
    pub evaluated: usize,
    pub rule_filtered: usize,
    pub early_terminated: usize,
    pub failed: usize,
    pub quarantined: usize,
    pub epochs: usize,
    /// Process CPU seconds of the searches, timed around the calls.
    pub cpu_s: f64,
    /// Wall seconds of the same calls.
    pub wall_s: f64,
}

impl SearchTotals {
    /// Adds one search and records its candidates as operations: a failed
    /// or quarantined candidate is a failed operation.
    pub fn add(&mut self, r: &mut Report, res: &SearchResult, cpu_s: f64, wall_s: f64) {
        for t in &res.trace {
            r.op(!matches!(
                t.status,
                CandidateStatus::Failed | CandidateStatus::Quarantined
            ));
        }
        self.proposed += res.trace.len();
        self.duplicates += res.duplicates;
        self.evaluated += res.evaluated;
        self.rule_filtered += res.rule_filtered;
        self.early_terminated += res.early_terminated;
        self.failed += res.failed;
        self.quarantined += res.quarantined;
        self.epochs += res.trace.iter().map(|t| t.epochs).sum::<usize>();
        self.cpu_s += cpu_s;
        self.wall_s += wall_s;
    }
}

/// Checks that a repeat of a search with the same seed found the same best
/// graph as the first.
fn check_repeat(r: &mut Report, what: &str, first: &mut Option<String>, sig: String) {
    match first {
        None => *first = Some(sig),
        Some(f) => r.check(*f == sig, || {
            format!("{what}: repeat found another best graph")
        }),
    }
}

/// Search seed of the real-mode searches.
///
/// A search's first candidate is drawn from the original graph with the
/// search seed alone, so it is the same graph whatever the data. Later
/// candidates depend on which earlier ones the data let through, and one
/// may be a duplicate that costs nothing; so the work of a longer search,
/// and its time per iteration, would change with the workload seed. The
/// real-mode workloads therefore repeat a one-iteration search with this
/// seed, and every repeat does the same work.
const REAL_SEARCH_SEED: u64 = 0;

/// The real-mode search settings: default config (10 epochs, no P/R), 2%
/// budget, one iteration, validated only after the last epoch. With the
/// default cadence of 2 epochs a candidate stops at the first validation
/// that meets the budget, so its epoch count (2 to 10) would follow the
/// data rather than the code.
pub fn real_config() -> OptimizationConfig {
    let cfg = search_config(AccuracyMode::Real, 1);
    OptimizationConfig {
        eval_every: cfg.max_epochs,
        seed: REAL_SEARCH_SEED,
        ..cfg
    }
}

/// Side-measurement rounds between two real-mode searches.
const SIDE_ROUNDS_PER_SEARCH: usize = 4;

/// `search-real-conv` (B1) and `search-real-attn` (B7): repeats of a
/// one-iteration `Session::optimize` in real mode; each repeat must find
/// the same best graph as the first.
pub fn real(ctx: &Ctx, id: BenchId) -> Result<Report> {
    let mut r = Report::default();
    let mut speed = HostSpeed::new();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let mut s = SetupSample::at(&speed);
        let sess = s.prepare(id, ctx)?;
        let (mode, cpu, _) = cpu_timed(|| sess.eval_mode(AccuracyMode::Real));
        mode?;
        s.eval_mode_s = cpu;
        samples.push(s);
        session = Some(sess);
        speed.tick();
    }
    let session = session.expect("at least one set-up ran");
    report_setup(
        &mut r,
        ctx,
        &speed,
        &samples,
        "zoo::build + warm Session::prepare + Session::eval_mode(Real)",
    );
    let train_n = session.split.train.len();
    let cfg = real_config();
    let mut first_sig = None;
    let mut unit = |r: &mut Report| -> Result<UnitStats> {
        let mut totals = SearchTotals::default();
        let (res, cpu, wall) = cpu_timed(|| session.optimize(&cfg));
        let res = res?;
        totals.add(r, &res, cpu, wall);
        let what = format!("{id} real search, search seed {}", cfg.seed);
        check_search(r, &what, BUDGET, res.best.drop, res.speedup);
        check_repeat(r, &what, &mut first_sig, res.best.mini.signature());
        Ok(UnitStats::search(totals, res.speedup, res.best.drop))
    };
    if ctx.trace {
        layers::traced_run(ctx, &mut r, &mut unit, &session)?;
        return Ok(r);
    }
    // The serving and batched-search side measurements run in rounds
    // between the searches, so that their samples spread over the run.
    let mut server = serve::fused_server(&mut r, &session)?;
    let mut side = Side::new(&session, ctx, SideWork::Searches)?;
    // Per search: CPU s per iteration, train samples per CPU s; wall s per
    // iteration for the base.
    let (mut per_iter, mut rate, mut wall) = (Series::long(), Series::long(), Vec::new());
    let t0 = Instant::now();
    while side.rounds == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        speed.tick();
        let u = unit(&mut r)?.search;
        let iters = u.proposed.max(1) as f64;
        per_iter.push(&speed, u.cpu_s / iters);
        rate.push(&speed, (u.epochs * train_n) as f64 / u.cpu_s);
        wall.push(u.wall_s / iters);
        for _ in 0..SIDE_ROUNDS_PER_SEARCH {
            speed.tick();
            server.block(&mut r, &mut speed, SIDE_BLOCK);
            side.round(&mut r, &speed)?;
        }
    }
    speed.tick();
    server.report(&mut r, &speed);
    side.report(&mut r, &speed, false);
    report_rss(&mut r);
    per_iter.report(
        &mut r,
        &speed,
        "search_s_per_iter",
        "s",
        Better::Lower,
        &format!(
            "process CPU s per iteration of a one-iteration {id} search, search seed {} (wall \
             median {:.4} s)",
            cfg.seed,
            median(&wall)
        ),
    );
    rate.report(
        &mut r,
        &speed,
        "train_samples_per_s",
        "samples/s",
        Better::Higher,
        &format!("epochs x {train_n} train samples / process CPU s of a search"),
    );
    Ok(r)
}

/// The paper's per-benchmark fine-tuning parameters (§6.1): maximum
/// epochs, batch size and validation cadence, as the Figure 7 grid uses them.
fn paper_finetune(id: BenchId) -> (usize, usize, usize) {
    match id {
        BenchId::B1 | BenchId::B4 | BenchId::B5 => (35, 64, 5),
        BenchId::B2 | BenchId::B3 => (40, 128, 5),
        BenchId::B6 | BenchId::B7 => (16, 32, 2),
    }
}

/// One cell of the Figure 7 grid: a session index and its configuration.
struct Cell {
    session: usize,
    cfg: OptimizationConfig,
    what: String,
}

/// The Figure 7 / Table 5 grid: B1-B7 x budgets 0/1/2% x GMorph, w P,
/// w P+R, at 200 iterations.
fn grid(sessions: &[Session]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let (max_epochs, batch, eval_every) = paper_finetune(s.bench.id);
        for threshold in [0.0f32, 0.01, 0.02] {
            let base = OptimizationConfig {
                accuracy_threshold: threshold,
                max_epochs,
                batch,
                eval_every,
                ..search_config(AccuracyMode::Surrogate, 200)
            };
            for (variant, cfg) in [
                ("GMorph", base.clone()),
                ("GMorph w P", base.clone().with_p()),
                ("GMorph w P+R", base.with_p_r()),
            ] {
                cells.push(Cell {
                    session: i,
                    cfg,
                    what: format!("{} <{}% {variant}", s.bench.id, threshold * 100.0),
                });
            }
        }
    }
    cells
}

/// `search-surrogate`: the grid, each cell through the sequential driver
/// (`Session::optimize`) and then through `run_search_batched` with K =
/// nproc, in whole passes.
pub fn surrogate(ctx: &Ctx) -> Result<Report> {
    let mut r = Report::default();
    let mut speed = HostSpeed::new();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut sessions = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut s = SetupSample::at(&speed);
        sessions = BenchId::all()
            .into_iter()
            .map(|id| s.prepare(id, ctx))
            .collect::<Result<Vec<_>>>()?;
        samples.push(s);
        speed.tick();
    }
    report_setup(
        &mut r,
        ctx,
        &speed,
        &samples,
        "zoo::build + warm Session::prepare for B1-B7",
    );
    let cells = grid(&sessions);
    let mut first_seq: Vec<Option<String>> = vec![None; cells.len()];
    let mut first_batched: Vec<Option<String>> = vec![None; cells.len()];
    let mut unit = |r: &mut Report| -> Result<UnitStats> {
        let mut totals = SearchTotals::default();
        let mut speedups = Vec::with_capacity(cells.len());
        let mut worst_drop = 0.0f32;
        for (c, cell) in cells.iter().enumerate() {
            let (res, cpu, wall) = cpu_timed(|| sessions[cell.session].optimize(&cell.cfg));
            let res = res?;
            totals.add(r, &res, cpu, wall);
            check_search(
                r,
                &cell.what,
                cell.cfg.accuracy_threshold,
                res.best.drop,
                res.speedup,
            );
            check_repeat(r, &cell.what, &mut first_seq[c], res.best.mini.signature());
            speedups.push(res.speedup);
            worst_drop = worst_drop.max(res.best.drop);
        }
        Ok(UnitStats::search(totals, median(&speedups), worst_drop))
    };
    if ctx.trace {
        layers::traced_run(ctx, &mut r, &mut unit, &sessions[0])?;
        return Ok(r);
    }
    // Whole passes over the grid, with a round of the serving and training
    // side measurements after every chunk of cells.
    let mut server = serve::fused_server(&mut r, &sessions[0])?;
    let mut side = Side::new(&sessions[0], ctx, SideWork::Training)?;
    let k = ctx.batch_k;
    let n = cells.len();
    // Per cell and pass: sequential and batched CPU s. The iterations and
    // candidates of a pass are the same on every pass (fixed seeds).
    let (mut seq, mut bat) = (Series::default(), Series::default());
    let (mut iters, mut candidates) = (0usize, 0usize);
    let (mut seq_wall, mut bat_wall) = (0.0, 0.0);
    let mut passes = 0usize;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        (iters, candidates) = (0, 0);
        speed.tick();
        for (c, cell) in cells.iter().enumerate() {
            let s = &sessions[cell.session];
            let (res, cpu, wall) = cpu_timed(|| s.optimize(&cell.cfg));
            let res = res?;
            SearchTotals::default().add(&mut r, &res, cpu, wall);
            check_search(
                &mut r,
                &cell.what,
                cell.cfg.accuracy_threshold,
                res.best.drop,
                res.speedup,
            );
            check_repeat(
                &mut r,
                &cell.what,
                &mut first_seq[c],
                res.best.mini.signature(),
            );
            seq.push(&speed, cpu);
            seq_wall += wall;
            iters += res.trace.len();

            let mode = s.eval_mode(AccuracyMode::Surrogate)?;
            let mut scfg = cell.cfg.to_search_config();
            scfg.virtual_throughput = s.virtual_throughput;
            let (res, cpu, wall) = cpu_timed(|| {
                run_search_batched(&s.mini_graph, &s.paper_graph, &s.weights, &mode, &scfg, k)
            });
            let res = res?;
            let what = format!("{} batched K={k}", cell.what);
            r.check(res.speedup >= 1.0, || {
                format!("{what}: speedup {}", res.speedup)
            });
            check_repeat(
                &mut r,
                &what,
                &mut first_batched[c],
                res.best_mini.signature(),
            );
            let m: usize = res.rounds.iter().map(|b| b.evaluated + b.skipped).sum();
            for _ in 0..m {
                r.op(true);
            }
            candidates += m;
            bat.push(&speed, cpu);
            bat_wall += wall;
            if (c + 1) % SURROGATE_CHUNK == 0 {
                speed.tick();
                server.block(&mut r, &mut speed, SIDE_BLOCK);
                side.round(&mut r, &speed)?;
                speed.tick();
            }
        }
        passes += 1;
    }
    speed.tick();
    server.report(&mut r, &speed);
    side.report(&mut r, &speed, false);
    // A pass's calibrated CPU s, summed over its cells, / its count; the
    // median over passes.
    let per_pass = |series: &Series, count: usize| {
        let cells = series.calibrated(&speed, Better::Lower);
        let sums: Vec<f64> = cells.chunks(n).map(|p| p.iter().sum::<f64>()).collect();
        median(&sums) / count.max(1) as f64
    };
    let base = |what: &str, count: usize, wall: f64| {
        format!(
            "process CPU s of a pass over {n} grid cells x 200 iterations, {what}, / {count}; \
             host-speed calibrated cell by cell, median of {passes} passes (raw wall mean \
             {:.3e} s)",
            wall / (passes * count.max(1)) as f64
        )
    };
    r.metric(
        "search_s_per_iter",
        per_pass(&seq, iters),
        "s",
        base("Session::optimize", iters, seq_wall),
    );
    r.metric(
        "batched_search_s_per_iter",
        per_pass(&bat, candidates),
        "s",
        base(&format!("run_search_batched K={k}"), candidates, bat_wall),
    );
    report_rss(&mut r);
    Ok(r)
}

/// Grid cells between two side-measurement rounds in `search-surrogate`.
const SURROGATE_CHUNK: usize = 7;

/// What a workload's side measurements cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SideWork {
    /// The fixed-seed surrogate search, sequential and batched.
    Searches,
    /// The one-epoch fine-tune.
    Training,
    Both,
}

/// Side measurements, for workloads whose main activity is not a sequential
/// or batched search, or trains nothing. They run in rounds between the
/// main activity's steps, so that their samples spread over the whole run.
/// A round is one fixed-seed surrogate search on the session's benchmark
/// (2% budget, 200 iterations) through the sequential driver and then
/// through `run_search_batched` with K = nproc, and/or one one-epoch
/// `accuracy::finetune` of the session's fused model (the fixed-seed
/// surrogate pick) against the teachers' targets.
pub struct Side<'a> {
    pick: Option<PickSearch<'a>>,
    trainer: Option<Trainer>,
    id: BenchId,
    /// Rounds run so far.
    pub rounds: usize,
    /// Per round: sequential CPU s per iteration, batched CPU s per
    /// candidate, train samples per CPU s.
    seq: Series,
    batched: Series,
    rates: Series,
}

/// The one-epoch fine-tune of the side measurement.
struct Trainer {
    model: TreeModel,
    rc: RealContext,
    cfg: FinetuneConfig,
}

impl<'a> Side<'a> {
    pub fn new(session: &'a Session, ctx: &Ctx, work: SideWork) -> Result<Side<'a>> {
        let pick = if work == SideWork::Training {
            None
        } else {
            Some(PickSearch::new(session, ctx.batch_k)?)
        };
        let trainer = if work == SideWork::Searches {
            None
        } else {
            let best = surrogate_pick(session)?.best.mini;
            let EvalMode::Real(rc) = session.eval_mode(AccuracyMode::Real)? else {
                unreachable!("eval_mode(Real) builds a real context")
            };
            let cfg = OptimizationConfig {
                max_epochs: 1,
                eval_every: 1,
                ..real_config()
            }
            .to_search_config()
            .finetune;
            let model = session.materialize(&best, &session.weights)?;
            Some(Trainer { model, rc, cfg })
        };
        Ok(Side {
            pick,
            trainer,
            id: session.bench.id,
            rounds: 0,
            seq: Series::default(),
            batched: Series::default(),
            rates: Series::default(),
        })
    }

    /// One round of the side measurements.
    pub fn round(&mut self, r: &mut Report, speed: &HostSpeed) -> Result<()> {
        if let Some(pick) = &self.pick {
            let [seq, batched, _, _] = pick.run(r)?;
            self.seq.push(speed, seq);
            self.batched.push(speed, batched);
        }
        if let Some(t) = &mut self.trainer {
            let rc = &t.rc;
            let (res, cpu, _) = cpu_timed(|| {
                finetune(
                    &mut t.model,
                    &rc.train_inputs,
                    &rc.targets,
                    &rc.test,
                    &rc.teacher_scores,
                    &t.cfg,
                )
            });
            r.op(res.is_ok());
            res?;
            self.rates
                .push(speed, rc.train_inputs.dims()[0] as f64 / cpu);
        }
        self.rounds += 1;
        Ok(())
    }

    /// Reports the metrics of the side work: `search_s_per_iter` (when
    /// `sequential`) and `batched_search_s_per_iter` for the searches,
    /// `train_samples_per_s` for the training.
    pub fn report(&self, r: &mut Report, speed: &HostSpeed, sequential: bool) {
        let id = self.id;
        if let Some(pick) = &self.pick {
            let what = format!(
                "side measurement: process CPU s, one fixed-seed surrogate search on {id} \
                 ({PICK_ITERATIONS} iterations) per round"
            );
            if sequential {
                self.seq.report(
                    r,
                    speed,
                    "search_s_per_iter",
                    "s",
                    Better::Lower,
                    &format!("{what}, Session::optimize, / iterations"),
                );
            }
            self.batched.report(
                r,
                speed,
                "batched_search_s_per_iter",
                "s",
                Better::Lower,
                &format!("{what}, run_search_batched K={}, / candidates", pick.k),
            );
        }
        if let Some(t) = &self.trainer {
            self.rates.report(
                r,
                speed,
                "train_samples_per_s",
                "samples/s",
                Better::Higher,
                &format!(
                    "side measurement: {} train samples / process CPU s of a one-epoch \
                     accuracy::finetune of the {id} fused model, one per round",
                    t.rc.train_inputs.dims()[0]
                ),
            );
        }
    }
}

/// The fixed-seed surrogate search on a session's benchmark (2% budget,
/// 200 iterations), set up to run through the sequential driver and through
/// `run_search_batched` with K = `k`.
pub struct PickSearch<'a> {
    session: &'a Session,
    cfg: OptimizationConfig,
    mode: EvalMode,
    scfg: SearchConfig,
    k: usize,
}

impl<'a> PickSearch<'a> {
    pub fn new(session: &'a Session, k: usize) -> Result<PickSearch<'a>> {
        let cfg = search_config(AccuracyMode::Surrogate, PICK_ITERATIONS);
        let mode = session.eval_mode(AccuracyMode::Surrogate)?;
        let mut scfg = cfg.to_search_config();
        scfg.virtual_throughput = session.virtual_throughput;
        Ok(PickSearch {
            session,
            cfg,
            mode,
            scfg,
            k,
        })
    }

    /// Runs the search sequentially and batched. Returns sequential CPU s
    /// per iteration, batched CPU s per candidate, and the two wall
    /// seconds. Records the candidates and checks.
    pub fn run(&self, r: &mut Report) -> Result<[f64; 4]> {
        let (session, id) = (self.session, self.session.bench.id);
        let (res, seq_cpu, seq_wall) = cpu_timed(|| session.optimize(&self.cfg));
        let res = res?;
        SearchTotals::default().add(r, &res, seq_cpu, seq_wall);
        check_search(
            r,
            &format!("{id} surrogate search"),
            BUDGET,
            res.best.drop,
            res.speedup,
        );
        let iters = res.trace.len().max(1) as f64;
        let (res, bat_cpu, bat_wall) = cpu_timed(|| {
            run_search_batched(
                &session.mini_graph,
                &session.paper_graph,
                &session.weights,
                &self.mode,
                &self.scfg,
                self.k,
            )
        });
        let res = res?;
        let n: usize = res.rounds.iter().map(|b| b.evaluated + b.skipped).sum();
        for _ in 0..n {
            r.op(true);
        }
        r.check(res.speedup >= 1.0, || {
            format!("{id} batched surrogate search: speedup {}", res.speedup)
        });
        Ok([
            seq_cpu / iters,
            bat_cpu / n.max(1) as f64,
            seq_wall,
            bat_wall,
        ])
    }
}
