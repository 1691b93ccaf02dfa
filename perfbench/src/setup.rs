//! What every workload shares: run settings, set-up timing, sessions,
//! the fixed-seed surrogate search that picks a fused model, and the
//! telemetry sink of the traced run.

use crate::report::{median, Better, Report};
use crate::speed::{HostSpeed, Series};
use gmorph::data::MultiTaskDataset;
use gmorph::graph::parser::parse_specs;
use gmorph::graph::{generator, TreeModel, WeightStore};
use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::telemetry::event::{Event, EventKind};
use gmorph::telemetry::sink::Sink;
use gmorph::tensor::Result;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Search seed of the surrogate searches (the real-mode workloads cycle over
/// a few fixed search seeds instead). The workload seed varies the data;
/// the search seed stays fixed so that which candidates a run evaluates does
/// not depend on the workload seed.
pub const SEARCH_SEED: u64 = 0;

/// Accuracy-drop budget of the searches (2%).
pub const BUDGET: f32 = 0.02;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Kernel worker threads of every timed section but one (the traced run's
/// `search.batched_speedup` uses nproc).
///
/// On a shared 2-vCPU machine a second kernel thread makes every parallel
/// section wait for whichever vCPU the host serves last, and the wake-ups
/// are charged as CPU time: batched surrogate searches cost 18% more CPU
/// per candidate with 2 threads than with 1, and that share moves with the
/// neighbours' load. One thread measures the program's own work.
pub const KERNEL_THREADS: usize = 1;

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: the datasets (and so the teachers and the served
    /// inputs) are generated from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Kernel worker threads, set explicitly ([`KERNEL_THREADS`]).
    pub threads: usize,
    /// Candidates per round of `run_search_batched`: nproc.
    pub batch_k: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median microseconds of `reps` calls of `f`, after two unmeasured calls.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1 * 1e6).collect();
    median(&samples)
}

/// Session settings: default teacher training, seeded by the workload seed,
/// with the benchmark's explicit thread count.
pub fn session_config(ctx: &Ctx, use_cache: bool) -> SessionConfig {
    let defaults = SessionConfig::default();
    SessionConfig {
        teacher: TrainConfig {
            seed: ctx.seed,
            ..defaults.teacher
        },
        seed: ctx.seed,
        use_cache,
        threads: Some(ctx.threads),
        quiet: true,
        ..defaults
    }
}

/// Generates a benchmark's dataset from the workload seed.
pub fn build_bench(id: BenchId, ctx: &Ctx) -> Result<gmorph::models::zoo::BenchmarkDef> {
    gmorph::zoo::build(id, &DataProfile::standard(), ctx.seed)
}

/// Prepares a session through the teacher cache (training on a miss).
pub fn prepare(id: BenchId, ctx: &Ctx) -> Result<Session> {
    Session::prepare(build_bench(id, ctx)?, &session_config(ctx, true))
}

/// Component times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// The host-speed interval it ran in.
    pub interval: usize,
    pub build_s: f64,
    pub prepare_s: f64,
    pub eval_mode_s: f64,
    pub compile_s: f64,
}

impl SetupSample {
    /// A set-up starting now.
    pub fn at(speed: &HostSpeed) -> SetupSample {
        SetupSample {
            interval: speed.interval(),
            ..SetupSample::default()
        }
    }

    pub fn total(&self) -> f64 {
        self.build_s + self.prepare_s + self.eval_mode_s + self.compile_s
    }

    /// Builds the dataset and prepares a warm session, timing both in
    /// process CPU seconds.
    pub fn prepare(&mut self, id: BenchId, ctx: &Ctx) -> Result<Session> {
        let (bench, build_s, _) = cpu_timed(|| build_bench(id, ctx));
        let (session, prepare_s, _) =
            cpu_timed(|| Session::prepare(bench?, &session_config(ctx, true)));
        self.build_s += build_s;
        self.prepare_s += prepare_s;
        session
    }
}

/// Reports `setup_s` (untraced, calibrated to host speed) or its raw
/// components (traced).
pub fn report_setup(
    r: &mut Report,
    ctx: &Ctx,
    speed: &HostSpeed,
    samples: &[SetupSample],
    what: &str,
) {
    let n = samples.len();
    let pick = |f: fn(&SetupSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    if !ctx.trace {
        let totals = Series::from(
            samples
                .iter()
                .map(|s| (s.interval, s.total()))
                .collect::<Vec<_>>(),
        );
        totals.report(
            r,
            speed,
            "setup_s",
            "s",
            Better::Lower,
            &format!("process CPU s of a set-up ({what}), {n} set-ups"),
        );
        return;
    }
    let base = format!("process CPU s, median of {n} set-ups");
    r.metric(
        "data.build_s",
        pick(|s| s.build_s),
        "s",
        format!("{base}, zoo::build"),
    );
    r.metric(
        "core.prepare_s",
        pick(|s| s.prepare_s),
        "s",
        format!("{base}, warm Session::prepare"),
    );
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Reports `peak_rss_mb`.
pub fn report_rss(r: &mut Report) {
    r.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MiB",
        "VmHWM of the benchmark process",
    );
}

/// The optimization settings of the fixed-seed searches: default config,
/// 2% budget.
pub fn search_config(mode: AccuracyMode, iterations: usize) -> OptimizationConfig {
    OptimizationConfig {
        accuracy_threshold: BUDGET,
        iterations,
        mode,
        seed: SEARCH_SEED,
        ..OptimizationConfig::default()
    }
}

/// Iterations of the surrogate search that picks a fused model (the
/// paper's 200).
pub const PICK_ITERATIONS: usize = 200;

/// The fused model a surrogate search picks. No kernel arithmetic decides
/// which graph wins, so the served model's structure does not depend on
/// floating-point results.
pub fn surrogate_pick(session: &Session) -> Result<SearchResult> {
    session.optimize(&search_config(AccuracyMode::Surrogate, PICK_ITERATIONS))
}

/// The search checks: best drop within budget and speedup at least 1.
pub fn check_search(r: &mut Report, what: &str, budget: f32, drop: f32, speedup: f64) {
    r.check(drop <= budget && speedup >= 1.0, || {
        format!("{what}: best drop {drop} (budget {budget}), speedup {speedup}")
    });
}

/// The first `n` rows of a dataset's inputs.
pub fn first_rows(ds: &MultiTaskDataset, n: usize) -> Result<gmorph::tensor::Tensor> {
    let n = n.min(ds.len());
    ds.inputs.select_rows(&(0..n).collect::<Vec<_>>())
}

/// A freshly initialized tree of a benchmark's original (unfused) models,
/// for timing layer kinds the workload's own model lacks.
pub fn fresh_original_tree(id: BenchId, ctx: &Ctx) -> Result<(TreeModel, MultiTaskDataset)> {
    let bench = build_bench(id, ctx)?;
    let graph = parse_specs(&bench.mini)?;
    let mut rng = Rng::new(ctx.seed ^ 0xB0);
    let (tree, _) = generator::generate(&graph, &WeightStore::new(), &mut rng)?;
    Ok((tree, bench.dataset))
}

/// Bitwise equality of two sets of per-task outputs.
pub fn same_bits(a: &[gmorph::tensor::Tensor], b: &[gmorph::tensor::Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The traced run's sink: sums span durations by name instead of storing
/// events, so tracing a long search costs no memory.
#[derive(Default)]
pub struct SpanTotals {
    totals: Mutex<BTreeMap<String, (u64, f64)>>,
}

impl SpanTotals {
    /// Count and total microseconds of the spans named `name`.
    pub fn get(&self, name: &str) -> (u64, f64) {
        self.totals
            .lock()
            .expect("span totals lock poisoned")
            .get(name)
            .copied()
            .unwrap_or((0, 0.0))
    }
}

impl Sink for SpanTotals {
    fn record(&self, event: &Event) {
        if event.kind != EventKind::SpanEnd {
            return;
        }
        let us = event
            .field("duration_us")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let mut totals = self.totals.lock().expect("span totals lock poisoned");
        let slot = totals.entry(event.name.clone()).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += us;
    }
}

/// Runs `f` with telemetry collecting into a fresh [`SpanTotals`]; returns
/// the result, the sink, and the counters and histograms it left. Telemetry
/// is off again afterwards.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Arc<SpanTotals>, Telemetry) {
    gmorph::telemetry::metrics::reset();
    let sink = Arc::new(SpanTotals::default());
    gmorph::telemetry::install(sink.clone());
    let out = f();
    let telemetry = Telemetry {
        counters: gmorph::telemetry::metrics::counters().into_iter().collect(),
        hists: gmorph::telemetry::metrics::histograms()
            .into_iter()
            .collect(),
    };
    gmorph::telemetry::shutdown();
    gmorph::telemetry::metrics::reset();
    (out, sink, telemetry)
}

/// Counters and histograms of a traced section.
pub struct Telemetry {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, gmorph::telemetry::metrics::HistSummary>,
}

impl Telemetry {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// CPU seconds used by this process so far, summed over its threads.
///
/// On a shared virtual machine the hypervisor can take a core away from
/// the guest for long stretches ("steal" time), and wall-clock figures move
/// with the neighbours' load. The kernel does not charge stolen time to the
/// process, so process CPU time measures the work the program did.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the C
    // library defines; the call writes only through the pointer it gets.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds taken by `f`, with its result and its wall seconds.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = cpu_seconds();
    let (out, wall) = timed(f);
    (out, cpu_seconds() - c0, wall)
}
