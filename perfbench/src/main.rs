//! The gmorph-rs benchmark: fused-model serving and fusion search, end to
//! end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a header line, one line per metric with its unit and base, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exits nonzero when an output check fails. See README.md for
//! the workloads and what each per-layer metric should move.

mod layers;
mod report;
mod search;
mod serve;
mod setup;
mod speed;

use gmorph::prelude::BenchId;
use report::Report;
use setup::Ctx;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "search-real-conv",
    "search-real-attn",
    "serve",
    "search-surrogate",
];

const USAGE: &str =
    "usage: perfbench --workload <search-real-conv|search-real-attn|serve|search-surrogate|all> \
     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only train this seed's teachers into the cache (the child process
    /// the benchmark starts before measuring).
    warm: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut warm = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--warm" => warm = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        warm,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> gmorph::tensor::Result<Report> {
    match name {
        "search-real-conv" => search::real(ctx, BenchId::B1),
        "search-real-attn" => search::real(ctx, BenchId::B7),
        "serve" => serve::run(ctx),
        "search-surrogate" => search::surrogate(ctx),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// Benchmarks whose teachers a workload needs.
fn benches(workload: &str) -> Vec<BenchId> {
    match workload {
        "search-real-attn" => vec![BenchId::B7],
        "search-surrogate" => BenchId::all().to_vec(),
        _ => vec![BenchId::B1],
    }
}

/// Trains (or finds cached) the teachers a workload needs.
fn warm_teachers(workload: &str, ctx: &Ctx) -> gmorph::tensor::Result<()> {
    for id in benches(workload) {
        setup::prepare(id, ctx)?;
    }
    Ok(())
}

/// Fills the teacher cache for this seed in a child process, so that
/// neither the time nor the memory of training shows in this process.
fn warm_in_child(workload: &str, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
            "--warm",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the teacher-training child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("teacher-training child failed: {status}"))
    }
}

/// The git commit of the source tree, when it is a git checkout. Git does
/// not look above the tree's root, so a copy of the tree that is not a
/// checkout never reports a repository it happens to sit in.
fn git_commit() -> String {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_root = manifest.parent().and_then(|root| root.parent());
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(manifest);
    if let Some(dir) = above_root {
        git.env("GIT_CEILING_DIRECTORIES", dir);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// CPU vector extensions: detected at run time, and enabled at compile time.
fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "detected avx2={} avx512f={}; compiled avx2={} avx512f={}",
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "avx512f"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        format!("{} (no x86 feature detection)", std::env::consts::ARCH)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A private teacher cache, so that no number depends on the state of
    // the repository's shared cache. Teachers are trained into it before
    // anything is timed.
    let cache = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".cache");
    std::env::set_var("GMORPH_CACHE_DIR", &cache);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    gmorph::tensor::engine::set_num_threads(setup::KERNEL_THREADS);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: gmorph::tensor::engine::num_threads(),
        batch_k: nproc,
        trace: args.trace,
    };
    println!(
        "header: commit={} rustc=\"{}\" nproc={nproc} threads={} batched_k={} isa=\"{}\" workload={} seed={} seconds={} trace={}",
        git_commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
        ctx.threads,
        ctx.batch_k,
        isa(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    if args.warm {
        return match warm_teachers(&args.workload, &ctx) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: training teachers: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Report::default();
    for name in &names {
        if let Err(e) = warm_in_child(name, &args) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        let report = match run_workload(name, &ctx) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: workload {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "== {name}: {} operations, {} failed",
            report.attempted, report.failed
        );
        print!("{}", report.lines());
        for failure in &report.check_failures {
            println!("CHECK FAILED: {failure}");
        }
        if names.len() == 1 {
            total = report;
        } else {
            total.absorb(name, report);
        }
    }
    match total.json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload serve --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".to_string(),
                seed: 7,
                seconds: 20.0,
                trace: true,
                warm: false,
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload serve --seed x",
            "--workload serve --seconds 0",
            "--workload serve --trace 2",
            "--workload serve --seed",
            "--workload serve --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn workload_names_are_valid_metric_prefixes() {
        assert!(WORKLOADS.iter().all(|w| report::valid_name(w)));
    }
}
