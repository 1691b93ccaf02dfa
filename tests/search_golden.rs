//! Golden traces: fixed-seed searches pinned iteration by iteration.
//!
//! Each case pins the per-iteration `status`, `from_elite` and `epochs`
//! sequence of a fixed-seed search plus an FNV-1a hash of the best
//! graph's signature. Any change to RNG consumption, proposal order,
//! dedup/filter/quarantine decisions, elite bookkeeping or the evaluator
//! shows up here as a diff against the pinned string. The real-mode case
//! matters separately because real fine-tuning draws from the search RNG
//! (surrogate evaluation does not).

use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::search::driver::{run_search, SearchResult};
use gmorph::tensor::checkpoint::{fnv1a, FNV_OFFSET};

fn smoke_session(seed: u64) -> Session {
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), seed).unwrap();
    Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed,
            },
            seed,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap()
}

fn search(session: &Session, cfg: &OptimizationConfig) -> SearchResult {
    let mode = session.eval_mode(cfg.mode).unwrap();
    let mut sc = cfg.to_search_config();
    sc.virtual_throughput = session.virtual_throughput;
    run_search(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &sc,
    )
    .unwrap()
}

/// One token per iteration, `<status>[*]<epochs>`: status initial
/// (`E`valuated, `D`uplicate, `R`ule-filtered, `T`erminated early,
/// `N`o mutation, `F`ailed, `Q`uarantined), `*` when the base was an
/// elite.
fn fingerprint(res: &SearchResult) -> String {
    res.trace
        .iter()
        .map(|r| {
            let s = match r.status.as_str() {
                "evaluated" => 'E',
                "duplicate" => 'D',
                "rule_filtered" => 'R',
                "terminated_early" => 'T',
                "no_mutation" => 'N',
                "failed" => 'F',
                "quarantined" => 'Q',
                other => panic!("unknown status {other}"),
            };
            let elite = if r.from_elite { "*" } else { "" };
            format!("{s}{elite}{}", r.epochs)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn best_hash(res: &SearchResult) -> u64 {
    fnv1a(res.best.mini.signature().as_bytes(), FNV_OFFSET)
}

#[test]
fn surrogate_b1_24_iterations_is_pinned() {
    let session = smoke_session(7);
    let res = search(
        &session,
        &OptimizationConfig {
            iterations: 24,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(
        fingerprint(&res),
        "E10 E10 E10 E10 E*10 E10 E10 E10 E10 E10 E10 E10 \
         E*10 E*10 E10 E10 E10 E10 E10 E10 E10 E10 E10 E10"
    );
    assert_eq!(best_hash(&res), 0x1ec5_e8b6_2a8f_eb19);
}

#[test]
fn real_b1_3_iterations_is_pinned() {
    let session = smoke_session(7);
    let res = search(
        &session,
        &OptimizationConfig {
            iterations: 3,
            max_epochs: 2,
            eval_every: 1,
            seed: 7,
            mode: AccuracyMode::Real,
            ..Default::default()
        },
    );
    assert_eq!(fingerprint(&res), "E1 E2 E1");
    assert_eq!(best_hash(&res), 0xaf39_80b1_1287_c32d);
}
