//! Failure injection: corrupted persistence, degenerate configurations,
//! and hostile inputs must produce errors (or graceful fallbacks), never
//! panics or silent corruption.

use gmorph::models::cache::load_or_train;
use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::telemetry::metrics::counter_value;
use gmorph::telemetry::sink::install_test_sink;
use gmorph::tensor::checkpoint::{
    is_corruption, save_atomic, staging_path, ByteReader, ByteWriter, Envelope,
};
use std::sync::Mutex;

/// Serializes the tests that point `GMORPH_CACHE_DIR` somewhere: the
/// process environment is shared by every test thread.
static CACHE_ENV: Mutex<()> = Mutex::new(());

#[test]
fn corrupted_cache_files_fall_back_to_training() {
    let _env = CACHE_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("gmorph-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("GMORPH_CACHE_DIR", &dir);

    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 901).unwrap();
    let mut rng = Rng::new(901);
    let split = bench.dataset.split(0.7, &mut rng).unwrap();
    let tc = TrainConfig {
        epochs: 1,
        batch: 32,
        lr: 1e-3,
        seed: 901,
    };
    // First call populates the cache.
    let (_, score1) = load_or_train(&bench.mini[0], &split, 0, &tc, 901).unwrap();
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "gmck"))
        .expect("cache entry written");
    let good = std::fs::read(&entry).unwrap();

    // Each damage must be caught, counted, and retrained over to the same
    // score; the rewritten entry then serves the next call as a hit.
    let garbage = b"definitely not a gmorph envelope".to_vec();
    let mut poisoned = good.clone();
    let mid = poisoned.len() / 2;
    // 0x7f7f7f7f is a finite float (~3.4e38): only the checksum sees it.
    poisoned[mid..mid + 4].copy_from_slice(&[0x7f; 4]);
    assert_ne!(poisoned, good, "the overwrite must change the entry");
    let truncated = good[..good.len() / 3].to_vec();
    for (damage, bytes, stale_tmp) in [
        ("garbage", garbage, false),
        ("0x7f7f7f7f mid-payload", poisoned, false),
        ("truncation", truncated.clone(), false),
        ("stale .tmp sibling", truncated, true),
    ] {
        std::fs::write(&entry, bytes).unwrap();
        if stale_tmp {
            // A crashed writer's half-written staging file: never read.
            std::fs::write(staging_path(&entry), &good[..good.len() / 2]).unwrap();
        }
        let guard = install_test_sink();
        let (_, score2) = load_or_train(&bench.mini[0], &split, 0, &tc, 901).unwrap();
        let corrupt = counter_value("cache.corrupt");
        let rejected = guard
            .events()
            .into_iter()
            .find(|e| e.name == "cache.rejected");
        drop(guard);
        let rejected = rejected.unwrap_or_else(|| panic!("{damage}: no cache.rejected event"));
        for key in ["path", "corruption", "error"] {
            assert!(
                rejected.field(key).is_some(),
                "{damage}: cache.rejected lacks {key}"
            );
        }
        assert_eq!(score1.to_bits(), score2.to_bits(), "{damage}: score");
        assert_eq!(corrupt, 1, "{damage}: cache.corrupt");
        assert_eq!(
            std::fs::read(&entry).unwrap(),
            good,
            "{damage}: entry rewritten"
        );
        assert!(
            !staging_path(&entry).exists(),
            "{damage}: staging file left"
        );
    }
    // The rewritten entry is a clean hit.
    let guard = install_test_sink();
    let (_, score3) = load_or_train(&bench.mini[0], &split, 0, &tc, 901).unwrap();
    assert_eq!(counter_value("cache.corrupt"), 0);
    drop(guard);
    assert_eq!(score1.to_bits(), score3.to_bits());

    std::env::remove_var("GMORPH_CACHE_DIR");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_state_dicts_error_cleanly() {
    let entries = vec![("w".to_string(), Tensor::ones(&[8, 8]))];
    let mut w = ByteWriter::new();
    w.put_state_dict(&entries);
    let buf = w.into_bytes();
    assert_eq!(ByteReader::new(&buf).get_state_dict().unwrap(), entries);
    // Every truncation point must error, not panic.
    for cut in 0..buf.len() {
        let err = ByteReader::new(&buf[..cut]).get_state_dict().unwrap_err();
        assert!(is_corruption(&err), "cut at {cut}: {err}");
    }
    // A rank beyond the cap errors.
    let mut bad = buf.clone();
    bad[8 + 8 + 1] = 9; // Entry count, name length, name "w", then rank.
    assert!(ByteReader::new(&bad).get_state_dict().is_err());
}

#[test]
fn hostile_header_values_do_not_allocate_absurdly() {
    let get = |bytes: &[u8]| ByteReader::new(bytes).get_state_dict();
    let u64s = |vals: &[u64]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };
    // Entry count 2^30: over the 2^20 cap, rejected up front.
    assert!(get(&u64s(&[1 << 30])).is_err());
    // A name length of 2^40 bytes.
    assert!(get(&u64s(&[1, 1 << 40])).is_err());
    // One entry named "w" whose dims multiply past 2^28 elements.
    let mut bytes = u64s(&[1, 1]);
    bytes.push(b'w');
    bytes.extend(u64s(&[2, 1 << 20, 1 << 20]));
    assert!(get(&bytes).is_err());
    // Within the caps, but the data is not there: still no allocation.
    let mut bytes = u64s(&[1, 1]);
    bytes.push(b'w');
    bytes.extend(u64s(&[1, 1 << 27]));
    assert!(get(&bytes).is_err());
}

#[test]
fn zero_iteration_search_returns_the_original() {
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 902).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 1e-3,
                seed: 902,
            },
            seed: 902,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = OptimizationConfig {
        iterations: 0,
        ..Default::default()
    };
    let r = session.optimize(&cfg).unwrap();
    assert_eq!(r.speedup, 1.0);
    assert!(r.trace.is_empty());
    assert_eq!(r.best.mini.signature(), session.mini_graph.signature());
}

#[test]
fn nan_inputs_do_not_crash_inference() {
    // A fused model fed NaNs must return NaNs, not panic: the engine's
    // numerics degrade gracefully.
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 903).unwrap();
    let mut rng = Rng::new(903);
    let teachers: Vec<_> = bench
        .mini
        .iter()
        .map(|s| s.build(&mut rng).unwrap())
        .collect();
    let (graph, store) = gmorph::graph::parser::parse_models(&teachers).unwrap();
    let (mut tree, _) = gmorph::graph::generator::generate(&graph, &store, &mut rng).unwrap();
    let x = Tensor::full(&[1, 3, 16, 16], f32::NAN);
    let ys = tree.forward(&x, Mode::Eval).unwrap();
    assert_eq!(ys.len(), 3);
}

#[test]
fn saving_into_unwritable_location_is_nonfatal_for_cache() {
    let _env = CACHE_ENV.lock().unwrap_or_else(|e| e.into_inner());
    // save_atomic itself errors...
    assert!(save_atomic(
        std::path::Path::new("/proc/definitely/not/writable/x.gmck"),
        &Envelope::new("teacher_weights", 1)
    )
    .is_err());
    // ...but load_or_train treats caching as best-effort.
    std::env::set_var("GMORPH_CACHE_DIR", "/proc/definitely/not/writable");
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 904).unwrap();
    let mut rng = Rng::new(904);
    let split = bench.dataset.split(0.7, &mut rng).unwrap();
    let tc = TrainConfig {
        epochs: 1,
        batch: 32,
        lr: 1e-3,
        seed: 904,
    };
    assert!(load_or_train(&bench.mini[0], &split, 0, &tc, 904).is_ok());
    std::env::remove_var("GMORPH_CACHE_DIR");
}

/// Corrupted checkpoint scenarios. Each one damages the *newest*
/// snapshot in a populated checkpoint directory and asserts the resume
/// (a) never panics, (b) lands on the same final result as an
/// uninterrupted run (fallback to the older snapshot, or a fresh start,
/// replays deterministically), and (c) bumps the `checkpoint.corrupt`
/// counter where the damage is detectable as corruption.
#[test]
fn corrupted_checkpoints_fall_back_never_panic() {
    use gmorph::search::checkpoint::{SEARCH_KIND, SEARCH_SCHEMA};
    use gmorph::search::driver::run_search_checkpointed;
    use gmorph::search::CheckpointOptions;

    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 905).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed: 7,
            },
            seed: 7,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = OptimizationConfig {
        iterations: 16,
        seed: 7,
        ..Default::default()
    }
    .to_search_config();
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let run = |ckpt: Option<&CheckpointOptions>| {
        run_search_checkpointed(
            &session.mini_graph,
            &session.paper_graph,
            &session.weights,
            &mode,
            &cfg,
            ckpt,
        )
    };
    let reference = run(None).unwrap();
    // Non-vacuous scenario: elites and an improved best exist, so the
    // fallback replay exercises the full state restoration.
    assert!(reference.speedup > 1.0, "scenario found nothing: useless");

    let snapshots_in = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "gmck"))
            .collect();
        files.sort();
        files
    };

    #[derive(Clone, Copy, Debug)]
    enum Damage {
        Truncate,
        FlipHeaderByte,
        FlipPayloadByte,
        StaleSchema,
        TmpLeftover,
        AllCorrupt,
    }
    for damage in [
        Damage::Truncate,
        Damage::FlipHeaderByte,
        Damage::FlipPayloadByte,
        Damage::StaleSchema,
        Damage::TmpLeftover,
        Damage::AllCorrupt,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "gmorph-ckpt-corrupt-{damage:?}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Populate the directory by running to completion with
        // per-iteration snapshots (keep=2 → the last two survive).
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 1;
        run(Some(&opts)).unwrap();
        let files = snapshots_in(&dir);
        assert_eq!(files.len(), 2, "{damage:?}: rotation should keep 2");
        let newest = files.last().unwrap().clone();

        let corruption_expected = match damage {
            Damage::Truncate => {
                let bytes = std::fs::read(&newest).unwrap();
                std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
                true
            }
            Damage::FlipHeaderByte => {
                let mut bytes = std::fs::read(&newest).unwrap();
                bytes[2] ^= 0xFF; // Inside the magic number.
                std::fs::write(&newest, bytes).unwrap();
                true
            }
            Damage::FlipPayloadByte => {
                let mut bytes = std::fs::read(&newest).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01; // CRC-covered body.
                std::fs::write(&newest, bytes).unwrap();
                true
            }
            Damage::StaleSchema => {
                // A well-formed envelope from a future schema version.
                let env = Envelope::new(SEARCH_KIND, SEARCH_SCHEMA + 7);
                std::fs::write(&newest, env.encode()).unwrap();
                true
            }
            Damage::TmpLeftover => {
                // A half-written staging file from a crashed writer. The
                // loader must never even consider it.
                let tmp = dir.join("search-000099.gmck.tmp");
                std::fs::write(&tmp, b"half-written garbage").unwrap();
                false
            }
            Damage::AllCorrupt => {
                for f in &files {
                    let bytes = std::fs::read(f).unwrap();
                    std::fs::write(f, &bytes[..bytes.len() / 2]).unwrap();
                }
                true
            }
        };

        let guard = install_test_sink();
        let mut resume = CheckpointOptions::new(&dir);
        resume.every = 1;
        resume.resume = true;
        let resumed = run(Some(&resume)).unwrap(); // Must not panic or error.
        let corrupt_count = counter_value("checkpoint.corrupt");
        drop(guard);

        if corruption_expected {
            assert!(corrupt_count >= 1, "{damage:?}: corruption not counted");
        } else {
            assert_eq!(corrupt_count, 0, "{damage:?}: spurious corruption");
        }
        // Whatever snapshot (or fresh start) the fallback landed on, the
        // deterministic replay must reach the uninterrupted result.
        assert_eq!(
            resumed.best.mini.signature(),
            reference.best.mini.signature(),
            "{damage:?}: best graph"
        );
        assert_eq!(
            resumed.best.latency_ms.to_bits(),
            reference.best.latency_ms.to_bits(),
            "{damage:?}: best latency"
        );
        assert_eq!(
            resumed.speedup.to_bits(),
            reference.speedup.to_bits(),
            "{damage:?}: speedup"
        );
        assert_eq!(
            resumed.trace.len(),
            reference.trace.len(),
            "{damage:?}: trace length"
        );
        assert_eq!(
            resumed.evaluated, reference.evaluated,
            "{damage:?}: evaluated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn config_file_attack_surface() {
    use gmorph::configfile::parse;
    // Pathological inputs must error or parse, never panic.
    let cases = [
        "= = =",
        "iterations = -5",
        "lr = 1e999",
        "seed = 99999999999999999999999999",
        "accuracy_threshold = NaN",
        "\u{0}\u{0}\u{0}",
        "metric = latency = flops",
    ];
    for c in cases {
        let _ = parse(c); // Outcome may be Ok or Err; panics fail the test.
    }
    // NaN threshold parses as f32 NaN; searches treat it as unmeetable.
    if let Ok(cfg) = parse("accuracy_threshold = NaN") {
        assert!(cfg.accuracy_threshold.is_nan());
    }
}
