//! Crash-safe checkpoint/resume for the search driver.
//!
//! The search loop's full state — RNG stream, SA policy temperature state,
//! elite list and dedup set, capacity-rule failures, virtual clock, best
//! model, and the per-iteration trace — is snapshotted into a
//! [`gmorph_tensor::checkpoint`] envelope after every round and written
//! to disk every N iterations (and on drop/panic unwind) by the
//! [`CheckpointManager`]. Resuming from the newest valid snapshot replays
//! the remainder of the run *bit-exactly*: the resumed `SearchResult`
//! (everything except wall-clock seconds) and fused model bytes equal the
//! uninterrupted run's. Corrupt snapshots (truncation, bit flips, version
//! skew, leftover `.tmp` staging files) are skipped with a
//! `checkpoint.corrupt` telemetry event, falling back to the next-newest
//! valid snapshot or a clean start — never a panic.

use crate::driver::{BestModel, CandidateStatus, SearchConfig, TraceRecord};
use crate::history::Elite;
use gmorph_graph::persist::{decode_graph_exact, encode_graph_exact, get_model, put_model};
use gmorph_graph::{AbsGraph, CapacityVector};
use gmorph_tensor::checkpoint::{
    fnv1a, is_corruption, load, snapshot_files, ByteReader, ByteWriter, Envelope, FNV_OFFSET,
};
use gmorph_tensor::rng::RngState;
use gmorph_tensor::{Result, TensorError};
use std::path::Path;

pub use gmorph_tensor::checkpoint::{CheckpointManager, CheckpointOptions, CrashKind};

/// Payload kind of search snapshots.
pub const SEARCH_KIND: &str = "search";
/// Schema version of the search snapshot payload. v2 added quarantine
/// entries to the filter section; v3 embeds elites and the best model
/// with the `put_model` section codec; v4 drops the outcome counters,
/// which are tallied from the trace.
pub const SEARCH_SCHEMA: u32 = 4;

/// Fingerprints a search configuration plus its input graphs.
///
/// A snapshot resumes only under the exact config and inputs it was
/// written for; anything else would silently diverge from the
/// uninterrupted run the resume claims to continue.
pub fn config_fingerprint(cfg: &SearchConfig, mini: &AbsGraph, paper: &AbsGraph) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(format!("{cfg:?}").as_bytes(), h);
    h = fnv1a(mini.signature().as_bytes(), h);
    h = fnv1a(paper.signature().as_bytes(), h);
    h
}

// ---------------------------------------------------------------------
// Field-level codecs
// ---------------------------------------------------------------------

fn put_capacity(w: &mut ByteWriter, cv: &CapacityVector) {
    w.put_u64(cv.total as u64);
    w.put_u32(cv.per_task_total.len() as u32);
    for &v in &cv.per_task_total {
        w.put_u64(v as u64);
    }
    w.put_u32(cv.per_task_specific.len() as u32);
    for &v in &cv.per_task_specific {
        w.put_u64(v as u64);
    }
    w.put_u64(cv.shared as u64);
}

fn get_capacity(r: &mut ByteReader) -> Result<CapacityVector> {
    let total = r.get_u64()? as usize;
    let n = r.get_u32()? as usize;
    let mut per_task_total = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        per_task_total.push(r.get_u64()? as usize);
    }
    let m = r.get_u32()? as usize;
    let mut per_task_specific = Vec::with_capacity(m.min(1024));
    for _ in 0..m {
        per_task_specific.push(r.get_u64()? as usize);
    }
    let shared = r.get_u64()? as usize;
    Ok(CapacityVector {
        total,
        per_task_total,
        per_task_specific,
        shared,
    })
}

fn put_scores(w: &mut ByteWriter, scores: &[f32]) {
    w.put_u32(scores.len() as u32);
    for &s in scores {
        w.put_f32(s);
    }
}

fn get_scores(r: &mut ByteReader) -> Result<Vec<f32>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.get_f32()?);
    }
    Ok(out)
}

fn put_elite(w: &mut ByteWriter, e: &Elite) {
    put_model(w, &e.mini, &e.weights);
    w.put_str(&encode_graph_exact(&e.paper));
    w.put_f32(e.drop);
    w.put_f64(e.latency_ms);
    put_scores(w, &e.scores);
}

fn get_elite(r: &mut ByteReader) -> Result<Elite> {
    let (mini, weights) = get_model(r)?;
    let paper = decode_graph_exact(&r.get_str()?)?;
    let drop = r.get_f32()?;
    let latency_ms = r.get_f64()?;
    let scores = get_scores(r)?;
    Ok(Elite {
        mini,
        paper,
        weights,
        drop,
        latency_ms,
        scores,
    })
}

// The trace section stays binary rather than reusing
// `TraceRecord::fields` and the JSON codec: JSON writes ±inf as `null`
// (read back as NaN), which would break bit-exact resume.
fn put_trace(w: &mut ByteWriter, trace: &[TraceRecord]) {
    w.put_u64(trace.len() as u64);
    for t in trace {
        w.put_u64(t.iter as u64);
        w.put_str(t.status.as_str());
        w.put_u8(t.from_elite as u8);
        w.put_f32(t.drop);
        w.put_u8(t.met_target as u8);
        w.put_f64(t.candidate_latency_ms);
        w.put_f64(t.best_latency_ms);
        w.put_u64(t.epochs as u64);
        w.put_f64(t.virtual_hours);
        w.put_f64(t.wall_seconds);
    }
}

fn get_trace(r: &mut ByteReader) -> Result<Vec<TraceRecord>> {
    let n = r.get_len(1 << 24)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let iter = r.get_u64()? as usize;
        let status_str = r.get_str()?;
        let status = CandidateStatus::parse(&status_str).ok_or_else(|| {
            TensorError::Io(format!("checkpoint corrupt: unknown status {status_str:?}"))
        })?;
        out.push(TraceRecord {
            iter,
            status,
            from_elite: r.get_u8()? != 0,
            drop: r.get_f32()?,
            met_target: r.get_u8()? != 0,
            candidate_latency_ms: r.get_f64()?,
            best_latency_ms: r.get_f64()?,
            epochs: r.get_u64()? as usize,
            virtual_hours: r.get_f64()?,
            wall_seconds: r.get_f64()?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Per-loop search state: everything the next round's decisions depend
/// on.
#[derive(Debug, Clone)]
pub struct LoopState {
    /// Config + input-graph fingerprint the snapshot is valid for.
    pub fingerprint: u64,
    /// First iteration the resumed run should execute.
    pub next_iter: usize,
    /// RNG stream position.
    pub rng: RngState,
    /// SA policy's last observed drop `Δ`.
    pub last_drop: f32,
    /// Virtual clock's accumulated seconds.
    pub clock_seconds: f64,
    /// Wall-clock seconds spent before this snapshot (resume adds its own
    /// elapsed time on top; never part of bit-identity comparisons).
    pub wall_offset: f64,
    /// Capacity-rule failures, in insertion order.
    pub failures: Vec<CapacityVector>,
    /// Quarantined evaluation failures: (graph signature, capacity), in
    /// insertion order.
    pub quarantined: Vec<(String, CapacityVector)>,
    /// Evaluated-candidate signatures (sorted; membership-only set).
    pub evaluated: Vec<String>,
    /// Elite list, in insertion order (the policy indexes into it).
    pub elites: Vec<Elite>,
}

impl LoopState {
    fn encode_into(&self, env: &mut Envelope) {
        let mut w = ByteWriter::new();
        w.put_u64(self.fingerprint);
        w.put_u64(self.next_iter as u64);
        w.put_f32(self.last_drop);
        w.put_f64(self.clock_seconds);
        w.put_f64(self.wall_offset);
        env.push("loop", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_rng(&self.rng);
        env.push("rng", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u32(self.failures.len() as u32);
        for f in &self.failures {
            put_capacity(&mut w, f);
        }
        w.put_u32(self.quarantined.len() as u32);
        for (sig, cv) in &self.quarantined {
            w.put_str(sig);
            put_capacity(&mut w, cv);
        }
        env.push("filter", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u64(self.evaluated.len() as u64);
        for s in &self.evaluated {
            w.put_str(s);
        }
        w.put_u32(self.elites.len() as u32);
        for e in &self.elites {
            put_elite(&mut w, e);
        }
        env.push("history", w.into_bytes());
    }

    fn decode_from(env: &Envelope) -> Result<LoopState> {
        let mut r = ByteReader::new(env.section("loop")?);
        let fingerprint = r.get_u64()?;
        let next_iter = r.get_u64()? as usize;
        let last_drop = r.get_f32()?;
        let clock_seconds = r.get_f64()?;
        let wall_offset = r.get_f64()?;

        let mut r = ByteReader::new(env.section("rng")?);
        let rng = r.get_rng()?;

        let mut r = ByteReader::new(env.section("filter")?);
        let nf = r.get_u32()? as usize;
        let mut failures = Vec::with_capacity(nf.min(4096));
        for _ in 0..nf {
            failures.push(get_capacity(&mut r)?);
        }
        let nq = r.get_u32()? as usize;
        let mut quarantined = Vec::with_capacity(nq.min(4096));
        for _ in 0..nq {
            let sig = r.get_str()?;
            quarantined.push((sig, get_capacity(&mut r)?));
        }

        let mut r = ByteReader::new(env.section("history")?);
        let ns = r.get_len(1 << 24)?;
        let mut evaluated = Vec::with_capacity(ns.min(1 << 16));
        for _ in 0..ns {
            evaluated.push(r.get_str()?);
        }
        let ne = r.get_u32()? as usize;
        let mut elites = Vec::with_capacity(ne.min(1024));
        for _ in 0..ne {
            elites.push(get_elite(&mut r)?);
        }

        Ok(LoopState {
            fingerprint,
            next_iter,
            rng,
            last_drop,
            clock_seconds,
            wall_offset,
            failures,
            quarantined,
            evaluated,
            elites,
        })
    }
}

/// Complete snapshot of a [`crate::driver::run_search`] run.
#[derive(Debug, Clone)]
pub struct SearchSnapshot {
    /// Shared loop state.
    pub state: LoopState,
    /// Best satisfying model so far.
    pub best: BestModel,
    /// Per-iteration trace so far.
    pub trace: Vec<TraceRecord>,
}

impl SearchSnapshot {
    /// Serializes the snapshot into an envelope.
    pub fn encode(&self) -> Envelope {
        let mut env = Envelope::new(SEARCH_KIND, SEARCH_SCHEMA);
        self.state.encode_into(&mut env);

        let mut w = ByteWriter::new();
        put_model(&mut w, &self.best.mini, &self.best.weights);
        w.put_str(&encode_graph_exact(&self.best.paper));
        w.put_f64(self.best.latency_ms);
        w.put_f32(self.best.drop);
        put_scores(&mut w, &self.best.scores);
        env.push("best", w.into_bytes());

        let mut w = ByteWriter::new();
        put_trace(&mut w, &self.trace);
        env.push("trace", w.into_bytes());
        env
    }

    /// Restores a snapshot from an envelope, checking the schema version.
    pub fn decode(env: &Envelope) -> Result<SearchSnapshot> {
        if env.schema != SEARCH_SCHEMA {
            return Err(TensorError::Io(format!(
                "checkpoint corrupt: search schema v{} unsupported (expected v{SEARCH_SCHEMA})",
                env.schema
            )));
        }
        let state = LoopState::decode_from(env)?;

        let mut r = ByteReader::new(env.section("best")?);
        let (mini, weights) = get_model(&mut r)?;
        let paper = decode_graph_exact(&r.get_str()?)?;
        let latency_ms = r.get_f64()?;
        let drop = r.get_f32()?;
        let scores = get_scores(&mut r)?;
        let best = BestModel {
            mini,
            paper,
            weights,
            latency_ms,
            drop,
            scores,
        };

        let mut r = ByteReader::new(env.section("trace")?);
        let trace = get_trace(&mut r)?;

        Ok(SearchSnapshot { state, best, trace })
    }
}

// ---------------------------------------------------------------------
// Loading with corruption fallback
// ---------------------------------------------------------------------

/// Loads the newest valid [`SearchSnapshot`] whose fingerprint matches.
///
/// A snapshot whose schema or fingerprint mismatches is treated like
/// corruption: logged, skipped, and the next-newest tried.
pub fn load_latest_search(dir: &Path, fingerprint: u64) -> Result<Option<SearchSnapshot>> {
    for (iter, path) in snapshot_files(dir, SEARCH_KIND) {
        let snap = load(&path, SEARCH_KIND).and_then(|env| SearchSnapshot::decode(&env));
        match snap {
            Ok(snap) if snap.state.fingerprint == fingerprint => {
                gmorph_telemetry::counter!("checkpoint.load");
                gmorph_telemetry::point!(
                    "checkpoint.loaded",
                    iter = iter,
                    path = path.display().to_string().as_str()
                );
                return Ok(Some(snap));
            }
            Ok(snap) => {
                gmorph_telemetry::counter!("checkpoint.fingerprint_mismatch");
                gmorph_telemetry::point!(
                    "checkpoint.rejected",
                    iter = iter,
                    path = path.display().to_string().as_str(),
                    corruption = false,
                    error = format!(
                        "config fingerprint {:#018x} does not match this run's {fingerprint:#018x}",
                        snap.state.fingerprint
                    )
                    .as_str()
                );
            }
            Err(err) => {
                gmorph_telemetry::counter!("checkpoint.corrupt");
                gmorph_telemetry::point!(
                    "checkpoint.rejected",
                    iter = iter,
                    path = path.display().to_string().as_str(),
                    corruption = is_corruption(&err),
                    error = err.to_string().as_str()
                );
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_graph::WeightStore;
    use gmorph_tensor::rng::Rng;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gmorph-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_snapshot() -> SearchSnapshot {
        let task = gmorph_data::TaskSpec::classification("t", 2);
        let spec = gmorph_models::families::vgg(
            gmorph_models::families::VggDepth::Vgg11,
            gmorph_models::families::VisionScale::mini(),
            &task,
        )
        .unwrap();
        let g = gmorph_graph::parser::parse_specs(&[spec]).unwrap();
        let mut store = WeightStore::new();
        for (_, n) in g.iter() {
            store.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mut rng = Rng::new(7);
        rng.normal();
        SearchSnapshot {
            state: LoopState {
                fingerprint: 0xABCD,
                next_iter: 5,
                rng: rng.state(),
                last_drop: 0.013,
                clock_seconds: 123.456,
                wall_offset: 1.5,
                failures: vec![CapacityVector {
                    total: 10,
                    per_task_total: vec![6, 7],
                    per_task_specific: vec![4, 5],
                    shared: 2,
                }],
                quarantined: vec![(
                    "sig-q".to_string(),
                    CapacityVector {
                        total: 8,
                        per_task_total: vec![5, 6],
                        per_task_specific: vec![3, 4],
                        shared: 2,
                    },
                )],
                evaluated: vec!["a".to_string(), "b".to_string()],
                elites: vec![Elite {
                    mini: g.clone(),
                    paper: g.clone(),
                    weights: store.clone(),
                    drop: 0.01,
                    latency_ms: 3.5,
                    scores: vec![0.9],
                }],
            },
            best: BestModel {
                mini: g.clone(),
                paper: g,
                weights: store.clone(),
                latency_ms: 4.2,
                drop: 0.0,
                scores: vec![0.92],
            },
            trace: vec![TraceRecord {
                iter: 1,
                status: CandidateStatus::Evaluated,
                from_elite: false,
                drop: 0.02,
                met_target: true,
                candidate_latency_ms: 5.0,
                best_latency_ms: 4.2,
                epochs: 6,
                virtual_hours: 0.25,
                wall_seconds: 0.5,
            }],
        }
    }

    #[test]
    fn search_snapshot_roundtrips() {
        let snap = sample_snapshot();
        let env = snap.encode();
        let back = SearchSnapshot::decode(&env).unwrap();
        assert_eq!(back.state.fingerprint, snap.state.fingerprint);
        assert_eq!(back.state.next_iter, snap.state.next_iter);
        assert_eq!(back.state.rng, snap.state.rng);
        assert_eq!(
            back.state.last_drop.to_bits(),
            snap.state.last_drop.to_bits()
        );
        assert_eq!(
            back.state.clock_seconds.to_bits(),
            snap.state.clock_seconds.to_bits()
        );
        assert_eq!(back.state.failures, snap.state.failures);
        assert_eq!(back.state.quarantined, snap.state.quarantined);
        assert_eq!(back.state.evaluated, snap.state.evaluated);
        assert_eq!(back.state.elites.len(), 1);
        assert_eq!(
            back.state.elites[0].mini.signature(),
            snap.state.elites[0].mini.signature()
        );
        assert_eq!(
            back.best.latency_ms.to_bits(),
            snap.best.latency_ms.to_bits()
        );
        assert_eq!(back.trace.len(), 1);
        assert_eq!(back.trace[0].status, CandidateStatus::Evaluated);
    }

    #[test]
    fn schema_skew_is_rejected() {
        let snap = sample_snapshot();
        let mut env = snap.encode();
        env.schema = SEARCH_SCHEMA + 1;
        assert!(SearchSnapshot::decode(&env).is_err());
    }

    #[test]
    fn manager_writes_on_schedule_and_rotates() {
        let dir = tmp_dir("mgr");
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 2;
        opts.keep = 2;
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        for iter in 1..=6 {
            let mut snap = sample_snapshot();
            snap.state.next_iter = iter + 1;
            mgr.tick(iter..=iter, snap.encode()).unwrap();
        }
        // Writes at 2, 4, 6; rotation keeps the newest 2.
        let found = snapshot_files(&dir, SEARCH_KIND);
        let iters: Vec<usize> = found.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![6, 4]);
        let latest = load_latest_search(&dir, 0xABCD).unwrap().unwrap();
        assert_eq!(latest.state.next_iter, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_ticks_flush_when_any_iteration_is_due() {
        let dir = tmp_dir("rounds");
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 6;
        opts.keep = 4;
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        for round in 0..4 {
            let (first, last) = (4 * round + 1, 4 * round + 4);
            mgr.tick(first..=last, sample_snapshot().encode()).unwrap();
        }
        // Rounds 5..=8 and 9..=12 cover iterations 6 and 12; each write is
        // named after the round's last iteration. 13..=16 stays pending.
        let iters: Vec<usize> = snapshot_files(&dir, SEARCH_KIND)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(iters, vec![12, 8]);
        drop(mgr);
        assert_eq!(snapshot_files(&dir, SEARCH_KIND)[0].0, 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_flushes_pending() {
        let dir = tmp_dir("dropflush");
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 100; // Never hits the schedule.
        {
            let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
            mgr.tick(3..=3, sample_snapshot().encode()).unwrap();
        } // Drop writes iteration 3.
        assert_eq!(snapshot_files(&dir, SEARCH_KIND).len(), 1);
        assert!(load_latest_search(&dir, 0xABCD).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let opts = CheckpointOptions::new(&dir);
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        let mut a = sample_snapshot();
        a.state.next_iter = 2;
        mgr.tick(1..=1, a.encode()).unwrap();
        let mut b = sample_snapshot();
        b.state.next_iter = 3;
        mgr.tick(2..=2, b.encode()).unwrap();
        // Corrupt the newest in place.
        let newest = dir.join(format!("{SEARCH_KIND}-000002.gmck"));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let got = load_latest_search(&dir, 0xABCD).unwrap().unwrap();
        assert_eq!(got.state.next_iter, 2, "fell back to the older snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_skipped() {
        let dir = tmp_dir("fpr");
        let opts = CheckpointOptions::new(&dir);
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        mgr.tick(1..=1, sample_snapshot().encode()).unwrap();
        assert!(load_latest_search(&dir, 0xDEAD).unwrap().is_none());
        assert!(load_latest_search(&dir, 0xABCD).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
