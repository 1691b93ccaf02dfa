//! Persisting search traces to JSONL run artifacts.
//!
//! A saved trace is one `trace_meta` header line (run-level summary:
//! original/best latency, speedup, budget totals, candidate-outcome
//! counts) followed by one `trace_record` line per iteration — everything
//! needed to replot Figure 8's best-latency-vs-search-time curves from a
//! finished run without rerunning it. Floats use the telemetry JSON
//! codec: NaN encodes to `null` and decodes back to NaN, so unevaluated
//! iterations (drop = NaN) round-trip faithfully.

use crate::driver::{CandidateStatus, SearchResult, TraceRecord};
use gmorph_telemetry::json::Json;
use gmorph_telemetry::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Run-level summary written as the `trace_meta` header line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Iterations the trace covers.
    pub iterations: usize,
    /// Latency of the original multi-DNN graph (ms).
    pub original_latency_ms: f64,
    /// Latency of the best satisfying model (ms).
    pub best_latency_ms: f64,
    /// Speedup of best over original.
    pub speedup: f64,
    /// Total virtual search time (hours).
    pub virtual_hours: f64,
    /// Total wall-clock time (seconds).
    pub wall_seconds: f64,
    /// Candidates fine-tuned.
    pub evaluated: usize,
    /// Candidates skipped by rule-based filtering.
    pub rule_filtered: usize,
    /// Candidates terminated early.
    pub early_terminated: usize,
    /// Duplicate candidates skipped.
    pub duplicates: usize,
    /// Candidates that failed every permitted evaluation attempt.
    pub failed: usize,
    /// Candidates skipped by quarantine.
    pub quarantined: usize,
}

impl TraceMeta {
    /// Builds the header from a finished search.
    pub fn of(result: &SearchResult) -> TraceMeta {
        TraceMeta {
            iterations: result.trace.len(),
            original_latency_ms: result.original_latency_ms,
            best_latency_ms: result.best.latency_ms,
            speedup: result.speedup,
            virtual_hours: result.virtual_hours,
            wall_seconds: result.wall_seconds,
            evaluated: result.evaluated,
            rule_filtered: result.rule_filtered,
            early_terminated: result.early_terminated,
            duplicates: result.duplicates,
            failed: result.failed,
            quarantined: result.quarantined,
        }
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn meta_line(meta: &TraceMeta) -> String {
    obj(vec![
        ("kind", Json::Str("trace_meta".to_string())),
        ("iterations", Json::Int(meta.iterations as i64)),
        ("original_latency_ms", Json::Float(meta.original_latency_ms)),
        ("best_latency_ms", Json::Float(meta.best_latency_ms)),
        ("speedup", Json::Float(meta.speedup)),
        ("virtual_hours", Json::Float(meta.virtual_hours)),
        ("wall_seconds", Json::Float(meta.wall_seconds)),
        ("evaluated", Json::Int(meta.evaluated as i64)),
        ("rule_filtered", Json::Int(meta.rule_filtered as i64)),
        ("early_terminated", Json::Int(meta.early_terminated as i64)),
        ("duplicates", Json::Int(meta.duplicates as i64)),
        ("failed", Json::Int(meta.failed as i64)),
        ("quarantined", Json::Int(meta.quarantined as i64)),
    ])
    .encode()
}

fn record_line(rec: &TraceRecord) -> String {
    let mut fields: BTreeMap<String, Json> = rec
        .fields()
        .into_iter()
        .map(|(name, value)| (name, value.to_json()))
        .collect();
    fields.insert("kind".to_string(), Json::Str("trace_record".to_string()));
    Json::Obj(fields).encode()
}

/// Writes a search's trace as a `trace_meta` + `trace_record` JSONL file,
/// creating parent directories as needed.
pub fn save_trace(path: impl AsRef<Path>, result: &SearchResult) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{}", meta_line(&TraceMeta::of(result)))?;
    for rec in &result.trace {
        writeln!(w, "{}", record_line(rec))?;
    }
    w.flush()
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(j) => j
            .as_f64()
            .ok_or_else(|| format!("field {key:?} is not a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, String> {
    doc.get(key)
        .and_then(Json::as_i64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("missing or invalid field {key:?}"))
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, String> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or invalid field {key:?}"))
}

fn parse_meta(doc: &Json) -> Result<TraceMeta, String> {
    Ok(TraceMeta {
        iterations: get_usize(doc, "iterations")?,
        original_latency_ms: get_f64(doc, "original_latency_ms")?,
        best_latency_ms: get_f64(doc, "best_latency_ms")?,
        speedup: get_f64(doc, "speedup")?,
        virtual_hours: get_f64(doc, "virtual_hours")?,
        wall_seconds: get_f64(doc, "wall_seconds")?,
        evaluated: get_usize(doc, "evaluated")?,
        rule_filtered: get_usize(doc, "rule_filtered")?,
        early_terminated: get_usize(doc, "early_terminated")?,
        duplicates: get_usize(doc, "duplicates")?,
        // Pre-resilience traces lack these; read them as zero.
        failed: get_usize(doc, "failed").unwrap_or(0),
        quarantined: get_usize(doc, "quarantined").unwrap_or(0),
    })
}

fn parse_record(doc: &Json) -> Result<TraceRecord, String> {
    let status_str = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or("missing field \"status\"")?;
    let status = CandidateStatus::parse(status_str)
        .ok_or_else(|| format!("unknown status {status_str:?}"))?;
    Ok(TraceRecord {
        iter: get_usize(doc, "iter")?,
        status,
        from_elite: get_bool(doc, "from_elite")?,
        drop: get_f64(doc, "drop")? as f32,
        met_target: get_bool(doc, "met_target")?,
        candidate_latency_ms: get_f64(doc, "candidate_latency_ms")?,
        best_latency_ms: get_f64(doc, "best_latency_ms")?,
        epochs: get_usize(doc, "epochs")?,
        virtual_hours: get_f64(doc, "virtual_hours")?,
        wall_seconds: get_f64(doc, "wall_seconds")?,
    })
}

/// Reads a trace file written by [`save_trace`].
pub fn load_trace(path: impl AsRef<Path>) -> Result<(TraceMeta, Vec<TraceRecord>), String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
    let mut meta = None;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("trace_meta") => {
                if meta.is_some() {
                    return Err(format!("line {}: duplicate trace_meta", i + 1));
                }
                meta = Some(parse_meta(&doc).map_err(|e| format!("line {}: {e}", i + 1))?);
            }
            Some("trace_record") => {
                records.push(parse_record(&doc).map_err(|e| format!("line {}: {e}", i + 1))?)
            }
            other => {
                return Err(format!("line {}: unexpected kind {other:?}", i + 1));
            }
        }
    }
    let meta = meta.ok_or("no trace_meta header line")?;
    if records.len() != meta.iterations {
        return Err(format!(
            "trace_meta promises {} records, file has {}",
            meta.iterations,
            records.len()
        ));
    }
    Ok((meta, records))
}

/// Bit-exact value equality, except that NaN equals NaN (unevaluated
/// iterations record NaN drops and latencies).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// Lists every difference between two loaded traces except wall-clock
/// time, which is never bit-identical across runs; an empty list means
/// they match. Records compare field by field through
/// [`TraceRecord::fields`], so a field added there is compared too.
pub fn diff_traces(
    (a_meta, a_recs): &(TraceMeta, Vec<TraceRecord>),
    (b_meta, b_recs): &(TraceMeta, Vec<TraceRecord>),
) -> Vec<String> {
    let mut diffs = Vec::new();
    if a_meta.iterations != b_meta.iterations {
        diffs.push(format!(
            "meta.iterations: {} vs {}",
            a_meta.iterations, b_meta.iterations
        ));
    }
    for (name, x, y) in [
        (
            "original_latency_ms",
            a_meta.original_latency_ms,
            b_meta.original_latency_ms,
        ),
        (
            "best_latency_ms",
            a_meta.best_latency_ms,
            b_meta.best_latency_ms,
        ),
        ("speedup", a_meta.speedup, b_meta.speedup),
        ("virtual_hours", a_meta.virtual_hours, b_meta.virtual_hours),
    ] {
        if !same_value(&x.into(), &y.into()) {
            diffs.push(format!("meta.{name}: {x} vs {y}"));
        }
    }
    if a_recs.len() != b_recs.len() {
        diffs.push(format!(
            "record count: {} vs {}",
            a_recs.len(),
            b_recs.len()
        ));
    }
    for (i, (x, y)) in a_recs.iter().zip(b_recs).enumerate() {
        let field_diffs: Vec<String> = x
            .fields()
            .into_iter()
            .zip(y.fields())
            .filter(|((name, u), (_, v))| name != "wall_seconds" && !same_value(u, v))
            .map(|((name, u), (_, v))| {
                format!(
                    "{name} {} vs {}",
                    u.to_json().encode(),
                    v.to_json().encode()
                )
            })
            .collect();
        if !field_diffs.is_empty() {
            diffs.push(format!("record {i}: {}", field_diffs.join(", ")));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BestModel;
    use gmorph_graph::{AbsGraph, WeightStore};

    fn sample_result() -> SearchResult {
        let best = BestModel {
            mini: AbsGraph::new(vec![1, 8, 8], Vec::new()),
            paper: AbsGraph::new(vec![1, 8, 8], Vec::new()),
            weights: WeightStore::new(),
            latency_ms: 4.5,
            drop: 0.01,
            scores: vec![0.9],
        };
        let trace = vec![
            TraceRecord {
                iter: 1,
                status: CandidateStatus::NoMutation,
                from_elite: false,
                drop: f32::NAN,
                met_target: false,
                candidate_latency_ms: f64::NAN,
                best_latency_ms: 9.0,
                epochs: 0,
                virtual_hours: 0.0,
                wall_seconds: 0.01,
            },
            TraceRecord {
                iter: 2,
                status: CandidateStatus::Evaluated,
                from_elite: true,
                drop: 0.01,
                met_target: true,
                candidate_latency_ms: 4.5,
                best_latency_ms: 4.5,
                epochs: 6,
                virtual_hours: 0.5,
                wall_seconds: 0.05,
            },
        ];
        SearchResult {
            best,
            original_latency_ms: 9.0,
            speedup: 2.0,
            trace,
            virtual_hours: 0.5,
            wall_seconds: 0.05,
            evaluated: 1,
            rule_filtered: 0,
            early_terminated: 0,
            duplicates: 0,
            failed: 0,
            quarantined: 0,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gmorph-persist-{}-{name}", std::process::id()))
    }

    #[test]
    fn trace_round_trips_through_jsonl() {
        let result = sample_result();
        let path = temp_path("roundtrip.jsonl");
        save_trace(&path, &result).unwrap();
        let (meta, records) = load_trace(&path).unwrap();
        assert_eq!(meta, TraceMeta::of(&result));
        assert_eq!(records.len(), result.trace.len());
        for (got, want) in records.iter().zip(result.trace.iter()) {
            assert_eq!(got.iter, want.iter);
            assert_eq!(got.status, want.status);
            assert_eq!(got.from_elite, want.from_elite);
            assert_eq!(got.met_target, want.met_target);
            assert_eq!(got.epochs, want.epochs);
            assert_eq!(got.best_latency_ms, want.best_latency_ms);
            // NaN round-trips as NaN (encoded as JSON null).
            assert_eq!(got.drop.is_nan(), want.drop.is_nan());
            if !want.drop.is_nan() {
                assert!((got.drop - want.drop).abs() < 1e-6);
            }
            assert_eq!(
                got.candidate_latency_ms.is_nan(),
                want.candidate_latency_ms.is_nan()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn diff_reports_every_field_but_wall_seconds() {
        let result = sample_result();
        let loaded = (TraceMeta::of(&result), result.trace.clone());
        assert!(diff_traces(&loaded, &loaded).is_empty(), "NaN equals NaN");

        type Edit = (&'static str, fn(&mut TraceRecord));
        let edits: [Edit; 9] = [
            ("iter", |r| r.iter = 3),
            ("status", |r| r.status = CandidateStatus::Failed),
            ("from_elite", |r| r.from_elite = false),
            ("drop", |r| r.drop = f32::NAN),
            ("met_target", |r| r.met_target = false),
            ("candidate_latency_ms", |r| r.candidate_latency_ms = 4.6),
            ("best_latency_ms", |r| r.best_latency_ms = 4.4),
            ("epochs", |r| r.epochs = 7),
            ("virtual_hours", |r| r.virtual_hours = 0.75),
        ];
        let mut covered: Vec<&str> = edits.iter().map(|(name, _)| *name).collect();
        covered.push("wall_seconds");
        let names: Vec<String> = result.trace[1]
            .fields()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(covered, names, "one case per TraceRecord field");
        for (name, edit) in edits {
            let mut other = loaded.clone();
            edit(&mut other.1[1]);
            let diffs = diff_traces(&loaded, &other);
            assert_eq!(diffs.len(), 1, "{name}: {diffs:?}");
            assert!(
                diffs[0].starts_with(&format!("record 1: {name} ")),
                "{diffs:?}"
            );
        }

        let mut other = loaded.clone();
        other.1[1].wall_seconds += 1.0;
        other.0.wall_seconds += 1.0;
        assert!(
            diff_traces(&loaded, &other).is_empty(),
            "wall-clock ignored"
        );

        let mut other = loaded.clone();
        other.0.iterations += 1;
        assert_eq!(
            diff_traces(&loaded, &other),
            vec!["meta.iterations: 2 vs 3"]
        );
    }

    #[test]
    fn load_rejects_malformed_traces() {
        let path = temp_path("bad.jsonl");
        // Missing header.
        std::fs::write(&path, "{\"kind\":\"trace_record\"}\n").unwrap();
        assert!(load_trace(&path).is_err());
        // Unknown kind.
        std::fs::write(&path, "{\"kind\":\"mystery\"}\n").unwrap();
        assert!(load_trace(&path).is_err());
        // Record-count mismatch.
        let result = sample_result();
        save_trace(&path, &result).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let truncated: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, truncated.join("\n")).unwrap();
        assert!(load_trace(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
