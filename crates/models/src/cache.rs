//! Trained-weight cache.
//!
//! Teachers are expensive to train relative to the experiments that consume
//! them, so trained weights (plus the teacher's test score) are persisted
//! under a cache directory keyed by architecture fingerprint and seed. The
//! paper's artifact ships pre-trained `.model` files for the same reason.
//!
//! Each entry is a `teacher_weights` envelope of
//! [`gmorph_tensor::checkpoint`], so it is written atomically and its
//! checksum is verified on every load: a damaged entry is retrained, never
//! served.

use crate::model::{ModelSpec, SingleTaskModel};
use crate::train::{train_teacher, TrainConfig, TrainReport};
use gmorph_data::dataset::Split;
use gmorph_tensor::checkpoint::{
    is_corruption, load, save_atomic, ByteReader, ByteWriter, Envelope,
};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Returns the cache directory (`$GMORPH_CACHE_DIR` or
/// `target/gmorph-cache`).
pub fn cache_dir() -> PathBuf {
    std::env::var_os("GMORPH_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/gmorph-cache"))
}

/// Stable fingerprint of a model architecture.
pub fn fingerprint(spec: &ModelSpec) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", spec.blocks).hash(&mut h);
    spec.input_shape.hash(&mut h);
    spec.task.name.hash(&mut h);
    spec.task.classes.hash(&mut h);
    h.finish()
}

/// Cheap fingerprint of the training data so teachers trained on one
/// dataset (e.g. a smoke profile) are never served for another.
fn data_fingerprint(split: &Split) -> u64 {
    let mut h = DefaultHasher::new();
    split.train.len().hash(&mut h);
    split.test.len().hash(&mut h);
    // Checksum a few input values to distinguish same-sized datasets.
    let data = split.train.inputs.data();
    for &i in &[0usize, data.len() / 3, 2 * data.len() / 3] {
        if let Some(v) = data.get(i) {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

fn cache_path(spec: &ModelSpec, split: &Split, seed: u64) -> PathBuf {
    let sane: String = spec
        .name
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    cache_dir().join(format!(
        "{sane}-{seed}-{:016x}-{:016x}.gmck",
        fingerprint(spec),
        data_fingerprint(split)
    ))
}

/// Checkpoint payload kind of a cached teacher.
pub const TEACHER_WEIGHTS_KIND: &str = "teacher_weights";
/// Schema version of the `teacher_weights` payload.
const TEACHER_WEIGHTS_SCHEMA: u32 = 1;

/// Decodes a `teacher_weights` envelope into its test score and weights.
pub fn decode_teacher_weights(env: &Envelope) -> Result<(f32, Vec<(String, Tensor)>)> {
    if env.schema != TEACHER_WEIGHTS_SCHEMA {
        return Err(TensorError::Io(format!(
            "checkpoint corrupt: teacher_weights schema v{} unsupported (expected v{TEACHER_WEIGHTS_SCHEMA})",
            env.schema
        )));
    }
    let score = ByteReader::new(env.section("score")?).get_f32()?;
    let weights = ByteReader::new(env.section("weights")?).get_state_dict()?;
    Ok((score, weights))
}

/// Loads a cached teacher or trains and caches one.
///
/// Returns the model and its held-out test score. A missing cache entry
/// is a plain miss. An entry that fails its checksum, decode, or shape
/// check is counted in `cache.corrupt`, reported as a `cache.rejected`
/// point, and retrained over. Writing the entry is best-effort.
pub fn load_or_train(
    spec: &ModelSpec,
    split: &Split,
    task_idx: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<(SingleTaskModel, f32)> {
    let path = cache_path(spec, split, seed);
    let build = || spec.build(&mut Rng::new(seed ^ fingerprint(spec)));
    if path.exists() {
        let mut model = build()?;
        let cached = load(&path, TEACHER_WEIGHTS_KIND)
            .and_then(|env| decode_teacher_weights(&env))
            .and_then(|(score, weights)| model.load_state_dict(&weights).map(|()| score));
        match cached {
            Ok(score) => return Ok((model, score)),
            Err(err) => {
                gmorph_telemetry::counter!("cache.corrupt");
                gmorph_telemetry::point!(
                    "cache.rejected",
                    path = path.display().to_string().as_str(),
                    corruption = is_corruption(&err),
                    error = err.to_string().as_str()
                );
            }
        }
    }
    // A fresh build: a rejected entry may have half-loaded into the model.
    let mut model = build()?;
    let report: TrainReport = train_teacher(&mut model, &split.train, &split.test, task_idx, cfg)?;
    let mut w = ByteWriter::new();
    w.put_f32(report.final_score);
    let mut env = Envelope::new(TEACHER_WEIGHTS_KIND, TEACHER_WEIGHTS_SCHEMA);
    env.push("score", w.into_bytes());
    let mut w = ByteWriter::new();
    w.put_state_dict(&model.state_dict());
    env.push("weights", w.into_bytes());
    // Caching is best-effort: a read-only filesystem must not fail training.
    let _ = save_atomic(&path, &env);
    Ok((model, report.final_score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{vgg, VggDepth, VisionScale};
    use gmorph_data::faces::{generate, FaceTask, FacesConfig};
    use gmorph_data::TaskSpec;

    #[test]
    fn fingerprint_distinguishes_architectures() {
        let t = TaskSpec::classification("x", 2);
        let a = vgg(VggDepth::Vgg11, VisionScale::mini(), &t).unwrap();
        let b = vgg(VggDepth::Vgg13, VisionScale::mini(), &t).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a));
    }

    #[test]
    fn load_or_train_roundtrips_through_cache() {
        let dir = std::env::temp_dir().join(format!("gmorph-cache-test-{}", std::process::id()));
        std::env::set_var("GMORPH_CACHE_DIR", &dir);
        let mut rng = Rng::new(0);
        let cfg = FacesConfig {
            samples: 48,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender], &mut rng).unwrap();
        let split = ds.split(0.7, &mut rng).unwrap();
        let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), &ds.tasks[0]).unwrap();
        let tc = TrainConfig {
            epochs: 1,
            batch: 16,
            lr: 1e-3,
            seed: 0,
        };
        let (m1, s1) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
        // Second call must hit the cache and return identical weights.
        let (m2, s2) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(m1.state_dict(), m2.state_dict());
        std::env::remove_var("GMORPH_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
