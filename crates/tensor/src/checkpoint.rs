//! Crash-safe checkpoint container: a versioned, checksummed, atomic
//! on-disk envelope, the one file format of the workspace.
//!
//! Higher layers (search and teacher-training snapshots, cached teacher
//! weights, saved fused models) serialize themselves into named binary
//! *sections*; this module owns everything that makes the result durable
//! and trustworthy:
//!
//! ```text
//! file    := magic(u32="GMCP") format(u32) body_len(u64) crc32(u32) body
//! body    := kind_len(u32) kind(utf8) schema(u32) count(u32) section*
//! section := name_len(u32) name(utf8) data_len(u64) data
//! ```
//!
//! * **Versioning** — `format` is this envelope's layout version; `kind` +
//!   `schema` identify and version the payload so readers can reject
//!   snapshots written by a different subsystem or an incompatible schema
//!   *before* decoding any payload bytes.
//! * **Checksumming** — `crc32` (IEEE) covers the payload; truncation and
//!   bit flips are detected on load and reported as [`is_corruption`]
//!   errors rather than garbage state.
//! * **Atomicity** — [`save_atomic`] writes to a `<file>.tmp` sibling,
//!   fsyncs, then renames over the target; a crash mid-write leaves either
//!   the old snapshot or a `.tmp` leftover that loaders ignore, never a
//!   half-written checkpoint under the real name.
//!
//! The byte-level primitives ([`ByteWriter`]/[`ByteReader`]) encode floats
//! via `to_bits`, so every snapshot round-trips *bit-exactly* — the
//! foundation of the deterministic-replay guarantee tested in
//! `tests/checkpoint_resume.rs`. They include the shared section codecs
//! for tensors, state dicts, and RNG states:
//!
//! ```text
//! tensor     := rank(u64) dim(u64)* data(f32 bits)*
//! state_dict := count(u64) (name_len(u64) name(utf8) tensor)*
//! ```

use crate::rng::RngState;
use crate::{Result, Tensor, TensorError};
use std::io::Write;
use std::path::Path;

/// Envelope magic: "GMCP".
const MAGIC: u32 = 0x474D_4350;

/// Envelope layout version (the outer format, not the payload schema).
pub const FORMAT_VERSION: u32 = 1;

/// Largest tensor [`ByteReader::get_tensor`] accepts, in elements.
const MAX_NUMEL: usize = 1 << 28;

/// Marker prefix distinguishing corruption from plain I/O failures.
const CORRUPT: &str = "checkpoint corrupt: ";

fn corrupt(msg: impl std::fmt::Display) -> TensorError {
    TensorError::Io(format!("{CORRUPT}{msg}"))
}

fn io_err(e: std::io::Error) -> TensorError {
    TensorError::Io(format!("checkpoint io: {e}"))
}

/// True when `err` reports a corrupted or incompatible checkpoint (bad
/// magic/checksum/version/truncation) rather than an ordinary I/O failure.
pub fn is_corruption(err: &TensorError) -> bool {
    matches!(err, TensorError::Io(msg) if msg.contains(CORRUPT))
}

/// FNV-1a 64-bit offset basis — seed for [`fnv1a`] chains.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit — a fixed, process-independent hash for config
/// fingerprints (unlike `DefaultHasher`, stable across toolchains).
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Byte-at-a-time lookup table for [`crc32`], built at compile time from
/// the reflected IEEE polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial), one table lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Byte-level codec
// ---------------------------------------------------------------------

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f32 bit-exactly (NaN payloads included).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an f64 bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a tensor: rank, dims, then the data bit-exactly.
    pub fn put_tensor(&mut self, t: &Tensor) {
        self.put_u64(t.dims().len() as u64);
        for &d in t.dims() {
            self.put_u64(d as u64);
        }
        self.buf.reserve(4 * t.numel());
        for &v in t.data() {
            self.put_f32(v);
        }
    }

    /// Appends a named collection of tensors (a "state dict").
    pub fn put_state_dict(&mut self, entries: &[(String, Tensor)]) {
        self.put_u64(entries.len() as u64);
        for (name, t) in entries {
            self.put_bytes(name.as_bytes());
            self.put_tensor(t);
        }
    }

    /// Appends a random-generator state, resumable bit-exactly.
    pub fn put_rng(&mut self, s: &RngState) {
        for k in s.key {
            self.put_u32(k);
        }
        self.put_u64(s.counter);
        for b in s.buf {
            self.put_u32(b);
        }
        self.put_u64(s.index as u64);
        match s.spare_normal {
            Some(z) => {
                self.put_u8(1);
                self.put_f32(z);
            }
            None => self.put_u8(0),
        }
    }
}

/// Reads little-endian primitives with bounds checking; every overrun is a
/// corruption error, never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "wanted {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a u64 and narrows it to usize, rejecting implausible sizes.
    pub fn get_len(&mut self, cap: usize) -> Result<usize> {
        let v = self.get_u64()?;
        let v = usize::try_from(v).map_err(|_| corrupt(format!("length {v} overflows usize")))?;
        if v > cap {
            return Err(corrupt(format!("implausible length {v} (cap {cap})")));
        }
        Ok(v)
    }

    /// Reads an f32 bit-exactly.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an f64 bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn take_utf8(&mut self, n: usize) -> Result<String> {
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| corrupt(format!("bad utf8: {e}")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(corrupt(format!("implausible string length {n}")));
        }
        self.take_utf8(n)
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_len(1 << 32)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a tensor written by [`ByteWriter::put_tensor`]. Rank is capped
    /// at 8 and element count at 2^28, and the data must be present before
    /// anything is allocated for it.
    pub fn get_tensor(&mut self) -> Result<Tensor> {
        let rank = self.get_len(8)?;
        let mut dims = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = self.get_len(MAX_NUMEL)?;
            numel = numel
                .checked_mul(d)
                .filter(|&n| n <= MAX_NUMEL)
                .ok_or_else(|| corrupt(format!("implausible tensor size {dims:?}x{d}")))?;
            dims.push(d);
        }
        let data = self
            .take(4 * numel)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Tensor::from_vec(&dims, data).map_err(corrupt)
    }

    /// Reads a state dict written by [`ByteWriter::put_state_dict`]: at
    /// most 2^20 entries, names at most 4096 bytes.
    pub fn get_state_dict(&mut self) -> Result<Vec<(String, Tensor)>> {
        let count = self.get_len(1 << 20)?;
        let mut out = Vec::with_capacity(count.min(self.remaining()));
        for _ in 0..count {
            let n = self.get_len(4096)?;
            let name = self.take_utf8(n)?;
            out.push((name, self.get_tensor()?));
        }
        Ok(out)
    }

    /// Reads a random-generator state written by [`ByteWriter::put_rng`].
    pub fn get_rng(&mut self) -> Result<RngState> {
        let mut key = [0u32; 8];
        for k in &mut key {
            *k = self.get_u32()?;
        }
        let counter = self.get_u64()?;
        let mut buf = [0u32; 16];
        for b in &mut buf {
            *b = self.get_u32()?;
        }
        let index = self.get_len(16)?;
        let spare_normal = match self.get_u8()? {
            0 => None,
            _ => Some(self.get_f32()?),
        };
        Ok(RngState {
            key,
            counter,
            buf,
            index,
            spare_normal,
        })
    }
}

// ---------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------

/// A decoded checkpoint: payload identity plus named sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Payload kind (e.g. `"search"`, `"batched"`, `"teacher"`).
    pub kind: String,
    /// Payload schema version, owned by the writer of `kind`.
    pub schema: u32,
    /// Named binary sections, in write order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Envelope {
    /// Creates an envelope for a payload kind and schema version.
    pub fn new(kind: &str, schema: u32) -> Self {
        Envelope {
            kind: kind.to_string(),
            schema,
            sections: Vec::new(),
        }
    }

    /// Appends a named section.
    pub fn push(&mut self, name: &str, bytes: Vec<u8>) {
        self.sections.push((name.to_string(), bytes));
    }

    /// Borrows a section's bytes by name.
    pub fn section(&self, name: &str) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| corrupt(format!("missing section {name:?}")))
    }

    /// Serializes header + checksummed body into one byte vector.
    ///
    /// The CRC covers *everything* after the checksum field — kind,
    /// schema, and sections alike — so a bit flip anywhere in the file is
    /// detected (flips in magic/format/crc themselves fail their own
    /// checks).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.put_str(&self.kind);
        body.put_u32(self.schema);
        body.put_u32(self.sections.len() as u32);
        for (name, bytes) in &self.sections {
            body.put_str(name);
            body.put_bytes(bytes);
        }
        let body = body.into_bytes();
        let mut out = ByteWriter::new();
        out.put_u32(MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_u64(body.len() as u64);
        out.put_u32(crc32(&body));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Decodes and verifies an encoded envelope.
    ///
    /// Magic, format version, body length, and CRC are all checked before
    /// any body field is interpreted; any mismatch is an [`is_corruption`]
    /// error.
    pub fn decode(bytes: &[u8]) -> Result<Envelope> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format = r.get_u32()?;
        if format != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported envelope format v{format} (expected v{FORMAT_VERSION})"
            )));
        }
        let body_len = r.get_len(1 << 34)?;
        let stored_crc = r.get_u32()?;
        if r.remaining() != body_len {
            return Err(corrupt(format!(
                "body length {body_len} promised, {} present",
                r.remaining()
            )));
        }
        let body = r.take(body_len)?;
        let actual_crc = crc32(body);
        if actual_crc != stored_crc {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let mut pr = ByteReader::new(body);
        let kind = pr.get_str()?;
        let schema = pr.get_u32()?;
        let count = pr.get_u32()? as usize;
        if count > 1 << 16 {
            return Err(corrupt(format!("implausible section count {count}")));
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name = pr.get_str()?;
            let bytes = pr.get_bytes()?;
            sections.push((name, bytes));
        }
        Ok(Envelope {
            kind,
            schema,
            sections,
        })
    }
}

/// The `.tmp` sibling a checkpoint is staged in before the atomic rename.
pub fn staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes an envelope to `path` atomically: stage into `<path>.tmp`,
/// flush + fsync, rename over the target. Readers either see the previous
/// snapshot or the complete new one — never a prefix.
pub fn save_atomic(path: &Path, envelope: &Envelope) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    let tmp = staging_path(path);
    let bytes = envelope.encode();
    let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
    f.write_all(&bytes).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| {
        // Never leave a stale staging file behind a failed publish.
        std::fs::remove_file(&tmp).ok();
        io_err(e)
    })
}

/// Loads and verifies an envelope, requiring the expected payload `kind`.
///
/// Schema compatibility is the caller's concern (the payload owner knows
/// which schema versions it can migrate); a *kind* mismatch is always
/// corruption from this layer's point of view.
pub fn load(path: &Path, kind: &str) -> Result<Envelope> {
    let bytes = std::fs::read(path).map_err(io_err)?;
    let env = Envelope::decode(&bytes)?;
    if env.kind != kind {
        return Err(corrupt(format!(
            "payload kind {:?} where {kind:?} was expected",
            env.kind
        )));
    }
    Ok(env)
}

// ---------------------------------------------------------------------
// Durability schedule, rotation, crash hooks, and fallback loading
// ---------------------------------------------------------------------

/// How a checkpointed run simulates a crash (test/CI hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Panic after checkpointing the target iteration: unwinds, so the
    /// manager's `Drop` flush runs (in-process `catch_unwind` tests).
    Panic,
    /// `process::abort` — SIGKILL-like, no unwinding, no `Drop` (CI
    /// resume-smoke uses this from a child process).
    Abort,
}

/// Checkpointing configuration for a search or fine-tuning run.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory snapshots are written into (created on demand).
    pub dir: std::path::PathBuf,
    /// Write a snapshot every `every` iterations (clamped to ≥ 1).
    pub every: usize,
    /// Resume from the newest valid snapshot in `dir`, when one exists
    /// and its config fingerprint matches.
    pub resume: bool,
    /// Snapshots retained on disk (older ones are rotated out; ≥ 1).
    pub keep: usize,
    /// Simulate a crash after checkpointing iteration `.0`.
    pub crash_after: Option<(usize, CrashKind)>,
}

impl CheckpointOptions {
    /// Checkpointing into `dir` with per-iteration granularity.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 1,
            resume: false,
            keep: 2,
            crash_after: None,
        }
    }

    /// Reads the crash hook from `GMORPH_CRASH_AFTER`.
    ///
    /// Accepts `"12"` (abort after iteration 12) or `"12:panic"`. Returns
    /// `None` when unset or unparseable.
    pub fn crash_after_from_env() -> Option<(usize, CrashKind)> {
        let raw = std::env::var("GMORPH_CRASH_AFTER").ok()?;
        let (iter, kind) = match raw.split_once(':') {
            Some((n, "panic")) => (n, CrashKind::Panic),
            Some((n, _)) => (n, CrashKind::Abort),
            None => (raw.as_str(), CrashKind::Abort),
        };
        iter.trim().parse::<usize>().ok().map(|i| (i, kind))
    }

    /// Executes the crash hook when `iter` is the configured point.
    pub fn maybe_crash(&self, iter: usize) {
        if let Some((at, kind)) = self.crash_after {
            if iter == at {
                match kind {
                    CrashKind::Panic => {
                        panic!("GMORPH_CRASH_AFTER: simulated crash at iteration {iter}")
                    }
                    CrashKind::Abort => {
                        eprintln!("GMORPH_CRASH_AFTER: aborting at iteration {iter}");
                        std::process::abort();
                    }
                }
            }
        }
    }
}

/// Writes snapshots on a durability schedule with rotation.
///
/// `tick` is called once per completed iteration (or round of iterations)
/// with the fresh snapshot; it writes to disk every `every` iterations and
/// keeps the latest snapshot *pending* in between. `Drop` flushes the
/// pending snapshot — and `Drop` runs during panic unwinding, so a
/// panicking run loses zero completed iterations. (An aborted process skips `Drop`; its loss is
/// bounded by `every`.)
#[derive(Debug)]
pub struct CheckpointManager {
    dir: std::path::PathBuf,
    prefix: &'static str,
    every: usize,
    keep: usize,
    pending: Option<(usize, Envelope)>,
    on_disk: Vec<usize>,
}

impl CheckpointManager {
    /// Creates a manager writing `prefix-NNNNNN.gmck` files under
    /// `opts.dir`.
    pub fn new(opts: &CheckpointOptions, prefix: &'static str) -> Self {
        CheckpointManager {
            dir: opts.dir.clone(),
            prefix,
            every: opts.every.max(1),
            keep: opts.keep.max(1),
            pending: None,
            on_disk: Vec::new(),
        }
    }

    fn path_for(&self, iter: usize) -> std::path::PathBuf {
        self.dir.join(format!("{}-{iter:06}.gmck", self.prefix))
    }

    /// Accepts the snapshot taken after completing `iters` (one iteration,
    /// or one search round of several); writes it out, named after the
    /// last iteration, when any of them hits the durability schedule.
    pub fn tick(&mut self, iters: std::ops::RangeInclusive<usize>, env: Envelope) -> Result<()> {
        let due = iters.clone().any(|i| i.is_multiple_of(self.every));
        self.pending = Some((*iters.end(), env));
        if due {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the pending snapshot (if any) to disk atomically and rotates
    /// old snapshots out.
    pub fn flush(&mut self) -> Result<()> {
        let Some((iter, env)) = self.pending.take() else {
            return Ok(());
        };
        let _span = gmorph_telemetry::span!("checkpoint.write_span", iter = iter);
        let path = self.path_for(iter);
        save_atomic(&path, &env)?;
        gmorph_telemetry::counter!("checkpoint.write");
        gmorph_telemetry::point!(
            "checkpoint.written",
            iter = iter,
            path = path.display().to_string().as_str()
        );
        self.on_disk.push(iter);
        while self.on_disk.len() > self.keep {
            let old = self.on_disk.remove(0);
            std::fs::remove_file(self.path_for(old)).ok();
        }
        Ok(())
    }
}

impl Drop for CheckpointManager {
    fn drop(&mut self) {
        // Flush runs during panic unwinding too; never double-panic.
        let _ = self.flush();
    }
}

/// Scans `dir` for `prefix-NNNNNN.gmck` snapshots, newest first.
///
/// Leftover `.tmp` staging files never match the pattern, so a crash
/// mid-write is invisible here by construction.
pub fn snapshot_files(dir: &Path, prefix: &str) -> Vec<(usize, std::path::PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(usize, std::path::PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let rest = name
                .strip_prefix(prefix)?
                .strip_prefix('-')?
                .strip_suffix(".gmck")?;
            Some((rest.parse::<usize>().ok()?, e.path()))
        })
        .collect();
    found.sort_by_key(|e| std::cmp::Reverse(e.0));
    found
}

/// Loads the newest valid snapshot envelope of `kind` from `dir`.
///
/// Corrupt or unreadable snapshots are skipped (each logging a
/// `checkpoint.corrupt` telemetry event) and the next-newest is tried;
/// `Ok(None)` means no valid snapshot exists — callers start clean.
pub fn load_latest(dir: &Path, prefix: &str, kind: &str) -> Result<Option<Envelope>> {
    for (iter, path) in snapshot_files(dir, prefix) {
        match load(&path, kind) {
            Ok(env) => {
                gmorph_telemetry::counter!("checkpoint.load");
                gmorph_telemetry::point!(
                    "checkpoint.loaded",
                    iter = iter,
                    path = path.display().to_string().as_str()
                );
                return Ok(Some(env));
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
    use crate::rng::Rng;
    use proptest::prelude::*;

    fn sample() -> Envelope {
        let mut e = Envelope::new("test", 3);
        e.push("alpha", vec![1, 2, 3, 4]);
        e.push("beta", Vec::new());
        e.push("gamma", (0..=255u8).collect());
        e
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn byte_codec_roundtrips_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(f32::NAN);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_bytes(&[9, 9, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), vec![9, 9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let mut w = ByteWriter::new();
        w.put_tensor(&t);
        w.put_tensor(&Tensor::full(&[], f32::NAN));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_tensor().unwrap(), t);
        let nan = r.get_tensor().unwrap();
        assert_eq!(
            (nan.dims(), nan.data()[0].to_bits()),
            (&[][..], f32::NAN.to_bits())
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = Rng::new(1);
        let entries = vec![
            (
                "layer0.weight".to_string(),
                Tensor::randn(&[4, 4], 1.0, &mut rng),
            ),
            (
                "layer0.bias".to_string(),
                Tensor::randn(&[4], 1.0, &mut rng),
            ),
            ("scalar".to_string(), Tensor::full(&[], 7.0)),
        ];
        let mut w = ByteWriter::new();
        w.put_state_dict(&entries);
        assert_eq!(
            ByteReader::new(&w.into_bytes()).get_state_dict().unwrap(),
            entries
        );
    }

    #[test]
    fn rng_roundtrip_resumes_the_stream() {
        let mut rng = Rng::new(3);
        rng.normal();
        let mut w = ByteWriter::new();
        w.put_rng(&rng.state());
        let mut back = Rng::restore(&ByteReader::new(&w.into_bytes()).get_rng().unwrap());
        for _ in 0..40 {
            assert_eq!(back.normal().to_bits(), rng.normal().to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn arbitrary_tensor_roundtrip(
            dims in proptest::collection::vec(1usize..5, 0..4),
            seed in 0u64..1000,
        ) {
            let mut rng = Rng::new(seed);
            let t = Tensor::randn(&dims, 1.0, &mut rng);
            let mut w = ByteWriter::new();
            w.put_tensor(&t);
            prop_assert_eq!(ByteReader::new(&w.into_bytes()).get_tensor().unwrap(), t);
        }
    }

    #[test]
    fn reader_rejects_overruns() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(is_corruption(&r.get_u32().unwrap_err()));
    }

    #[test]
    fn envelope_roundtrips() {
        let e = sample();
        let bytes = e.encode();
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.section("gamma").unwrap().len(), 256);
        assert!(is_corruption(&back.section("missing").unwrap_err()));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Envelope::decode(&bytes[..cut]).unwrap_err();
            assert!(is_corruption(&err), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Either a decode error or (never) silent acceptance of
            // altered content.
            match Envelope::decode(&bad) {
                Err(e) => assert!(is_corruption(&e), "flip at {i}: {e:?}"),
                Ok(env) => panic!("flip at byte {i} went undetected: {env:?}"),
            }
        }
    }

    #[test]
    fn atomic_save_load_roundtrip_and_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("gmorph-ckpt-env-{}", std::process::id()));
        let path = dir.join("snap.gmck");
        let e = sample();
        save_atomic(&path, &e).unwrap();
        assert!(!staging_path(&path).exists(), "staging file left behind");
        let back = load(&path, "test").unwrap();
        assert_eq!(back, e);
        // Kind mismatch is corruption.
        assert!(is_corruption(&load(&path, "other").unwrap_err()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_env_parsing() {
        // No env poking from tests (parallel test runners share the
        // process env); exercise the parser via a direct call path by
        // checking maybe_crash is a no-op when unset.
        let opts = CheckpointOptions::new(std::env::temp_dir());
        opts.maybe_crash(5); // No crash configured: must return.
        let mut with = opts.clone();
        with.crash_after = Some((3, CrashKind::Panic));
        with.maybe_crash(2); // Wrong iteration: must return.
        let err = std::panic::catch_unwind(|| with.maybe_crash(3)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("simulated crash"), "{msg}");
    }
}
