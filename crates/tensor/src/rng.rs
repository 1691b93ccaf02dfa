//! Deterministic random number utilities.
//!
//! Every stochastic component of the reproduction (weight init, data
//! synthesis, mutation sampling, simulated annealing) draws from an [`Rng`]
//! seeded from the experiment configuration, so runs are exactly
//! reproducible. The paper notes its search "introduces randomness" and
//! recommends multiple runs; we make the randomness controllable instead.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A seeded random number generator with the distributions we need.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::rng::Rng;
///
/// let mut a = Rng::new(1);
/// let mut b = Rng::new(1);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f32>,
}

/// A complete, serializable snapshot of an [`Rng`]'s state.
///
/// Restoring from a snapshot continues the random stream bit-exactly —
/// including the Box-Muller spare normal, which lives outside the
/// underlying ChaCha12 generator. This is what makes checkpoint/resume of
/// the search deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RngState {
    /// ChaCha12 key words.
    pub key: [u32; 8],
    /// ChaCha12 64-bit block counter.
    pub counter: u64,
    /// Buffered keystream block.
    pub buf: [u32; 16],
    /// Read cursor into `buf` (16 = exhausted).
    pub index: usize,
    /// Cached second Box-Muller output, if any.
    pub spare_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each subsystem (data, init, search) its own stream so
    /// that adding draws in one place does not perturb the others.
    pub fn fork(&mut self, salt: u64) -> Rng {
        let seed = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(seed)
    }

    /// Uniform sample from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.inner.gen::<f32>()
    }

    /// Uniform sample from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via the Box-Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box-Muller: two uniforms -> two independent normals.
        let u1: f32 = self.inner.gen::<f32>().max(1e-12);
        let u2: f32 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn coin(&mut self, p: f32) -> bool {
        self.inner.gen::<f32>() < p
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Captures the full generator state for checkpointing.
    pub fn state(&self) -> RngState {
        let (key, counter, buf, index) = self.inner.state();
        RngState {
            key,
            counter,
            buf,
            index,
            spare_normal: self.spare_normal,
        }
    }

    /// Rebuilds a generator that continues the stream of [`Rng::state`]
    /// bit-exactly.
    pub fn restore(state: &RngState) -> Self {
        Rng {
            inner: StdRng::from_state(state.key, state.counter, state.buf, state.index),
            spare_normal: state.spare_normal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..100 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.below(17), b.below(17));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 8);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = Rng::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.below(1_000_000), c2.below(1_000_000));
    }

    #[test]
    fn uniform_range() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(11);
        let xs: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(4);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_snapshot_resumes_bit_exactly() {
        let mut rng = Rng::new(1234);
        // Advance through a mix of draws, leaving a spare normal cached.
        for _ in 0..37 {
            rng.normal();
            rng.below(100);
            rng.uniform(-1.0, 1.0);
        }
        // 37 normal() calls so far: odd count leaves a cached spare.
        let snap = rng.state();
        assert!(snap.spare_normal.is_some());
        let mut resumed = Rng::restore(&snap);
        for _ in 0..200 {
            assert_eq!(rng.normal().to_bits(), resumed.normal().to_bits());
            assert_eq!(rng.below(97), resumed.below(97));
            assert_eq!(
                rng.uniform(0.0, 5.0).to_bits(),
                resumed.uniform(0.0, 5.0).to_bits()
            );
            assert_eq!(rng.coin(0.4), resumed.coin(0.4));
        }
        let mut v1: Vec<usize> = (0..20).collect();
        let mut v2 = v1.clone();
        rng.shuffle(&mut v1);
        resumed.shuffle(&mut v2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn coin_probability() {
        let mut rng = Rng::new(21);
        let heads = (0..10_000).filter(|_| rng.coin(0.3)).count();
        let p = heads as f32 / 10_000.0;
        assert!((p - 0.3).abs() < 0.03, "p {p}");
    }
}
