//! Activation functions, softmax, and small reductions.
//!
//! Elementwise ops on large tensors and the row loops of the softmax family
//! run across the shared worker pool ([`crate::engine`]). Chunk boundaries
//! depend only on tensor shape and every element is written by exactly one
//! chunk, so results are bit-identical across thread counts.

use crate::engine;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Below this element count the per-call pool dispatch outweighs the win.
const PAR_MIN: usize = 1 << 16;

/// Elements per parallel chunk for flat elementwise traversals.
const CHUNK: usize = 1 << 13;

/// Applies `f` elementwise, on the pool when the tensor is large enough.
fn par_unary(x: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    if x.numel() < PAR_MIN {
        return x.map(&f);
    }
    let mut out = x.clone();
    engine::parallel_chunks_mut(out.data_mut(), CHUNK, |_ci, chunk| {
        for v in chunk.iter_mut() {
            *v = f(*v);
        }
    });
    out
}

/// Combines two same-shaped tensors elementwise, on the pool when large.
fn par_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
    if a.numel() < PAR_MIN || a.dims() != b.dims() {
        // Small tensors, and the error path for mismatched shapes.
        return a.zip(b, &f);
    }
    let mut out = a.clone();
    let bd = b.data();
    engine::parallel_chunks_mut(out.data_mut(), CHUNK, |ci, chunk| {
        let off = ci * CHUNK;
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = f(*v, bd[off + i]);
        }
    });
    Ok(out)
}

/// An activation a fused kernel epilogue can apply while writing output.
///
/// Each variant uses the *same scalar function* as the standalone
/// elementwise pass ([`relu_forward`] / [`gelu_forward`]), so fusing it
/// into a GEMM or convolution write loop is bit-identical to running the
/// separate pass afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Identity: the epilogue applies only the bias (if any).
    #[default]
    None,
    /// `max(x, 0)`.
    Relu,
    /// GELU, tanh approximation.
    Gelu,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::None => v,
            Activation::Relu => v.max(0.0),
            Activation::Gelu => gelu_scalar(v),
        }
    }
}

/// ReLU forward: `max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    par_unary(x, |v| v.max(0.0))
}

/// ReLU backward: gradient flows where the *input* was positive.
pub fn relu_backward(grad_out: &Tensor, input: &Tensor) -> Result<Tensor> {
    par_zip(grad_out, input, |g, x| if x > 0.0 { g } else { 0.0 })
}

/// GELU forward (tanh approximation, as used by ViT/BERT).
pub fn gelu_forward(x: &Tensor) -> Tensor {
    par_unary(x, gelu_scalar)
}

fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// GELU backward via the derivative of the tanh approximation.
pub fn gelu_backward(grad_out: &Tensor, input: &Tensor) -> Result<Tensor> {
    par_zip(grad_out, input, |g, x| {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        let d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
        g * d
    })
}

/// Row-wise softmax over the last dimension of a rank-2 tensor.
///
/// Numerically stabilized by subtracting the row max.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, ops::softmax_rows};
///
/// let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
/// let p = softmax_rows(&x).unwrap();
/// assert!((p.sum() - 1.0).abs() < 1e-5);
/// ```
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (n, c) = (x.dims()[0], x.dims()[1]);
    let mut out = x.clone();
    let do_row = |row: &mut [f32]| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    };
    if n * c < PAR_MIN {
        for row in out.data_mut().chunks_mut(c) {
            do_row(row);
        }
    } else {
        engine::parallel_chunks_mut(out.data_mut(), c, |_i, row| do_row(row));
    }
    Ok(out)
}

/// Backward pass of row-wise softmax given its output `p` and `dL/dp`.
///
/// Uses the Jacobian-vector product `dL/dx_j = p_j (g_j - Σ_i g_i p_i)`.
pub fn softmax_rows_backward(grad_out: &Tensor, output: &Tensor) -> Result<Tensor> {
    if grad_out.dims() != output.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_rows_backward",
            lhs: grad_out.shape().to_string(),
            rhs: output.shape().to_string(),
        });
    }
    let (n, c) = (output.dims()[0], output.dims()[1]);
    let mut gi = Tensor::zeros(output.dims());
    let do_row = |i: usize, row: &mut [f32]| {
        let p = &output.data()[i * c..(i + 1) * c];
        let g = &grad_out.data()[i * c..(i + 1) * c];
        let dot: f32 = p.iter().zip(g.iter()).map(|(a, b)| a * b).sum();
        for j in 0..c {
            row[j] = p[j] * (g[j] - dot);
        }
    };
    if n * c < PAR_MIN {
        for (i, row) in gi.data_mut().chunks_mut(c).enumerate() {
            do_row(i, row);
        }
    } else {
        engine::parallel_chunks_mut(gi.data_mut(), c, do_row);
    }
    Ok(gi)
}

/// Row-wise log-softmax over the last dimension of a rank-2 tensor.
pub fn log_softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "log_softmax_rows",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (n, c) = (x.dims()[0], x.dims()[1]);
    let mut out = x.clone();
    let do_row = |row: &mut [f32]| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|v| (v - m).exp()).sum::<f32>().ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    };
    if n * c < PAR_MIN {
        for row in out.data_mut().chunks_mut(c) {
            do_row(row);
        }
    } else {
        engine::parallel_chunks_mut(out.data_mut(), c, |_i, row| do_row(row));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn numerical_check(fwd: impl Fn(&Tensor) -> Tensor, bwd: impl Fn(&Tensor, &Tensor) -> Tensor) {
        let mut rng = Rng::new(5);
        let x = Tensor::randn(&[8], 1.0, &mut rng);
        let ones = Tensor::ones(&[8]);
        let ana = bwd(&ones, &x);
        let eps = 1e-3;
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (fwd(&xp).sum() - fwd(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - ana.data()[i]).abs() < 2e-2,
                "grad[{i}]: {num} vs {}",
                ana.data()[i]
            );
        }
    }

    #[test]
    fn relu_grad_checks() {
        numerical_check(relu_forward, |g, x| relu_backward(g, x).unwrap());
    }

    #[test]
    fn gelu_grad_checks() {
        numerical_check(gelu_forward, |g, x| gelu_backward(g, x).unwrap());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[4, 7], 3.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        for i in 0..4 {
            let s: f32 = p.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        for &v in p.data() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let shifted = x.map(|v| v + 100.0);
        let a = softmax_rows(&x).unwrap();
        let b = softmax_rows(&shifted).unwrap();
        for (p, q) in a.data().iter().zip(b.data().iter()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_grad_checks() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let g = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        let gi = softmax_rows_backward(&g, &p).unwrap();
        let eps = 1e-3;
        let loss = |t: &Tensor| -> f32 {
            softmax_rows(t)
                .unwrap()
                .data()
                .iter()
                .zip(g.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - gi.data()[i]).abs() < 1e-2,
                "{num} vs {}",
                gi.data()[i]
            );
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[3, 5], 2.0, &mut rng);
        let a = log_softmax_rows(&x).unwrap();
        let b = softmax_rows(&x).unwrap().map(|v| v.ln());
        for (p, q) in a.data().iter().zip(b.data().iter()) {
            assert!((p - q).abs() < 1e-4);
        }
    }
}
