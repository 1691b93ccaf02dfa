//! 2D convolution via im2col + GEMM, with full backward passes.
//!
//! Layout is NCHW throughout. The lowering mirrors what cuDNN/PyTorch do on
//! the GPU: each input window becomes a column, convolution becomes one GEMM
//! per sample, and the backward pass reuses the same columns.
//!
//! The batch dimension is dispatched across the shared worker pool
//! ([`crate::engine`]): samples are independent in the forward pass, and the
//! backward pass reduces per-sample `dW`/`db` contributions serially in
//! ascending sample order, keeping results bit-identical across thread
//! counts.

use crate::buffer;
use crate::engine;
use crate::gemm;
use crate::ops::Activation;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Convolution geometry: kernel size, stride, and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dGeom {
    /// Creates a geometry, validating that the kernel and stride are nonzero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeom::new",
                msg: format!("kernel ({kernel}) and stride ({stride}) must be nonzero"),
            });
        }
        Ok(Conv2dGeom {
            kernel,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input spatial size.
    ///
    /// Returns an error if the padded input is smaller than the kernel.
    pub fn out_size(&self, in_size: usize) -> Result<usize> {
        let padded = in_size + 2 * self.padding;
        if padded < self.kernel {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeom::out_size",
                msg: format!(
                    "input {in_size} + 2*{} smaller than kernel {}",
                    self.padding, self.kernel
                ),
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Lowers one `[C, H, W]` image into a `[C*K*K, OH*OW]` column matrix.
///
/// `col` must be zero-filled: padding positions are skipped, not written.
#[allow(clippy::too_many_arguments)]
fn im2col_single(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeom,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let k = geom.kernel;
    let ncols = oh * ow;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row_base = ((ch * k + ky) * k + kx) * ncols;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        col[row_base + oy * ow + ox] = data[(ch * h + iy) * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatters a `[C*K*K, OH*OW]` column matrix back into a `[C, H, W]` image,
/// accumulating overlapping contributions (the adjoint of im2col).
#[allow(clippy::too_many_arguments)]
fn col2im_single(
    col: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeom,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let k = geom.kernel;
    let ncols = oh * ow;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row_base = ((ch * k + ky) * k + kx) * ncols;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        out[(ch * h + iy) * w + ix as usize] += col[row_base + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Result of a forward convolution, retaining what backward needs.
#[derive(Debug, Clone)]
pub struct Conv2dForward {
    /// The `[N, C_out, OH, OW]` output.
    pub output: Tensor,
    /// Cached im2col matrices, one `[C_in*K*K, OH*OW]` per sample.
    pub cols: Vec<Tensor>,
    /// Output spatial height.
    pub oh: usize,
    /// Output spatial width.
    pub ow: usize,
}

/// Computes a forward 2D convolution.
///
/// - `input`: `[N, C_in, H, W]`
/// - `weight`: `[C_out, C_in, K, K]`
/// - `bias`: `[C_out]` or `None`
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, conv::{conv2d_forward, Conv2dGeom}};
///
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// let geom = Conv2dGeom::new(3, 1, 1).unwrap();
/// let y = conv2d_forward(&x, &w, None, geom).unwrap();
/// assert_eq!(y.output.dims(), &[1, 1, 3, 3]);
/// // Center pixel sees all nine ones.
/// assert_eq!(y.output.at(&[0, 0, 1, 1]).unwrap(), 9.0);
/// ```
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
) -> Result<Conv2dForward> {
    conv2d_forward_act(input, weight, bias, geom, Activation::None)
}

/// [`conv2d_forward`] with a fused epilogue: the activation is applied to
/// `v + bias` inside the per-channel output write loop instead of as a
/// separate elementwise pass over the output tensor.
///
/// Bit-identical to `conv2d_forward` followed by the corresponding
/// elementwise activation (the scalar sequence is the same).
pub fn conv2d_forward_act(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
    act: Activation,
) -> Result<Conv2dForward> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_forward input",
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_forward weight",
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    let (n, c_in, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (c_out, wc_in, k, k2) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    if wc_in != c_in || k != geom.kernel || k2 != geom.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward",
            lhs: input.shape().to_string(),
            rhs: weight.shape().to_string(),
        });
    }
    let oh = geom.out_size(h)?;
    let ow = geom.out_size(w)?;
    if let Some(b) = bias {
        if b.dims() != [c_out] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_forward bias",
                lhs: format!("[{c_out}]"),
                rhs: b.shape().to_string(),
            });
        }
    }
    let wmat = weight.reshape(&[c_out, c_in * k * k])?;

    if act != Activation::None {
        gmorph_telemetry::counter!("kernel.fused_dispatch");
    }
    let img_len = c_in * h * w;
    let out_len = c_out * oh * ow;

    // Each sample is independent: lower and multiply across the pool. The
    // per-sample GEMM runs inline on its worker (nested dispatch), so the
    // decomposition — and therefore the result — is thread-count-invariant.
    let per_sample = engine::parallel_map(n, |s| -> Result<(Vec<f32>, Tensor)> {
        let img = &input.data()[s * img_len..(s + 1) * img_len];
        // im2col skips padding positions, so the scratch must be zeroed.
        let mut col = buffer::take(c_in * k * k * oh * ow);
        im2col_single(img, c_in, h, w, geom, oh, ow, &mut col);
        let col_t = Tensor::from_vec(&[c_in * k * k, oh * ow], col)?;
        let mut y = gemm::matmul(&wmat, &col_t)?; // [c_out, oh*ow]
                                                  // Fused epilogue: bias-add and activation while writing each
                                                  // channel row, instead of separate passes over the output.
        if bias.is_some() || act != Activation::None {
            let ncols = oh * ow;
            let yd = y.data_mut();
            // Dispatch on the activation once, outside the element loop,
            // so each arm is a tight monomorphic pass.
            fn pass(yd: &mut [f32], ncols: usize, bias: Option<&Tensor>, f: impl Fn(f32) -> f32) {
                for (co, row) in yd.chunks_mut(ncols).enumerate() {
                    let bv = bias.map(|b| b.data()[co]).unwrap_or(0.0);
                    for v in row {
                        *v = f(*v + bv);
                    }
                }
            }
            match act {
                Activation::None => pass(yd, ncols, bias, |v| v),
                Activation::Relu => pass(yd, ncols, bias, |v| Activation::Relu.apply(v)),
                Activation::Gelu => pass(yd, ncols, bias, |v| Activation::Gelu.apply(v)),
            }
        }
        Ok((y.into_data(), col_t))
    });

    // The output is fully written sample by sample below, so its storage
    // can come from the pool without clearing.
    let mut out = Tensor::from_vec(&[n, c_out, oh, ow], buffer::take_uninit(n * out_len))?;
    let mut cols = Vec::with_capacity(n);
    for (s, sample) in per_sample.into_iter().enumerate() {
        let (y, col_t) = sample?;
        out.data_mut()[s * out_len..(s + 1) * out_len].copy_from_slice(&y);
        buffer::give(y);
        cols.push(col_t);
    }
    if let Some(start) = start {
        let bucket = |d: usize| d.max(1).next_power_of_two();
        gmorph_telemetry::counter!("conv.calls");
        gmorph_telemetry::hist!(
            &format!(
                "conv.us.n{}c{}k{}o{}",
                bucket(n),
                bucket(c_out),
                geom.kernel,
                bucket(oh * ow)
            ),
            start.elapsed().as_micros() as f64
        );
    }
    Ok(Conv2dForward {
        output: out,
        cols,
        oh,
        ow,
    })
}

/// Gradients produced by a convolution backward pass.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C_in, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, `[C_out, C_in, K, K]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[C_out]`.
    pub grad_bias: Tensor,
}

/// Computes the backward pass of [`conv2d_forward`].
///
/// `grad_output` must have shape `[N, C_out, OH, OW]`; `forward` is the value
/// returned by the forward pass on the same input, and `geom` must be the
/// geometry used there.
pub fn conv2d_backward_geom(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    forward: &Conv2dForward,
    geom: Conv2dGeom,
) -> Result<Conv2dGrads> {
    let (n, c_in, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (c_out, k) = (weight.dims()[0], weight.dims()[2]);
    let (oh, ow) = (forward.oh, forward.ow);
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: format!("[{n}, {c_out}, {oh}, {ow}]"),
            rhs: grad_output.shape().to_string(),
        });
    }
    let wmat = weight.reshape(&[c_out, c_in * k * k])?;

    let mut grad_weight = Tensor::zeros(&[c_out, c_in * k * k]);
    let mut grad_bias = Tensor::zeros(&[c_out]);

    let go_len = c_out * oh * ow;
    let gi_len = c_in * h * w;
    // grad_input is fully written sample by sample; pooled uncleared
    // storage is fine.
    let mut grad_input = Tensor::from_vec(&[n, c_in, h, w], buffer::take_uninit(n * gi_len))?;

    // Per-sample gradients are independent; compute them across the pool
    // and reduce serially afterwards in ascending sample order, so the
    // floating-point accumulation into dW / db has a fixed order no matter
    // how many threads ran the map.
    let per_sample = engine::parallel_map(n, |s| -> Result<(Tensor, Vec<f32>, Vec<f32>)> {
        let mut god = buffer::take_uninit(go_len);
        god.copy_from_slice(&grad_output.data()[s * go_len..(s + 1) * go_len]);
        let go = Tensor::from_vec(&[c_out, oh * ow], god)?;
        // dW contribution: dY · colᵀ.
        let gw = gemm::matmul_nt(&go, &forward.cols[s])?;
        // db contribution: row sums of dY.
        let mut gb = vec![0.0f32; c_out];
        for (co, g) in gb.iter_mut().enumerate() {
            *g = go.data()[co * oh * ow..(co + 1) * oh * ow].iter().sum();
        }
        // dX slice: dCol = Wᵀ · dY, scattered back through col2im.
        let gcol = gemm::matmul_tn(&wmat, &go)?;
        // col2im accumulates into the slice, so it must start zeroed.
        let mut gi = buffer::take(gi_len);
        col2im_single(gcol.data(), c_in, h, w, geom, oh, ow, &mut gi);
        buffer::recycle(gcol);
        buffer::recycle(go);
        Ok((gw, gb, gi))
    });

    for (s, sample) in per_sample.into_iter().enumerate() {
        let (gw, gb, gi) = sample?;
        grad_weight.add_assign(&gw)?;
        buffer::recycle(gw);
        for (acc, v) in grad_bias.data_mut().iter_mut().zip(gb.iter()) {
            *acc += v;
        }
        grad_input.data_mut()[s * gi_len..(s + 1) * gi_len].copy_from_slice(&gi);
        buffer::give(gi);
    }
    Ok(Conv2dGrads {
        grad_input,
        grad_weight: grad_weight.reshape(&[c_out, c_in, k, k])?,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Direct (non-lowered) convolution used as the reference.
    fn conv_ref(input: &Tensor, weight: &Tensor, geom: Conv2dGeom) -> Tensor {
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, _, k, _) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let oh = geom.out_size(h).unwrap();
        let ow = geom.out_size(w).unwrap();
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for s in 0..n {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * geom.stride + ky) as isize - geom.padding as isize;
                                    let ix =
                                        (ox * geom.stride + kx) as isize - geom.padding as isize;
                                    if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                        continue;
                                    }
                                    acc += input.at(&[s, ci, iy as usize, ix as usize]).unwrap()
                                        * weight.at(&[co, ci, ky, kx]).unwrap();
                                }
                            }
                        }
                        out.set(&[s, co, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = Rng::new(0);
        for &(stride, padding) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let geom = Conv2dGeom::new(3, stride, padding).unwrap();
            let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
            let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
            let fast = conv2d_forward(&x, &w, None, geom).unwrap().output;
            let slow = conv_ref(&x, &w, geom);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let geom = Conv2dGeom::new(1, 1, 0).unwrap();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(&[2], vec![1.5, -2.0]).unwrap();
        let y = conv2d_forward(&x, &w, Some(&b), geom).unwrap().output;
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]).unwrap(), -2.0);
    }

    #[test]
    fn out_size_math() {
        let g = Conv2dGeom::new(3, 1, 1).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 8);
        let g = Conv2dGeom::new(3, 2, 1).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 4);
        let g = Conv2dGeom::new(2, 2, 0).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 4);
        let g = Conv2dGeom::new(5, 1, 0).unwrap();
        assert!(g.out_size(3).is_err());
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(Conv2dGeom::new(0, 1, 0).is_err());
        assert!(Conv2dGeom::new(3, 0, 0).is_err());
    }

    #[test]
    fn forward_and_backward_identical_across_thread_counts() {
        let mut rng = Rng::new(11);
        let geom = Conv2dGeom::new(3, 1, 1).unwrap();
        let x = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.1, &mut rng);

        let run = || {
            let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
            let ones = Tensor::ones(fwd.output.dims());
            let grads = conv2d_backward_geom(&ones, &w, x.dims(), &fwd, geom).unwrap();
            (fwd.output, grads)
        };
        let (y1, g1) = crate::engine::with_thread_limit(1, run);
        let (y4, g4) = crate::engine::with_thread_limit(4, run);
        assert_eq!(y1.data(), y4.data(), "forward bit-identical");
        assert_eq!(g1.grad_input.data(), g4.grad_input.data());
        assert_eq!(g1.grad_weight.data(), g4.grad_weight.data());
        assert_eq!(g1.grad_bias.data(), g4.grad_bias.data());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::new(3);
        let geom = Conv2dGeom::new(3, 1, 1).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[3], 0.1, &mut rng);

        // Loss = sum(output); analytic gradients via backward with dY = 1.
        let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
        let ones = Tensor::ones(fwd.output.dims());
        let grads = conv2d_backward_geom(&ones, &w, x.dims(), &fwd, geom).unwrap();

        let eps = 1e-2f32;
        // Check a sample of weight coordinates numerically.
        for &flat in &[0usize, 5, 17, 31, 53] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let lp = conv2d_forward(&x, &wp, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&x, &wm, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[flat];
            assert!((num - ana).abs() < 0.05, "dW[{flat}]: {num} vs {ana}");
        }
        // Input gradient check.
        for &flat in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let lp = conv2d_forward(&xp, &w, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&xm, &w, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_input.data()[flat];
            assert!((num - ana).abs() < 0.05, "dX[{flat}]: {num} vs {ana}");
        }
        // Bias gradient is the number of output pixels per channel.
        let expect = (fwd.oh * fwd.ow) as f32;
        for &g in grads.grad_bias.data() {
            assert!((g - expect).abs() < 1e-3);
        }
    }
}
