//! Tensor backends: the pluggable seam behind the inference fast path.
//!
//! Every op `Module::infer` hits — GEMM, im2col convolution, transposed
//! convolution, the fused batch-norm affine, ReLU, reductions — goes
//! through a [`TensorBackend`] so the serving hot loop can swap kernel
//! families without touching the layers:
//!
//! * [`BackendKind::Cpu`] (the default) — the reference scalar/AVX2 f32
//!   kernels this crate has always used. Outputs are byte-identical to
//!   every pre-seam release; all bitwise reproducibility contracts are
//!   stated against this backend.
//! * [`BackendKind::QuantCpu`] — an inference-only backend. Its f32 ops
//!   (pooling, concat, transposed convolution, batch-norm) delegate to
//!   `Cpu` unchanged; its `kind` signals the network layer to run the
//!   certified int8 weight-quantized convolution engine (see
//!   [`crate::quant`]) compiled from offline calibration scales. The
//!   quantized path is certified against `Cpu` by the
//!   downstream-equivalence suite and is bit-deterministic across thread
//!   counts (integer accumulation is exact).
//!
//! The backend reaches per-call-free code (layer `infer` methods) through
//! a process-wide global; structured callers (the
//! runtime pool, the serve front-ends) carry the kind in their configs and
//! install the global at startup.

use crate::array::NdArray;
use crate::error::{Result, TensorError};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which inference kernels the process runs: the f32 reference backend
/// (default) or the certified int8 quantized backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The f32 scalar/AVX2 reference kernels — byte-identical to pre-seam
    /// outputs at every thread count.
    #[default]
    Cpu,
    /// Inference-only int8 weight quantization with exact integer
    /// accumulation, certified against `Cpu` to documented tolerances.
    /// Requires calibration scales in the model bundle.
    QuantCpu,
}

impl BackendKind {
    /// `true` for [`BackendKind::QuantCpu`].
    #[must_use]
    pub fn is_quant(self) -> bool {
        matches!(self, Self::QuantCpu)
    }

    /// The CLI spelling of the backend (`"cpu"` / `"quant"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Cpu => "cpu",
            Self::QuantCpu => "quant",
        }
    }

    /// Parses the `--backend` flag value (`cpu` | `quant`).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted values.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "cpu" => Ok(Self::Cpu),
            "quant" => Ok(Self::QuantCpu),
            other => Err(format!("unknown backend '{other}' (expected 'cpu' or 'quant')")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process-wide backend consulted by layer `infer` paths
/// (0 = Cpu, 1 = QuantCpu).
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide tensor backend consulted by inference code
/// without a per-call backend argument (layer `infer` methods and
/// everything above them). The default is [`BackendKind::Cpu`].
pub fn set_backend(kind: BackendKind) {
    BACKEND.store(kind.is_quant().into(), Ordering::Relaxed);
}

/// The process-wide backend last set by [`set_backend`] (Cpu until set
/// otherwise).
#[must_use]
pub fn backend() -> BackendKind {
    if BACKEND.load(Ordering::Relaxed) == 1 {
        BackendKind::QuantCpu
    } else {
        BackendKind::Cpu
    }
}

/// The ops `Module::infer` actually hits, as an object-safe contract.
///
/// Implementations must keep the *reference arithmetic* of each op: the
/// `Cpu` backend is the definition, and any other backend is certified
/// against it by the equivalence suites rather than trusted to match
/// bitwise. The batch-norm op in particular must evaluate
/// `((x − m) / d) · g + b` with `d = (var + eps).sqrt()` in exactly that
/// association — it is a bitwise contract of the fused inference path.
pub trait TensorBackend: Send + Sync + std::fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// `out = A·B` for row-major `A [m,k]`, `B [k,n]`, `out [m,n]`.
    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Forward im2col convolution, `input [N,C,H,W] ⊛ weight [O,C,kh,kw]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    fn conv2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray>;

    /// Forward transposed convolution, `input [N,C,H,W]`, `weight [C,O,kh,kw]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    fn conv_transpose2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray>;

    /// In-place ReLU (`x = max(x, 0)` per element — the same kernel
    /// `Tensor::relu` applies).
    fn relu_inplace(&self, x: &mut NdArray);

    /// In-place fused evaluation-mode batch normalization over an NCHW
    /// array: per channel `c`, `x = ((x − mean[c]) / d) · gamma[c] +
    /// beta[c]` with `d = (var[c] + eps).sqrt()`.
    ///
    /// # Errors
    ///
    /// Returns an error when `x` is not rank 4 or the per-channel slices
    /// disagree with its channel extent.
    fn batchnorm_inplace(
        &self,
        x: &mut NdArray,
        mean: &[f32],
        var: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> Result<()>;

    /// Sum of all elements, accumulated in iteration order (the reference
    /// reduce).
    fn reduce_sum(&self, x: &NdArray) -> f32;
}

/// The reference f32 backend: delegates to the crate's existing
/// scalar/AVX2 kernels, so outputs are byte-identical to pre-seam code.
#[derive(Debug)]
pub struct CpuBackend;

impl TensorBackend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        crate::kernels::gemm(a, b, out, m, k, n);
    }

    fn conv2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray> {
        crate::ops::conv::conv2d_forward(input, weight, bias, stride, padding)
    }

    fn conv_transpose2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray> {
        crate::ops::conv::conv_transpose2d_forward(input, weight, bias, stride, padding)
    }

    fn relu_inplace(&self, x: &mut NdArray) {
        x.map_inplace(|v| v.max(0.0));
    }

    fn batchnorm_inplace(
        &self,
        x: &mut NdArray,
        mean: &[f32],
        var: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> Result<()> {
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.rank(),
                op: "batchnorm_inplace",
            });
        }
        let channels = x.shape()[1];
        if [mean.len(), var.len(), gamma.len(), beta.len()] != [channels; 4] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![channels],
                rhs: vec![mean.len(), var.len(), gamma.len(), beta.len()],
                op: "batchnorm_inplace",
            });
        }
        let per = x.shape()[2] * x.shape()[3];
        for sample in x.as_mut_slice().chunks_mut(channels * per) {
            for (c, block) in sample.chunks_mut(per).enumerate() {
                let m = mean[c];
                let d = (var[c] + eps).sqrt();
                let (gc, bc) = (gamma[c], beta[c]);
                for v in block {
                    *v = (*v - m) / d * gc + bc;
                }
            }
        }
        Ok(())
    }

    fn reduce_sum(&self, x: &NdArray) -> f32 {
        x.as_slice().iter().sum()
    }
}

/// The quantized backend. All f32 ops delegate to [`CpuBackend`]
/// unchanged; `kind` returning [`BackendKind::QuantCpu`] is what routes
/// network-level inference onto the compiled int8 convolution engine
/// (which lives above this seam because it needs per-layer calibration
/// state the op contract deliberately does not carry).
#[derive(Debug)]
pub struct QuantCpuBackend;

impl TensorBackend for QuantCpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::QuantCpu
    }

    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        CpuBackend.gemm(a, b, out, m, k, n);
    }

    fn conv2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray> {
        CpuBackend.conv2d(input, weight, bias, stride, padding)
    }

    fn conv_transpose2d(
        &self,
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> Result<NdArray> {
        CpuBackend.conv_transpose2d(input, weight, bias, stride, padding)
    }

    fn relu_inplace(&self, x: &mut NdArray) {
        CpuBackend.relu_inplace(x);
    }

    fn batchnorm_inplace(
        &self,
        x: &mut NdArray,
        mean: &[f32],
        var: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> Result<()> {
        CpuBackend.batchnorm_inplace(x, mean, var, gamma, beta, eps)
    }

    fn reduce_sum(&self, x: &NdArray) -> f32 {
        CpuBackend.reduce_sum(x)
    }
}

/// The active backend implementation for the process-wide [`backend`]
/// kind.
#[must_use]
pub fn active() -> &'static dyn TensorBackend {
    match backend() {
        BackendKind::Cpu => &CpuBackend,
        BackendKind::QuantCpu => &QuantCpuBackend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(BackendKind::parse("cpu").unwrap(), BackendKind::Cpu);
        assert_eq!(BackendKind::parse("quant").unwrap(), BackendKind::QuantCpu);
        assert!(BackendKind::parse("Quant").is_err());
        for kind in [BackendKind::Cpu, BackendKind::QuantCpu] {
            assert_eq!(BackendKind::parse(kind.as_str()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.as_str());
        }
    }

    #[test]
    fn default_is_cpu() {
        assert_eq!(BackendKind::default(), BackendKind::Cpu);
        assert!(!BackendKind::Cpu.is_quant());
        assert!(BackendKind::QuantCpu.is_quant());
    }

    #[test]
    fn cpu_backend_matches_reference_kernels() {
        let x = NdArray::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.37).sin());
        let w = NdArray::from_fn(&[3, 2, 3, 3], |i| (i as f32 * 0.11).cos());
        let b = NdArray::from_slice(&[0.1, -0.2, 0.3]);
        let seam = CpuBackend.conv2d(&x, &w, Some(&b), 1, 1).unwrap();
        let reference = crate::ops::conv::conv2d_forward(&x, &w, Some(&b), 1, 1).unwrap();
        assert_eq!(seam, reference);
    }

    #[test]
    fn batchnorm_inplace_matches_expression() {
        let mut x = NdArray::from_fn(&[2, 2, 2, 2], |i| i as f32 * 0.5 - 2.0);
        let want = {
            let mut y = x.clone();
            let (mean, var, gamma, beta, eps) =
                ([0.5f32, -1.0], [2.0f32, 0.5], [1.5f32, 0.7], [0.0f32, 0.3], 1e-5f32);
            let per = 4;
            for sample in y.as_mut_slice().chunks_mut(2 * per) {
                for (c, block) in sample.chunks_mut(per).enumerate() {
                    let d = (var[c] + eps).sqrt();
                    for v in block {
                        *v = (*v - mean[c]) / d * gamma[c] + beta[c];
                    }
                }
            }
            y
        };
        CpuBackend
            .batchnorm_inplace(&mut x, &[0.5, -1.0], &[2.0, 0.5], &[1.5, 0.7], &[0.0, 0.3], 1e-5)
            .unwrap();
        assert_eq!(x, want);
    }

    #[test]
    fn quant_backend_delegates_f32_ops_bitwise() {
        let x = NdArray::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.53).sin());
        let w = NdArray::from_fn(&[2, 2, 2, 2], |i| (i as f32 * 0.29).cos());
        let cpu = CpuBackend.conv_transpose2d(&x, &w, None, 2, 0).unwrap();
        let quant = QuantCpuBackend.conv_transpose2d(&x, &w, None, 2, 0).unwrap();
        assert_eq!(cpu, quant);
    }

    #[test]
    fn global_backend_switches_active_impl() {
        // Restore the default even on panic-free exit: other tests in this
        // binary read the global.
        set_backend(BackendKind::QuantCpu);
        assert_eq!(backend(), BackendKind::QuantCpu);
        assert_eq!(active().kind(), BackendKind::QuantCpu);
        set_backend(BackendKind::Cpu);
        assert_eq!(backend(), BackendKind::Cpu);
        assert_eq!(active().kind(), BackendKind::Cpu);
    }
}
