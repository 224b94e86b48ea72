//! Certification harness for the quantized tensor backend (downstream
//! layer).
//!
//! This suite certifies the quantities a *user* of the flow actually
//! consumes under the `QuantCpu` backend: `S_plan` through the score-only
//! inference seam, the untouched f32 gradient path, and flow-level fill
//! totals / ΔH on designs A/B/C, each bit-deterministic across thread
//! counts.
//!
//! The tensor backend is process-global (it sits behind
//! `CmpNeuralNetwork::infer`), so every test that flips it holds
//! [`backend_lock`] and restores `Cpu` on drop — tests in this binary may
//! run concurrently.

use neurfill::extraction::{extract_layer_arrays, ExtractionConfig, NUM_CHANNELS};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::surrogate::SurrogateConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, Coefficients, HeightNorm};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{
    apply_fill, benchmark_designs, DesignKind, DesignSpec, DummySpec, FillPlan, Layout,
};
use neurfill_nn::calibrate;
use neurfill_nn::{TrainConfig, UNet, UNetConfig};
use neurfill_tensor::kernels::set_gemm_threads;
use neurfill_tensor::{set_backend, BackendKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes process-global backend/thread mutation within this binary
/// and restores the f32 `Cpu` backend and single-threaded GEMM when
/// dropped.
struct BackendLock(#[allow(dead_code)] MutexGuard<'static, ()>);

fn backend_lock() -> BackendLock {
    static LOCK: Mutex<()> = Mutex::new(());
    BackendLock(LOCK.lock().unwrap_or_else(PoisonError::into_inner))
}

impl Drop for BackendLock {
    fn drop(&mut self) {
        set_backend(BackendKind::Cpu);
        set_gemm_threads(1);
    }
}

/// Designs A/B/C of the paper's evaluation.
const DESIGNS: [(DesignKind, u64); 3] =
    [(DesignKind::CmpTest, 11), (DesignKind::Fpga, 12), (DesignKind::RiscV, 13)];

/// Process parameters with a radius-8 pad kernel.
fn wide_kernel_params() -> ProcessParams {
    ProcessParams { steps: 10, kernel_radius: 8, character_length: 3.0, ..ProcessParams::default() }
}

fn untrained_network() -> CmpNeuralNetwork {
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    CmpNeuralNetwork::new(
        unet,
        HeightNorm::default(),
        ExtractionConfig::default(),
        CmpNnConfig::default(),
    )
}

/// A mid-slack fill vector (30% of every window's capacity).
fn mid_fill(layout: &Layout) -> Vec<f64> {
    layout.slack_vector().into_iter().map(|s| 0.3 * s).collect()
}

/// Calibrates a network on the real extraction planes of mid-filled
/// designs A/B/C — the same distribution every quant certification below
/// scores, so the int8 activation rails are in-distribution.
fn with_abc_calibration(net: CmpNeuralNetwork, grid: usize) -> CmpNeuralNetwork {
    let spec = DummySpec::default();
    let mut samples = Vec::new();
    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, grid, grid, seed).generate();
        let mut plan = FillPlan::zeros(&layout);
        plan.as_mut_slice().copy_from_slice(&mid_fill(&layout));
        let filled = apply_fill(&layout, &plan, &spec);
        for l in 0..filled.num_layers() {
            let planes = extract_layer_arrays(&filled, l, net.extraction());
            let &[c, h, w] = planes.shape() else { unreachable!("extraction is rank 3") };
            samples.push(planes.reshape(&[1, c, h, w]).unwrap());
        }
    }
    let scales = calibrate(net.unet(), &samples).unwrap();
    net.with_calibration(scales)
}

/// `S_plan` through the score-only inference seam: the int8 `QuantCpu`
/// backend tracks the f32 score within 1e-3 relative on designs A/B/C
/// and is bit-deterministic across GEMM thread counts (stated bound:
/// |Δ| ≤ 1e-3 · (|S_cpu| + 1)).
#[test]
fn quant_backend_s_plan_tracks_f32_on_designs_abc() {
    let _guard = backend_lock();
    let net = with_abc_calibration(untrained_network(), 8);
    let sim = CmpSimulator::new(wide_kernel_params()).unwrap();
    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, 8, 8, seed).generate();
        let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
        let x = mid_fill(&layout);
        set_backend(BackendKind::Cpu);
        let cpu = net.planarity_score(&layout, &x, &coeffs).unwrap();
        set_backend(BackendKind::QuantCpu);
        let mut scores = Vec::new();
        for threads in [1usize, 8] {
            set_gemm_threads(threads);
            scores.push(net.planarity_score(&layout, &x, &coeffs).unwrap());
        }
        assert_eq!(
            scores[0].to_bits(),
            scores[1].to_bits(),
            "{kind:?}: quant S_plan depends on GEMM threads"
        );
        assert!(
            (cpu - scores[0]).abs() <= 1e-3 * (cpu.abs() + 1.0),
            "{kind:?}: quant S_plan drifted: cpu={cpu} quant={}",
            scores[0]
        );
    }
}

/// The gradient path is *defined* to stay on f32 autograd under every
/// backend — synthesis descends the same surface regardless of how
/// candidates are scored. Certify the strongest form: `planarity` (score
/// + gradient) under `QuantCpu` is bit-identical to `Cpu`.
#[test]
fn quant_backend_leaves_gradient_path_bit_identical() {
    let _guard = backend_lock();
    let net = with_abc_calibration(untrained_network(), 8);
    let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 5).generate();
    let sim = CmpSimulator::new(wide_kernel_params()).unwrap();
    let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
    let x = mid_fill(&layout);

    set_backend(BackendKind::Cpu);
    let cpu = net.planarity(&layout, &x, &coeffs).unwrap();
    set_backend(BackendKind::QuantCpu);
    let quant = net.planarity(&layout, &x, &coeffs).unwrap();
    assert_eq!(cpu.score.to_bits(), quant.score.to_bits(), "gradient-path score perturbed");
    for (i, (a, b)) in cpu.gradient.iter().zip(&quant.gradient).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "∇S_plan[{i}] perturbed by the quant backend");
    }
}

/// End-to-end flow on designs A/B/C with one shared trained + calibrated
/// network: the `QuantCpu` backend's synthesized fill amounts and
/// verified post-CMP ΔH track the f32 `Cpu` backend's, and the quant
/// flow is bit-deterministic across GEMM thread counts.
///
/// Stated tolerances (flow-level — the optimizer re-converges from
/// perturbed scores): total fill within 2% + 1 window-unit; per-design
/// ΔH within 5% + 0.5 nm.
#[test]
fn flow_fill_amounts_and_delta_h_agree_between_backends_on_designs_abc() {
    let _guard = backend_lock();
    let grid = 8;
    let base = FlowConfig {
        process: wide_kernel_params(),
        surrogate: SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            train: TrainConfig {
                epochs: 2,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 1.0,
                ..TrainConfig::default()
            },
            num_layouts: 6,
            datagen: DataGenConfig { rows: grid, cols: grid, seed: 1, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        },
        beta_time_s: 60.0,
        seed: 1,
        ..FlowConfig::default()
    };
    // Train once on the f32 backend, then calibrate the shared network.
    set_backend(BackendKind::Cpu);
    set_gemm_threads(1);
    let trained = FillingFlow::prepare(&benchmark_designs(grid, grid, 1), base.clone()).unwrap();
    let shared = trained.shared_network();
    drop(trained);
    let owned = Rc::try_unwrap(shared).expect("network is uniquely held after the flow drops");
    let network = Rc::new(with_abc_calibration(owned, grid));

    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, grid, grid, seed).generate();
        let mut results = Vec::new();
        for backend in [BackendKind::Cpu, BackendKind::QuantCpu] {
            set_backend(backend);
            set_gemm_threads(1);
            let config = FlowConfig { backend, ..base.clone() };
            let flow = FillingFlow::with_network(Rc::clone(&network), config).unwrap();
            let result = flow.run(&layout).unwrap();
            if backend.is_quant() {
                // Quant is bit-deterministic across GEMM thread counts.
                set_gemm_threads(8);
                let redo = flow.run(&layout).unwrap();
                assert_eq!(
                    result.plan.as_slice(),
                    redo.plan.as_slice(),
                    "{kind:?}: quant flow depends on GEMM threads"
                );
            }
            results.push(result);
        }
        let (cpu, quant) = (&results[0], &results[1]);
        let (tc, tq) = (cpu.plan.total(), quant.plan.total());
        assert!((tc - tq).abs() <= 0.02 * tc + 1.0, "{kind:?}: fill total drifted: {tc} vs {tq}");
        let (hc, hq) = (cpu.scored.delta_h_angstrom, quant.scored.delta_h_angstrom);
        assert!((hc - hq).abs() <= 0.05 * hc.abs() + 0.5, "{kind:?}: ΔH drifted: {hc} vs {hq}");
    }
}
