//! Batched UNet `Module::infer` throughput: the f32 `cpu` backend against
//! the calibrated int8 `quant` backend, single GEMM thread, at the batch
//! sizes the runtime pool actually forms (1, 8, 32).
//!
//! Hand-rolled harness like the `kernels` bench: best-of-samples timing
//! with calibrated iteration counts, results to stdout and merged into
//! `BENCH_kernels.json` at the repo root (override with
//! `NEURFILL_BENCH_OUT`) under the `unet_infer` op without disturbing the
//! kernel rows. The `cpu` row per batch is the reference-less absolute
//! timing; the `quant` row's reference column is the `cpu` timing for the
//! same batch, so `speedup` is the per-core quantization win the PR's
//! acceptance bar reads (>= 2x at batch >= 8).

use neurfill_bench::records::{merge_into, output_path, print_table, BenchRecord};
use neurfill_nn::{calibrate, Module, QuantUNet, UNet, UNetConfig};
use neurfill_tensor::kernels::set_gemm_threads;
use neurfill_tensor::NdArray;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SAMPLES: usize = 7;
const TARGET_SAMPLE_NS: u128 = 20_000_000; // 20 ms

/// The production surrogate geometry: 4 extraction channels in, one
/// height plane out, base 8, depth 2, on 32x32 tile windows.
const IN_CHANNELS: usize = 4;
const WINDOW: usize = 32;

fn calibrate_iters(f: &mut impl FnMut()) -> usize {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    ((TARGET_SAMPLE_NS / once) as usize).clamp(1, 1_000_000)
}

fn sample_ns(f: &mut impl FnMut(), iters: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Times two implementations with interleaved samples (see the `kernels`
/// bench) so machine-wide noise hits both columns alike.
fn time_pair_ns(mut reference: impl FnMut(), mut optimized: impl FnMut()) -> (f64, f64) {
    let ref_iters = calibrate_iters(&mut reference);
    let opt_iters = calibrate_iters(&mut optimized);
    let (mut best_ref, mut best_opt) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        best_ref = best_ref.min(sample_ns(&mut reference, ref_iters));
        best_opt = best_opt.min(sample_ns(&mut optimized, opt_iters));
    }
    (best_ref, best_opt)
}

fn random_input(rng: &mut StdRng, batch: usize) -> NdArray {
    let len = batch * IN_CHANNELS * WINDOW * WINDOW;
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    NdArray::from_vec(data, &[batch, IN_CHANNELS, WINDOW, WINDOW]).unwrap()
}

fn main() {
    // Single GEMM thread: the pool pins per-worker inference to one core,
    // so the per-core ratio is what the acceptance bar certifies.
    set_gemm_threads(1);

    let mut rng = StdRng::seed_from_u64(0x1f8);
    let unet = UNet::new(
        UNetConfig { in_channels: IN_CHANNELS, out_channels: 1, base_channels: 8, depth: 2 },
        &mut rng,
    );
    // Exercise batch-norm running stats before freezing, as training would.
    let warm = random_input(&mut rng, 4);
    for _ in 0..5 {
        unet.forward(&neurfill_tensor::Tensor::constant(warm.clone())).unwrap();
    }
    unet.set_training(false);

    let cal_inputs: Vec<NdArray> = (0..8).map(|_| random_input(&mut rng, 1)).collect();
    let scales = calibrate(&unet, &cal_inputs).unwrap();
    let quant = QuantUNet::compile(&unet, &scales).unwrap();

    let mut rows = Vec::new();
    for batch in [1usize, 8, 32] {
        let input = random_input(&mut rng, batch);
        let (f32_ns, quant_ns) = time_pair_ns(
            || {
                std::hint::black_box(unet.infer(&input).unwrap());
            },
            || {
                std::hint::black_box(quant.infer(&input).unwrap());
            },
        );
        let shape = format!("batch{batch}_{WINDOW}x{WINDOW}");
        rows.push(BenchRecord {
            op: "unet_infer".to_string(),
            shape: shape.clone(),
            backend: "cpu".to_string(),
            ns: f32_ns,
            reference_ns: None,
        });
        rows.push(BenchRecord {
            op: "unet_infer".to_string(),
            shape,
            backend: "quant".to_string(),
            ns: quant_ns,
            reference_ns: Some(f32_ns),
        });
    }

    print_table(&rows);
    let path = output_path(env!("CARGO_MANIFEST_DIR"), "BENCH_kernels.json");
    match merge_into(&path, &["unet_infer"], &rows) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
