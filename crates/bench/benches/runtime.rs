//! Criterion benchmark of window-batched surrogate inference — how the
//! runtime verifies a job: one multi-sample forward through the inference
//! fast path versus the same windows predicted one at a time through the
//! standard per-window forward.

use criterion::{criterion_group, criterion_main, Criterion};
use neurfill::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{Module, UNet, UNetConfig};
use rand::SeedableRng;

/// Batch size the acceptance criterion is stated at.
const BATCH: usize = 8;

fn network() -> CmpNeuralNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 8, depth: 2 },
        &mut rng,
    );
    let net = CmpNeuralNetwork::new(
        unet,
        HeightNorm::default(),
        ExtractionConfig::default(),
        CmpNnConfig::default(),
    );
    net.unet().set_training(false);
    net
}

/// `BATCH` windows drawn from the benchmark designs.
fn windows() -> Vec<(Layout, usize)> {
    let kinds = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];
    let mut windows = Vec::with_capacity(BATCH);
    for seed in 0.. {
        let layout = DesignSpec::new(kinds[seed as usize % kinds.len()], 16, 16, seed).generate();
        for layer in 0..layout.num_layers() {
            if windows.len() == BATCH {
                return windows;
            }
            windows.push((layout.clone(), layer));
        }
    }
    unreachable!("loop returns once BATCH windows are collected")
}

fn bench_batched_vs_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_inference");
    group.sample_size(10);
    let net = network();
    let windows = windows();
    let samples: Vec<_> =
        windows.iter().map(|(l, layer)| net.extract_window_sample(l, *layer).unwrap()).collect();

    // Baseline: one standard forward per window.
    group.bench_function(format!("single_window_x{BATCH}"), |b| {
        b.iter(|| {
            for (layout, layer) in &windows {
                std::hint::black_box(
                    net.predict_layer_heights(std::hint::black_box(layout), *layer).unwrap(),
                );
            }
        });
    });
    // The runtime path: the same windows coalesced into one multi-sample
    // forward through the inference fast path.
    group.bench_function(format!("batched_{BATCH}"), |b| {
        b.iter(|| {
            std::hint::black_box(net.predict_heights_batch(std::hint::black_box(&samples)).unwrap());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batched_vs_single);
criterion_main!(benches);
