//! Streaming tile synthesis over the runtime pool: the merged chip plan
//! must be byte-identical across worker counts and in-flight caps, with
//! the number of resident tiles bounded by the cap.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_chip::{synthesize_tiles, ChipFillPlan, TileJobOptions};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, FullChipSpec, Tiling};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_obs::Telemetry;
use neurfill_optim::SqpConfig;
use neurfill_runtime::{ModelBundle, PoolOptions, RuntimePool};
use rand::SeedableRng;
use std::sync::Arc;

fn bundle() -> Arc<ModelBundle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    let net =
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default());
    Arc::new(ModelBundle::from_network(&net).unwrap())
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        process: ProcessParams::fast(),
        neurfill: NeurFillConfig {
            sqp: SqpConfig { max_iterations: 8, ..SqpConfig::default() },
            ..NeurFillConfig::default()
        },
        beta_time_s: 60.0,
        ..FlowConfig::default()
    }
}

fn synthesize(workers: usize, max_in_flight: usize, telemetry: Telemetry) -> (ChipFillPlan, usize) {
    let design = FullChipSpec::new(DesignKind::Fpga, 16, 16, 9).build();
    let tiling = Tiling::square(16, 16, 8, ProcessParams::fast().kernel_radius);
    let pool =
        RuntimePool::new(bundle(), flow_config(), PoolOptions { workers, ..PoolOptions::default() })
            .unwrap();
    let out = synthesize_tiles(
        &pool,
        &design,
        &tiling,
        &TileJobOptions { max_in_flight, telemetry, ..TileJobOptions::default() },
    )
    .unwrap();
    let _ = pool.shutdown();
    assert_eq!(out.tiles, 4, "16x16 at tile 8 is a 2x2 grid");
    assert!(out.failed.is_empty(), "no tile may fail: {:?}", out.failed);
    (out.plan, out.peak_in_flight)
}

#[test]
fn merged_plan_is_invariant_across_workers_and_in_flight_cap() {
    let telemetry = Telemetry::new();
    let (reference, peak) = synthesize(1, 1, telemetry.clone());
    assert_eq!(peak, 1, "cap 1 must keep exactly one tile resident");
    assert!(reference.total() > 0.0, "the fill plan must place some fill");

    // The in-flight cap bounds resident tiles; telemetry agrees.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("chip.pool_tiles_submitted"), 4);
    assert_eq!(snap.counter("chip.pool_tiles_done"), 4);
    assert_eq!(snap.counter("chip.pool_tiles_failed"), 0);
    assert_eq!(snap.gauges.get("chip.pool_peak_tiles_in_flight"), Some(&1.0));

    for (workers, cap) in [(2, 1), (1, 2), (2, 2)] {
        let (plan, peak) = synthesize(workers, cap, Telemetry::disabled());
        assert!(peak <= cap, "peak {peak} must respect cap {cap}");
        assert_eq!(
            plan.as_slice(),
            reference.as_slice(),
            "workers={workers} cap={cap} must merge the same plan"
        );
    }
}
