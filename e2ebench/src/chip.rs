//! `chip_C120`: the golden sharded full-chip flow (simulate → model fill
//! → verify) on generated design C chips of 120×120 windows, tile 30.

use crate::common::{
    mean, median, mix, ms, plan_digest, plan_within_slack, process_cpu_s, quantile, rss_window,
    timed_setup, SetupTimes, Tracer, WORKERS,
};
use crate::metrics::Outcome;
use crate::RunArgs;
use neurfill::score::{score_fn, Alphas};
use neurfill::telemetry::Telemetry;
use neurfill::PlanarityMetrics;
use neurfill_chip::{
    model_fill_sharded, run_full_chip, ChipFillPlan, ChipRunConfig, ChipSimulator, FilledChipSource,
};
use neurfill_cmpsim::{ChipProfile, CmpSimulator};
use neurfill_layout::{DesignKind, FullChipDesign, FullChipSpec};
use std::time::Instant;

/// Flow time grows linearly with the window count (33–41 µs per
/// window and layer on the reference machine), so a smaller chip costs
/// about the same per window and fits more flows in a run.
const EDGE: usize = 120;
/// 16 tiles per layer, as at 400×400 with tile 100.
const TILE: usize = 30;
/// Distinct chips per run, each generated from its own seed. A flow takes
/// 1.1–1.8 s on the reference machine, so a 30 s run visits each chip
/// five or six times.
const CHIPS: usize = 3;
/// Every chip runs at least this many flows.
const MIN_ROUNDS: usize = 2;

/// One full-chip flow: what the checks and metrics need.
struct Flow {
    wall_s: f64,
    cpu_s: f64,
    plan_digest: u64,
    unfilled_range: f64,
    filled_range: f64,
    quality: f64,
    /// Peak RSS during the flow, MB.
    rss_mb: f64,
}

/// The planarity part of the Quality score of the filled chip, with the
/// βs calibrated on the unfilled chip as `Coefficients::calibrate` does.
fn planarity_quality(unfilled: &ChipProfile, filled: &ChipProfile) -> f64 {
    let (m0, m1) = (PlanarityMetrics::from_profile(unfilled), PlanarityMetrics::from_profile(filled));
    let beta_ol = if m0.ol > 0.0 { m0.ol } else { (0.01 * m0.sigma_star).max(1.0) };
    let a = Alphas::default();
    (a.sigma * score_fn(m1.sigma, m0.sigma)
        + a.sigma_star * score_fn(m1.sigma_star, m0.sigma_star)
        + a.ol * score_fn(m1.ol, beta_ol))
        / (a.sigma + a.sigma_star + a.ol)
}

/// Every window's slack in `ChipFillPlan` order (layer, row, column): the
/// generated input, materialized once for the output checks.
fn slack_table(design: &FullChipDesign) -> Vec<f64> {
    let (layers, rows, cols) = (design.num_layers(), design.rows(), design.cols());
    (0..layers * rows * cols)
        .map(|i| design.window(i / (rows * cols), i / cols % rows, i % cols).slack)
        .collect()
}

/// Output checks shared by both flow variants: the plan is within
/// `[0, slack]` everywhere and filling lowered the height range.
fn check_flow(out: &mut Outcome, slack: &[f64], plan: &ChipFillPlan, flow: &Flow) {
    out.check(plan_within_slack(plan.as_slice(), slack), || "chip plan outside [0, slack]".into());
    out.check(flow.filled_range < flow.unfilled_range, || {
        format!(
            "filled height range {} nm is not below unfilled {} nm",
            flow.filled_range, flow.unfilled_range
        )
    });
    out.check(flow.quality.is_finite(), || format!("chip quality {}", flow.quality));
}

/// The shipped call: `run_full_chip`, untraced.
fn golden_flow(
    out: &mut Outcome,
    design: &FullChipDesign,
    slack: &[f64],
    cfg: &ChipRunConfig,
) -> Result<Flow, String> {
    rss_window();
    let (t, cpu) = (Instant::now(), process_cpu_s());
    let result = run_full_chip(design, cfg)?;
    let flow = Flow {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu,
        plan_digest: plan_digest(result.plan.as_slice()),
        unfilled_range: result.report.unfilled_height_range,
        filled_range: result.report.filled_height_range,
        quality: planarity_quality(&result.unfilled, &result.filled),
        rss_mb: rss_window(),
    };
    check_flow(out, slack, &result.plan, &flow);
    Ok(flow)
}

/// The same flow composed from its public stage calls, each a span,
/// with `ChipSimConfig::telemetry` enabled; sets the `chip.*` metrics.
fn traced_flow(
    out: &mut Outcome,
    design: &FullChipDesign,
    slack: &[f64],
    cfg: &ChipRunConfig,
    tracer: &Tracer,
) -> Result<(Flow, String), String> {
    let telemetry = Telemetry::new();
    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.telemetry = telemetry.clone();
    let (t, cpu) = (Instant::now(), process_cpu_s());
    let flow_span = tracer.open("chip.flow", None, Some(0));
    let sim = ChipSimulator::new(sim_cfg)?;
    let tiling = sim.tiling_for(design);
    let (unfilled, simulate) =
        tracer.span("chip.simulate", Some(flow_span), Some(0), || sim.simulate(design));
    let (unfilled, stats0) = unfilled?;
    let (plan, fill) = tracer.span("chip.fill", Some(flow_span), Some(0), || {
        model_fill_sharded(design, &unfilled, &tiling, &cfg.sim.params, &cfg.fill, cfg.sim.workers)
    });
    let (filled, verify) = tracer.span("chip.verify", Some(flow_span), Some(0), || {
        FilledChipSource::new(design, &plan, cfg.fill.dummy).and_then(|source| sim.simulate(&source))
    });
    let (filled, stats1) = filled?;
    tracer.close(flow_span);
    let flow = Flow {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu,
        plan_digest: plan_digest(plan.as_slice()),
        unfilled_range: unfilled.max_height_range(),
        filled_range: filled.max_height_range(),
        quality: planarity_quality(&unfilled, &filled),
        rss_mb: 0.0,
    };
    check_flow(out, slack, &plan, &flow);
    let (wall, covered) = tracer.covered(flow_span);
    out.set_coverage(&[ms(wall)], &[ms(covered)]);
    out.set("chip.simulate_s", simulate.as_secs_f64());
    out.set("chip.fill_s", fill.as_secs_f64());
    out.set("chip.verify_s", verify.as_secs_f64());
    out.set("chip.cores_busy", flow.cpu_s / flow.wall_s);
    out.set("chip.halo_bytes", (stats0.halo_bytes + stats1.halo_bytes) as f64);
    out.set(
        "chip.peak_tiles_in_flight",
        stats0.peak_tiles_in_flight.max(stats1.peak_tiles_in_flight) as f64,
    );
    Ok((flow, telemetry.snapshot().to_jsonl()))
}

/// Single-thread golden simulation of one interior tile plus its halo,
/// ms (median of three).
fn tile_ms(design: &FullChipDesign, cfg: &ChipRunConfig, tracer: &Tracer) -> Result<f64, String> {
    let tiling = ChipSimulator::new(cfg.sim.clone())?.tiling_for(design);
    let (rows, cols) = tiling.grid();
    let sub = design.generate_tile(tiling.tile(rows / 2, cols / 2).ext);
    let sim = CmpSimulator::new(cfg.sim.params.clone())?;
    let times: Vec<f64> = (0..3)
        .map(|_| {
            ms(tracer.span("cmpsim.tile", None, None, || std::hint::black_box(sim.simulate(&sub))).1)
        })
        .collect();
    Ok(median(&times))
}

pub fn run(args: &RunArgs, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let chip_seeds: Vec<u64> = (0..CHIPS as u64).map(|c| mix(args.seed, 3000 + c)).collect();
    let setup = || {
        let designs: Vec<FullChipDesign> = chip_seeds
            .iter()
            .map(|&seed| FullChipSpec::new(DesignKind::RiscV, EDGE, EDGE, seed).build())
            .collect();
        let slacks: Vec<Vec<f64>> = designs.iter().map(slack_table).collect();
        let cfg = ChipRunConfig::fast(TILE, WORKERS);
        ChipSimulator::new(cfg.sim.clone())?;
        Ok((designs, slacks, cfg))
    };
    let (first_setup, (designs, slacks, cfg)) = timed_setup(setup)?;
    let mut setup_times = SetupTimes::new(first_setup);
    out.info(
        "chip",
        format!(
            "{CHIPS} x {} {}x{}x{} tile {TILE}",
            designs[0].name(),
            EDGE,
            EDGE,
            designs[0].num_layers()
        ),
    );
    out.info("chip_seeds", format!("{chip_seeds:?}"));

    // Chips are visited round-robin, so each chip's flows are spread over
    // the run; a chip's flow time is its fastest flow.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let start = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); CHIPS];
    let mut firsts: Vec<Flow> = Vec::new();
    let mut rss_mb = Vec::new();
    for k in 0.. {
        let c = k % CHIPS;
        let next = walls[(k + CHIPS - 1) % CHIPS].last().copied().unwrap_or(0.0);
        if k >= MIN_ROUNDS * CHIPS && start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
        let flow = golden_flow(&mut out, &designs[c], &slacks[c], &cfg)?;
        walls[c].push(flow.wall_s);
        rss_mb.push(flow.rss_mb);
        match firsts.get(c) {
            None => firsts.push(flow),
            Some(first) => out.check(flow.plan_digest == first.plan_digest, || {
                format!("chip {c}: plan digest changed between flows")
            }),
        }
        setup_times.repeat(setup)?;
    }
    out.set("setup_s", setup_times.median(setup)?);
    let best: Vec<f64> = walls.iter().map(|w| w.iter().copied().fold(f64::INFINITY, f64::min)).collect();
    out.set("latency_p50_ms", quantile(&best, 0.5) * 1e3);
    out.set("latency_p90_ms", quantile(&best, 0.9) * 1e3);
    out.set("jobs_per_s", best.len() as f64 / best.iter().sum::<f64>());
    out.set("wall_s", median(&best));
    out.set("quality_mean", mean(&firsts.iter().map(|f| f.quality).collect::<Vec<_>>()));
    out.set("height_range_nm", mean(&firsts.iter().map(|f| f.filled_range).collect::<Vec<_>>()));
    out.set("peak_rss_mb", median(&rss_mb));
    out.attempted = rss_mb.len() as u64;
    out.info("flows", rss_mb.len());
    out.info("cores_busy", format!("{:.3}", firsts[0].cpu_s / firsts[0].wall_s));

    if args.trace {
        let (traced, chip_metrics) = traced_flow(&mut out, &designs[0], &slacks[0], &cfg, tracer)?;
        out.check(traced.plan_digest == firsts[0].plan_digest, || {
            "stage-by-stage chip flow differs from run_full_chip".into()
        });
        out.set("trace.overhead_pct", (traced.wall_s / median(&walls[0]) - 1.0) * 100.0);
        out.set("cmpsim.tile_ms", tile_ms(&designs[0], &cfg, tracer)?);
        crate::write_flow_metrics(args, &chip_metrics)?;
    }
    Ok(out)
}
