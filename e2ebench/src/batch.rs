//! `batch_16x16`: bursts of 16×16 layouts submitted at once to an
//! in-process `RuntimePool`, the way `runfill` drives it.

use crate::common::{
    demo_bundle, flow_config, mean, median, ms, plan_digest, plan_within_slack, quantile, report_digest,
    rss_window, seeded_layouts, timed_setup, SetupTimes, Tracer, REPLAYED, WORKERS,
};
use crate::metrics::Outcome;
use crate::replay::{flow_replay, job_name, stage_replay};
use crate::RunArgs;
use neurfill::telemetry::Telemetry;
use neurfill_layout::Layout;
use neurfill_runtime::{JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use std::sync::Arc;
use std::time::Instant;

/// Distinct layouts; burst `b` submits layouts `12b .. 12b + 12` (mod
/// `LAYOUTS`), so a 40 s run covers each at least once. Job times differ
/// by layout, and a single 12-layout set let one seed's draw move
/// throughput by 20%.
const LAYOUTS: usize = 48;
/// Jobs per burst.
const BURST: usize = 12;
const EDGE: usize = 16;

fn start_pool(bundle: &Arc<ModelBundle>, telemetry: Telemetry) -> Result<RuntimePool, String> {
    let options = PoolOptions { workers: WORKERS, telemetry, ..PoolOptions::default() };
    RuntimePool::new(Arc::clone(bundle), flow_config(), options)
        .map_err(|e| format!("starting pool: {e}"))
}

/// Bursts run back to back while another one still fits in `seconds`
/// (at least `min_bursts`).
struct Bursts {
    /// Wall time of each burst, s.
    walls: Vec<f64>,
    /// Jobs completed.
    completed: usize,
    /// Burst submit → job seen complete, ms, every job.
    latency_ms: Vec<f64>,
    /// Peak RSS of each burst, MB.
    rss_mb: Vec<f64>,
    qualities: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn run_bursts(
    out: &mut Outcome,
    pool: &RuntimePool,
    layouts: &[Layout],
    seconds: f64,
    min_bursts: usize,
    tracer: Option<&Tracer>,
    digests: &mut [Option<(u64, u64)>],
) -> Bursts {
    let start = Instant::now();
    let mut b = Bursts {
        walls: Vec::new(),
        completed: 0,
        latency_ms: Vec::new(),
        rss_mb: Vec::new(),
        qualities: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next = b.walls.last().copied().unwrap_or(0.0);
        if b.walls.len() >= min_bursts && elapsed + next > seconds {
            break;
        }
        rss_window();
        let burst = Instant::now();
        let mut open = Vec::new();
        for k in (0..BURST).map(|i| (b.walls.len() * BURST + i) % layouts.len()) {
            let t = Instant::now();
            let submitted = pool.submit(JobSpec::new(job_name(k), layouts[k].clone()));
            if let Some(tr) = tracer {
                tr.record("pool.submit", t, Instant::now(), None, Some(k as u64));
            }
            b.attempted += 1;
            match submitted {
                Ok(id) => open.push((id, k)),
                Err(e) => {
                    b.failed += 1;
                    eprintln!("batch_16x16: submit of layout {k} refused: {e}");
                }
            }
        }
        while !open.is_empty() {
            let ids: Vec<u64> = open.iter().map(|(id, _)| *id).collect();
            let Some((id, status)) = pool.wait_first(&ids) else { break };
            let seen = Instant::now();
            let k = open.iter().position(|(i, _)| *i == id).map(|p| open.swap_remove(p).1).unwrap_or(0);
            if let Some(tr) = tracer {
                tr.record("pool.job", burst, seen, None, Some(k as u64));
            }
            match status {
                JobStatus::Done(report) => {
                    b.completed += 1;
                    b.latency_ms.push(ms(seen - burst));
                    let text = report.to_text();
                    out.check(report.quality.is_finite(), || {
                        format!("layout {k}: quality {}", report.quality)
                    });
                    let slack = layouts[k].slack_vector();
                    out.check(plan_within_slack(report.plan.as_slice(), &slack), || {
                        format!("layout {k}: plan outside [0, slack]")
                    });
                    let digest = (report_digest(&text), plan_digest(report.plan.as_slice()));
                    match digests[k] {
                        None => digests[k] = Some(digest),
                        Some(first) => out.check(first == digest, || {
                            format!("layout {k}: two bursts produced different results")
                        }),
                    }
                    b.qualities.push(report.quality);
                }
                other => {
                    b.failed += 1;
                    eprintln!("batch_16x16: job of layout {k} did not complete: {other:?}");
                }
            }
        }
        b.walls.push(burst.elapsed().as_secs_f64());
        b.rss_mb.push(rss_window());
    }
    b
}

pub fn run(args: &RunArgs, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = || {
        let bundle = demo_bundle()?;
        let layouts = seeded_layouts(args.seed, LAYOUTS, EDGE, EDGE);
        let pool = start_pool(&bundle, Telemetry::disabled())?;
        Ok((bundle, layouts, pool))
    };
    let (first_setup, (bundle, layouts, pool)) = timed_setup(setup)?;
    out.info("burst_jobs", BURST);
    out.info("layouts", format!("{LAYOUTS} x {EDGE}x{EDGE}x3"));

    let mut digests = vec![None; layouts.len()];
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let min_bursts = if args.trace { 1 } else { 2 };
    let bursts = run_bursts(&mut out, &pool, &layouts, seconds, min_bursts, None, &mut digests);
    drop(pool);
    out.set("setup_s", SetupTimes::new(first_setup).median(setup)?);
    let throughput = |b: &Bursts| b.completed as f64 / b.walls.iter().sum::<f64>();
    out.set("latency_p50_ms", quantile(&bursts.latency_ms, 0.5));
    out.set("latency_p90_ms", quantile(&bursts.latency_ms, 0.9));
    out.set("jobs_per_s", throughput(&bursts));
    out.set("wall_s", mean(&bursts.walls));
    out.set("quality_mean", mean(&bursts.qualities));
    out.set("peak_rss_mb", median(&bursts.rss_mb));
    out.attempted = bursts.attempted;
    out.failed = bursts.failed;
    out.info("bursts", bursts.walls.len());

    if args.trace {
        let telemetry = Telemetry::new();
        neurfill_tensor::telemetry::install(telemetry.clone());
        let pool = start_pool(&bundle, telemetry)?;
        let traced = run_bursts(&mut out, &pool, &layouts, seconds, 1, Some(tracer), &mut digests);
        neurfill_tensor::telemetry::install(Telemetry::disabled());
        let snapshot = pool.metrics_snapshot();
        let stats = pool.shutdown();
        let wait = snapshot.histogram("job.queue_wait_ns");
        let wait_ms = |q: f64| wait.map_or(0.0, |h| h.quantile(q) as f64 / 1e6);
        out.set("runtime.queue_wait_p50_ms", wait_ms(0.5));
        out.set("runtime.queue_wait_p90_ms", wait_ms(0.9));
        out.set("runtime.batch_occupancy", stats.mean_batch_occupancy);
        out.set("runtime.jobs_failed", stats.jobs_failed as f64);
        out.set("trace.overhead_pct", (throughput(&bursts) / throughput(&traced) - 1.0) * 100.0);
    }

    let replayed = flow_replay(&bundle, &layouts[..REPLAYED])?;
    for (k, job) in replayed.iter().enumerate() {
        if let Some((report, plan)) = digests[k] {
            out.check(report == job.report_digest && plan == job.plan_digest, || {
                format!("layout {k}: pool result differs from the sequential FillingFlow::run replay")
            });
        }
    }
    out.set("height_range_nm", mean(&replayed.iter().map(|j| j.height_range_nm).collect::<Vec<_>>()));

    if args.trace {
        let (stages, flow_metrics) = stage_replay(&bundle, &layouts[..REPLAYED], tracer, 1_000_000)?;
        for (k, (stage, flow)) in stages.iter().zip(&replayed).enumerate() {
            out.check(stage.report_digest == flow.report_digest, || {
                format!("layout {k}: stage-by-stage replay differs from FillingFlow::run")
            });
        }
        out.set_stage_metrics(&stages);
        crate::write_flow_metrics(args, &flow_metrics)?;
    }
    Ok(out)
}
