//! Sequential replays of the serve and batch inputs, outside any pool.
//!
//! [`flow_replay`] runs `FillingFlow::run` on each distinct layout and
//! renders the report the pool would have written, so the concurrent
//! run's reports can be checked against it. [`stage_replay`] (traced
//! runs only) calls the public stage functions one at a time, the way
//! `FillingFlow::run` and the pool's job compose them, and times each
//! call as a span.

use crate::common::{flow_config, plan_digest, report_digest, Tracer, WORKERS};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::report::{estimate_memory_gb, evaluate_plan, MethodKind, MethodResult};
use neurfill::telemetry::Telemetry;
use neurfill::{CmpNeuralNetwork, Coefficients, FillObjective, FillOutcome, NeurFill, PlanarityMetrics};
use neurfill_cmpsim::{ChipProfile, CmpSimulator, LayerProfile};
use neurfill_layout::insertion::realize_fill;
use neurfill_layout::{apply_fill, FillPlan, Layout};
use neurfill_optim::Objective;
use neurfill_runtime::{JobReport, ModelBundle};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The name every job of layout `k` is submitted under (reports start
/// with it, so equal layouts give equal reports).
pub fn job_name(k: usize) -> String {
    format!("L{k:02}")
}

/// What the sequential `FillingFlow::run` replay of one layout produced.
#[derive(Debug, Clone)]
pub struct FlowJob {
    pub report_digest: u64,
    pub plan_digest: u64,
    /// Golden post-fill height range of the realized fill, nm.
    pub height_range_nm: f64,
}

/// Surrogate-predicted planarity of the filled layout: the pool's
/// verification step, on the caller's own network (the pool's batch
/// server returns bit-identical heights).
fn predicted_metrics(
    network: &CmpNeuralNetwork,
    config: &FlowConfig,
    layout: &Layout,
    plan: &FillPlan,
) -> Result<PlanarityMetrics, String> {
    let filled = apply_fill(layout, plan, &config.insertion_dummy_spec());
    let samples = (0..filled.num_layers())
        .map(|l| network.extract_window_sample(&filled, l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let heights = network.predict_heights_batch(&samples).map_err(|e| e.to_string())?;
    let (rows, cols) = (filled.rows(), filled.cols());
    let layers = heights
        .into_iter()
        .map(|h| LayerProfile::new(rows, cols, h, vec![0.0; rows * cols], vec![0.0; rows * cols]))
        .collect();
    Ok(PlanarityMetrics::from_profile(&ChipProfile::new(layers)))
}

/// The report text the pool writes for this job.
fn report_text(
    name: &str,
    plan: &FillPlan,
    synthesis: &FillOutcome,
    scored: &MethodResult,
    predicted: PlanarityMetrics,
) -> String {
    JobReport {
        name: name.to_string(),
        plan: plan.clone(),
        objective_value: synthesis.objective_value,
        quality: scored.quality,
        overall: scored.overall,
        breakdown: scored.breakdown,
        predicted,
        synthesis_runtime: synthesis.runtime,
        evaluations: synthesis.evaluations,
        degraded: None,
        backend: neurfill_tensor::backend(),
    }
    .to_text()
}

/// `FillingFlow::run` on every layout, split over [`WORKERS`] threads
/// (each hydrates its own network, as pool workers do).
pub fn flow_replay(bundle: &ModelBundle, layouts: &[Layout]) -> Result<Vec<FlowJob>, String> {
    let per_thread: Vec<Result<Vec<(usize, FlowJob)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                s.spawn(move || {
                    let config = flow_config();
                    let network = Rc::new(bundle.hydrate().map_err(|e| e.to_string())?);
                    let flow = FillingFlow::with_network(Rc::clone(&network), config.clone())?;
                    let mut out = Vec::new();
                    for (k, layout) in layouts.iter().enumerate().skip(t).step_by(WORKERS) {
                        let result = flow.run(layout)?;
                        let predicted = predicted_metrics(&network, &config, layout, &result.plan)?;
                        let text = report_text(
                            &job_name(k),
                            &result.plan,
                            &result.synthesis,
                            &result.scored,
                            predicted,
                        );
                        out.push((
                            k,
                            FlowJob {
                                report_digest: report_digest(&text),
                                plan_digest: plan_digest(result.plan.as_slice()),
                                height_range_nm: result.scored.delta_h_angstrom / 10.0,
                            },
                        ));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("replay thread panicked".into())))
            .collect()
    });
    let mut jobs: Vec<Option<FlowJob>> = vec![None; layouts.len()];
    for part in per_thread {
        for (k, job) in part? {
            jobs[k] = Some(job);
        }
    }
    jobs.into_iter().map(|j| j.ok_or_else(|| "replay skipped a layout".to_string())).collect()
}

/// Per-stage timings and counts of one sequentially replayed job.
#[derive(Debug, Clone)]
pub struct StageJob {
    /// The whole job span.
    pub job: Duration,
    /// Child spans that cover it.
    pub covered: Duration,
    pub calibration: Duration,
    pub synthesis: Duration,
    pub insertion: Duration,
    pub verification: Duration,
    pub prediction: Duration,
    pub value_evals: usize,
    pub grad_evals: usize,
    pub sqp_iters: usize,
    /// Unit cost of `FillObjective::value` at the job's solution, ms.
    pub value_ms: f64,
    /// Unit cost of `FillObjective::value_and_gradient`, ms.
    pub grad_ms: f64,
    pub gemm_calls: u64,
    pub gemm_madds: u64,
    pub report_digest: u64,
}

impl StageJob {
    /// Synthesis time not attributed to objective evaluations, ms. Each
    /// `value_and_gradient` call also counts as one forward pass.
    pub fn optimizer_ms(&self) -> f64 {
        let value_only = self.value_evals.saturating_sub(self.grad_evals) as f64;
        crate::common::ms(self.synthesis)
            - value_only * self.value_ms
            - self.grad_evals as f64 * self.grad_ms
    }
}

/// Median per-call time of `f` over `reps` calls, ms (after one warm-up).
fn unit_cost_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            crate::common::ms(t.elapsed())
        })
        .collect();
    crate::common::median(&times)
}

/// Replays every layout one job at a time through the public stage
/// functions, with the program's telemetry enabled through
/// `FlowConfig::telemetry` and the tensor GEMM counters installed.
/// Spans carry job ids `job_base + k`. Returns the per-job stages and
/// the flow telemetry snapshot (JSONL).
pub fn stage_replay(
    bundle: &ModelBundle,
    layouts: &[Layout],
    tracer: &Tracer,
    job_base: u64,
) -> Result<(Vec<StageJob>, String), String> {
    let config = FlowConfig { telemetry: Telemetry::new(), ..flow_config() };
    let network = Rc::new(bundle.hydrate().map_err(|e| e.to_string())?);
    let sim = CmpSimulator::new(config.process.clone())?
        .with_numerics(config.numerics)
        .with_telemetry(config.telemetry.clone());
    let memory_gb = |layout: &Layout| {
        estimate_memory_gb(
            MethodKind::NeurFillPkb,
            layout,
            neurfill_nn::Module::num_parameters(network.unet()),
        )
    };
    let mut jobs = Vec::with_capacity(layouts.len());
    for (k, layout) in layouts.iter().enumerate() {
        let id = Some(job_base + k as u64);
        let gemm = Telemetry::new();
        neurfill_tensor::telemetry::install(gemm.clone());
        let job = tracer.open("job", None, id);
        let (coeffs, calibration) = tracer.span("calibration", Some(job), id, || {
            Coefficients::calibrate(layout, &sim.simulate(layout), config.beta_time_s)
        });
        let (outcome, synthesis) = tracer.span("synthesis", Some(job), id, || {
            NeurFill::new(Rc::clone(&network), config.neurfill.clone())
                .with_telemetry(config.telemetry.clone())
                .run(layout, &coeffs)
        });
        let outcome = outcome?;
        let (placed, insertion) = tracer.span("insertion", Some(job), id, || {
            let report = realize_fill(layout, &outcome.plan, &config.insertion);
            let mut realized = FillPlan::zeros(layout);
            for (slot, w) in realized.as_mut_slice().iter_mut().zip(&report.windows) {
                *slot = w.placed;
            }
            realized
        });
        let (scored, verification) = tracer.span("verification", Some(job), id, || {
            evaluate_plan(
                layout,
                &sim,
                &coeffs,
                "NeurFill flow",
                &placed,
                &config.insertion_dummy_spec(),
                outcome.runtime.as_secs_f64(),
                memory_gb(layout),
            )
        });
        let (predicted, prediction) = tracer.span("prediction", Some(job), id, || {
            predicted_metrics(&network, &config, layout, &outcome.plan)
        });
        tracer.close(job);
        neurfill_tensor::telemetry::install(Telemetry::disabled());
        let (job_time, covered) = tracer.covered(job);
        let counts = gemm.snapshot();

        let objective = FillObjective::new(&network, layout, &coeffs);
        let x = outcome.plan.as_slice();
        let (value_ms, _) = tracer.span("objective.value", None, id, || {
            unit_cost_ms(15, || {
                black_box(objective.value(black_box(x)));
            })
        });
        let (grad_ms, _) = tracer.span("objective.value_and_gradient", None, id, || {
            unit_cost_ms(7, || {
                black_box(objective.value_and_gradient(black_box(x)));
            })
        });

        let text = report_text(&job_name(k), &outcome.plan, &outcome, &scored, predicted?);
        jobs.push(StageJob {
            job: job_time,
            covered,
            calibration,
            synthesis,
            insertion,
            verification,
            prediction,
            value_evals: outcome.evaluations,
            grad_evals: outcome.gradient_evaluations,
            sqp_iters: outcome.sqp_iterations,
            value_ms,
            grad_ms,
            gemm_calls: counts.counter("tensor.gemm.calls"),
            gemm_madds: counts.counter("tensor.gemm.madds"),
            report_digest: report_digest(&text),
        });
    }
    Ok((jobs, config.telemetry.snapshot().to_jsonl()))
}
