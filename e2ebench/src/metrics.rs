//! The benchmark's metric tables and the per-run outcome.

use crate::common::{mean, median, ms};
use crate::replay::StageJob;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit. Every workload
/// reports every one of them; see the README for each workload's
/// definition.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("wall_s", "s"),
    ("quality_mean", "score"),
    ("height_range_nm", "nm"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures that untraced runs print and keep in the run
/// record but leave out of the result line, which carries only
/// [`END_TO_END`]: on the reference machine their run-to-run spread
/// exceeded the benchmark's bounds (p90 over 36 layouts) or they repeat
/// `wall_s` (jobs per second).
pub const UNGATED: &[(&str, &str)] = &[("latency_p90_ms", "ms"), ("jobs_per_s", "1/s")];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("runtime.queue_wait_p50_ms", "ms"),
    ("runtime.queue_wait_p90_ms", "ms"),
    ("runtime.batch_occupancy", "samples"),
    ("runtime.jobs_failed", "count"),
    ("synth.ms", "ms"),
    ("synth.value_evals", "count"),
    ("synth.grad_evals", "count"),
    ("synth.sqp_iters", "count"),
    ("synth.optimizer_ms", "ms"),
    ("objective.value_ms", "ms"),
    ("objective.grad_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_madds", "count"),
    ("insertion.ms", "ms"),
    ("calibration.ms", "ms"),
    ("verification.ms", "ms"),
    ("prediction.ms", "ms"),
    ("cmpsim.tile_ms", "ms"),
    ("chip.simulate_s", "s"),
    ("chip.fill_s", "s"),
    ("chip.verify_s", "s"),
    ("chip.cores_busy", "cores"),
    ("chip.halo_bytes", "bytes"),
    ("chip.peak_tiles_in_flight", "count"),
    ("stage.coverage", "ratio"),
    ("stage.other_ms", "ms"),
    ("stage.synth_share", "ratio"),
    ("stage.insertion_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks (empty when the outputs are correct).
    pub check_failures: Vec<String>,
    /// Operations attempted and failed (refused, timed out or errored).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run description carried in the record: input sizes and the like.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Per-layer metrics of a sequential stage replay, plus the
    /// structural stage-accounting check.
    pub fn set_stage_metrics(&mut self, jobs: &[StageJob]) {
        let per = |f: &dyn Fn(&StageJob) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
        let total = |f: &dyn Fn(&StageJob) -> f64| per(f).iter().sum::<f64>();
        self.set("synth.ms", median(&per(&|j| ms(j.synthesis))));
        self.set("synth.value_evals", mean(&per(&|j| j.value_evals as f64)));
        self.set("synth.grad_evals", mean(&per(&|j| j.grad_evals as f64)));
        self.set("synth.sqp_iters", mean(&per(&|j| j.sqp_iters as f64)));
        self.set("synth.optimizer_ms", median(&per(&|j| j.optimizer_ms())));
        self.set("objective.value_ms", median(&per(&|j| j.value_ms)));
        self.set("objective.grad_ms", median(&per(&|j| j.grad_ms)));
        self.set("tensor.gemm_calls", mean(&per(&|j| j.gemm_calls as f64)));
        self.set("tensor.gemm_madds", mean(&per(&|j| j.gemm_madds as f64)));
        self.set("insertion.ms", median(&per(&|j| ms(j.insertion))));
        self.set("calibration.ms", median(&per(&|j| ms(j.calibration))));
        self.set("verification.ms", median(&per(&|j| ms(j.verification))));
        self.set("prediction.ms", median(&per(&|j| ms(j.prediction))));
        let job_ms = total(&|j| ms(j.job));
        self.set("stage.synth_share", total(&|j| ms(j.synthesis)) / job_ms);
        self.set("stage.insertion_share", total(&|j| ms(j.insertion)) / job_ms);
        self.set_coverage(&per(&|j| ms(j.job)), &per(&|j| ms(j.covered)));
    }

    /// `stage.coverage` (the worst job's covered share) and
    /// `stage.other_ms` (median uncovered time), checked against 0.9.
    pub fn set_coverage(&mut self, wall_ms: &[f64], covered_ms: &[f64]) {
        let coverage = wall_ms.iter().zip(covered_ms).map(|(w, c)| c / w).fold(f64::INFINITY, f64::min);
        let other: Vec<f64> = wall_ms.iter().zip(covered_ms).map(|(w, c)| w - c).collect();
        self.set("stage.coverage", coverage);
        self.set("stage.other_ms", median(&other));
        self.check(coverage >= 0.9, || format!("stage coverage {coverage:.3} is below 0.9"));
    }
}
