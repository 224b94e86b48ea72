//! The concurrent fill-synthesis pool: a job queue fanned across worker
//! threads that share one model bundle.
//!
//! Each worker hydrates its own network from the bundle (the autograd
//! substrate is thread-local), assembles a [`FillingFlow`] once, and then
//! processes jobs until the queue closes. Results are bit-identical to a
//! sequential `FillingFlow::run` over the same bundle and configuration —
//! workers run the same weights, and each job's verification is one
//! multi-layer forward on the worker's own network.
//!
//! # Failure model
//!
//! Jobs are isolated: a panic, error, timeout or cancellation fails that
//! job only, never its worker or the pool. Transient failures retry under
//! [`PoolOptions::retry`] with exponential backoff (status
//! [`JobStatus::Retrying`]); deadlines are enforced *cooperatively* — a
//! per-job [`CancelToken`] (deadline = submission + timeout) is threaded
//! into the synthesis optimizer's iteration loops, so an expired or
//! [`RuntimePool::cancel`]led job aborts mid-optimization instead of
//! running to completion. When surrogate heights fail the numeric health
//! guard, verification degrades to the golden simulator and the job's
//! report says so. All of it is exercised deterministically through
//! [`crate::fault::FaultPlan`].

use crate::error::{RetryPolicy, RuntimeError};
use crate::fault::{sites, FaultPlan};
use crate::job::{JobId, JobReport, JobSpec, JobStatus};
use crate::registry::ModelBundle;
use crate::stats::{RuntimeStats, StatsInner};
use crossbeam::channel::{unbounded, Receiver, Sender};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::{CancelToken, HeightNorm, PlanarityMetrics};
use neurfill_cmpsim::ChipProfile;
use neurfill_cmpsim::LayerProfile;
use neurfill_layout::apply_fill;
use neurfill_obs::{MetricsSnapshot, Telemetry};
use neurfill_tensor::BackendKind;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool construction options.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads; `0` uses [`default_workers`].
    pub workers: usize,
    /// Deadline applied to jobs that don't carry their own.
    pub default_timeout: Option<Duration>,
    /// Retry budget and backoff for transiently-failing jobs.
    pub retry: RetryPolicy,
    /// Fault-injection plan (disabled by default; see [`FaultPlan`]).
    /// With the disabled plan every code path is bit-identical to a
    /// fault-free runtime.
    pub fault: Arc<FaultPlan>,
    /// Telemetry handle. The default (disabled) handle changes nothing:
    /// the pool's `runtime.*` counters still count (in a private
    /// registry), but no spans, events or latency histograms are
    /// recorded. An enabled handle also propagates to each worker's flow
    /// (unless the [`FlowConfig`] carries its own), so one registry
    /// covers simulator, optimizer, flow and runtime metrics.
    pub telemetry: Telemetry,
    /// Tensor backend the pool's surrogate inference runs on. `Cpu` (the
    /// default) is bit-identical to the f32 reference kernels; `QuantCpu`
    /// opts into the certified int8 engine (the model bundle must carry
    /// calibration scales). Installed process-wide and propagated to each
    /// worker's flow, mirroring [`PoolOptions::telemetry`].
    pub backend: BackendKind,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            default_timeout: None,
            retry: RetryPolicy::default(),
            fault: Arc::new(FaultPlan::disabled()),
            telemetry: Telemetry::disabled(),
            backend: BackendKind::Cpu,
        }
    }
}

/// The machine's available parallelism, clamped to at least one worker.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).max(1)
}

/// Applies `f` to every item on `workers` threads, returning results in
/// input order.
///
/// Work is pulled from a shared atomic cursor, so stragglers never idle a
/// thread, and the output position of each result is fixed by its input
/// index — the outcome is identical for any worker count (given a pure
/// `f`), which is what lets callers (e.g. the `neurfill-data` labeling
/// pipeline) promise byte-identical artifacts regardless of parallelism.
/// `workers == 0` uses [`default_workers`]; a single worker runs inline
/// without spawning.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all threads first).
// The two `expect`s assert scheduling invariants of the cursor (each index
// claimed exactly once, every slot filled after the scope joins).
#[allow(clippy::expect_used)]
pub fn parallel_map_ordered<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = if workers == 0 { default_workers() } else { workers };
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= n {
                    break;
                }
                let item = work[i].lock().take().expect("each index is claimed once");
                *slots[i].lock() = Some(f(item));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("all slots filled")).collect()
}

#[derive(Debug)]
struct Queued {
    id: JobId,
    spec: JobSpec,
    enqueued: Instant,
    cancel: CancelToken,
}

#[derive(Default)]
struct JobTable {
    jobs: Mutex<HashMap<JobId, JobStatus>>,
    tokens: Mutex<HashMap<JobId, CancelToken>>,
    changed: Condvar,
}

impl JobTable {
    fn set(&self, id: JobId, status: JobStatus) {
        self.jobs.lock().insert(id, status);
        self.changed.notify_all();
    }
}

/// The concurrent batch fill-synthesis runtime.
pub struct RuntimePool {
    tx: Option<Sender<Queued>>,
    workers: Vec<JoinHandle<()>>,
    table: Arc<JobTable>,
    stats: Arc<StatsInner>,
    next_id: AtomicU64,
    default_timeout: Option<Duration>,
    bundle_digest: u64,
}

impl std::fmt::Debug for RuntimePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RuntimePool({} workers)", self.workers.len())
    }
}

impl RuntimePool {
    /// Starts the pool: spawns `options.workers` workers, each hydrating
    /// its own network from `bundle` and binding it into a flow under
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns an error when a thread cannot be spawned. Worker hydration
    /// failures at job time surface per job instead, so a pool is never
    /// half-constructed.
    pub fn new(
        bundle: Arc<ModelBundle>,
        mut config: FlowConfig,
        options: PoolOptions,
    ) -> std::io::Result<Self> {
        // One registry end to end: an enabled pool telemetry reaches the
        // workers' flows (and through them the simulator and optimizers)
        // unless the flow config already carries its own handle.
        if options.telemetry.is_enabled() && !config.telemetry.is_enabled() {
            config.telemetry = options.telemetry.clone();
        }
        // Same propagation shape for the tensor backend: a quantized pool
        // runs quantized flows, and the process-global inference dispatch
        // follows the pool.
        if options.backend.is_quant() && !config.backend.is_quant() {
            config.backend = options.backend;
        }
        neurfill_tensor::set_backend(config.backend);
        let stats = Arc::new(StatsInner::new(&options.telemetry));
        let fault = Arc::clone(&options.fault);
        let table = Arc::new(JobTable::default());
        let (tx, rx) = unbounded::<Queued>();
        let worker_count = if options.workers == 0 { default_workers() } else { options.workers };
        let workers = (0..worker_count)
            .map(|i| {
                let rx = rx.clone();
                let bundle = Arc::clone(&bundle);
                let config = config.clone();
                let table = Arc::clone(&table);
                let stats = Arc::clone(&stats);
                let fault = Arc::clone(&fault);
                let retry = options.retry;
                std::thread::Builder::new()
                    .name(format!("neurfill-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &bundle, &config, &table, &stats, &fault, retry))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            tx: Some(tx),
            workers,
            table,
            stats,
            next_id: AtomicU64::new(1),
            default_timeout: options.default_timeout,
            bundle_digest: bundle.digest(),
        })
    }

    /// Digest of the model bundle this pool serves (see
    /// [`ModelBundle::digest`]) — lets a front-end report which model is
    /// live and detect whether a staged bundle would actually change it.
    #[must_use]
    pub fn bundle_digest(&self) -> u64 {
        self.bundle_digest
    }

    /// Enqueues a job and returns its id immediately.
    ///
    /// # Errors
    ///
    /// Returns an error (instead of accepting the job) when the pool has
    /// shut down or every worker is gone.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, String> {
        let Some(tx) = self.tx.as_ref() else {
            return Err("pool is shut down; job not accepted".to_string());
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        spec.timeout = spec.timeout.or(self.default_timeout);
        let enqueued = Instant::now();
        let cancel = CancelToken::with_deadline_opt(spec.timeout.map(|t| enqueued + t));
        self.table.tokens.lock().insert(id, cancel.clone());
        self.table.set(id, JobStatus::Queued);
        self.stats.jobs_submitted.inc();
        if tx.send(Queued { id, spec, enqueued, cancel }).is_err() {
            let msg = "pool workers are gone; job not enqueued".to_string();
            self.stats.jobs_failed.inc();
            self.table.set(id, JobStatus::Failed(msg.clone()));
            return Err(msg);
        }
        Ok(id)
    }

    /// The job's current status, or `None` for an unknown id.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.table.jobs.lock().get(&id).cloned()
    }

    /// Requests cooperative cancellation of a job. Returns whether the
    /// request landed: `true` for a known, still-active job (it will fail
    /// with a `cancelled` error at its next cancellation point), `false`
    /// for unknown ids and jobs that already finished.
    pub fn cancel(&self, id: JobId) -> bool {
        let active = matches!(self.table.jobs.lock().get(&id), Some(s) if !s.is_terminal());
        if !active {
            return false;
        }
        match self.table.tokens.lock().get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Blocks until the job reaches a terminal status; `None` for an id
    /// this pool never issued.
    #[must_use]
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut jobs = self.table.jobs.lock();
        loop {
            let status = jobs.get(&id)?.clone();
            if status.is_terminal() {
                return Some(status);
            }
            self.table.changed.wait(&mut jobs);
        }
    }

    /// Blocks until the job reaches a terminal status or `timeout`
    /// elapses, returning the job's status at that point (possibly still
    /// non-terminal); `None` for an id this pool never issued.
    ///
    /// This is the bounded-wait primitive front-ends build long-polling
    /// on: unlike [`RuntimePool::wait`], a hung or long-running job cannot
    /// pin the caller forever.
    #[must_use]
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.table.jobs.lock();
        loop {
            let status = jobs.get(&id)?.clone();
            if status.is_terminal() {
                return Some(status);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Some(status);
            }
            let _ = self.table.changed.wait_for(&mut jobs, remaining);
        }
    }

    /// Blocks until *any* of the given jobs reaches a terminal status,
    /// returning the first one found (lowest index in `ids` on ties).
    /// Ids this pool never issued are skipped; returns `None` when none
    /// of the ids are known (including an empty slice).
    ///
    /// This is the streaming primitive the full-chip tile scheduler
    /// uses to keep a bounded number of tile jobs in flight: submit up
    /// to the cap, `wait_first` on the open set, merge, refill.
    #[must_use]
    pub fn wait_first(&self, ids: &[JobId]) -> Option<(JobId, JobStatus)> {
        let mut jobs = self.table.jobs.lock();
        loop {
            let mut any_known = false;
            for &id in ids {
                if let Some(status) = jobs.get(&id) {
                    any_known = true;
                    if status.is_terminal() {
                        return Some((id, status.clone()));
                    }
                }
            }
            if !any_known {
                return None;
            }
            self.table.changed.wait(&mut jobs);
        }
    }

    /// How many submitted jobs have not yet reached a terminal status
    /// (queued, running or retrying). Used by front-ends to drain before
    /// shutdown and to retire replaced pools.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.table.jobs.lock().values().filter(|s| !s.is_terminal()).count()
    }

    /// Blocks until every submitted job is terminal; returns all statuses
    /// sorted by id.
    #[must_use]
    pub fn wait_all(&self) -> Vec<(JobId, JobStatus)> {
        let mut jobs = self.table.jobs.lock();
        while jobs.values().any(|s| !s.is_terminal()) {
            self.table.changed.wait(&mut jobs);
        }
        let mut out: Vec<(JobId, JobStatus)> = jobs.iter().map(|(id, s)| (*id, s.clone())).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// A snapshot of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats.snapshot()
    }

    /// A telemetry snapshot of everything recorded in the registry the
    /// pool's counters live in. With [`PoolOptions::telemetry`] attached
    /// this is the whole shared registry — `runtime.*` counters, `job.*`
    /// and `batch.occupancy` histograms, `sim.*`/`optim.*`/`flow.*`
    /// metrics from the workers' flows, and degradation events. With the default
    /// (disabled) handle it still carries the `runtime.*` counters.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.stats.registry_snapshot()
    }

    /// Graceful shutdown: closes the queue, lets workers finish everything
    /// already enqueued, and returns final stats.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop();
        self.stats.snapshot()
    }

    fn stop(&mut self) {
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RuntimePool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Hydrates the worker's flow on first use (and again after a faulted
/// hydration attempt left the slot empty), so hydration failures are
/// per-attempt and retryable instead of condemning every job the worker
/// ever takes.
fn ensure_flow<'a>(
    slot: &'a mut Option<FillingFlow>,
    bundle: &ModelBundle,
    config: &FlowConfig,
    fault: &FaultPlan,
    stats: &StatsInner,
) -> Result<&'a FillingFlow, String> {
    if slot.is_none() {
        let start = Instant::now();
        fault.inject(sites::HYDRATE)?;
        let network = bundle.hydrate().map_err(|e| format!("failed to hydrate model bundle: {e}"))?;
        let flow = FillingFlow::with_network(Rc::new(network), config.clone())?;
        stats.hydrations.inc();
        stats.hydrate_nanos.add_duration(start.elapsed());
        *slot = Some(flow);
    }
    slot.as_ref().ok_or_else(|| "worker flow initialization failed".to_string())
}

/// Sleeps for `backoff`, clipped so a retry never waits past the job's
/// deadline.
fn backoff_within_deadline(backoff: Duration, deadline: Option<Instant>) {
    let wait = match deadline {
        Some(d) => backoff.min(d.saturating_duration_since(Instant::now())),
        None => backoff,
    };
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

fn worker_loop(
    rx: &Receiver<Queued>,
    bundle: &ModelBundle,
    config: &FlowConfig,
    table: &JobTable,
    stats: &StatsInner,
    fault: &FaultPlan,
    retry: RetryPolicy,
) {
    // The flow (one hydration + assembly) is amortized over every job this
    // worker takes, but built lazily so a faulted/failed hydration can be
    // retried on the next attempt instead of poisoning the worker.
    let mut flow: Option<FillingFlow> = None;

    while let Ok(job) = rx.recv() {
        stats.queue_wait.record_duration(job.enqueued.elapsed());
        let deadline = job.spec.timeout.map(|t| job.enqueued + t);
        if deadline.is_some_and(|d| Instant::now() > d) {
            fail(table, stats, job.id, format!("job '{}' timed out in queue", job.spec.name));
            continue;
        }
        if job.cancel.cancel_requested() {
            fail(table, stats, job.id, format!("job '{}' cancelled while queued", job.spec.name));
            continue;
        }
        let mut attempt: u32 = 0;
        // One span per job (all attempts): records `job.total_ns` and a
        // span event. Inert when no telemetry is attached.
        let job_span = stats.events.span("job.total_ns");
        let status = loop {
            table.set(
                job.id,
                if attempt == 0 { JobStatus::Running } else { JobStatus::Retrying { attempt } },
            );
            // Panics — the job's own or injected at any site — are caught
            // here: they fail the job, never the worker.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let flow = ensure_flow(&mut flow, bundle, config, fault, stats)?;
                run_job(flow, &job.spec, &job.cancel, fault, stats)
            }));
            break match outcome {
                Ok(Ok(report)) => {
                    if deadline.is_some_and(|d| Instant::now() > d) {
                        JobStatus::Failed(format!("job '{}' exceeded its timeout", job.spec.name))
                    } else {
                        JobStatus::Done(Box::new(report))
                    }
                }
                Ok(Err(e)) => {
                    let err = RuntimeError::from_message(e);
                    if err.is_retryable() && attempt < retry.max_retries && !job.cancel.is_cancelled() {
                        attempt += 1;
                        stats.retries.inc();
                        stats.events.event(
                            "fault",
                            "retry",
                            &[
                                ("job", job.spec.name.clone()),
                                ("attempt", attempt.to_string()),
                                ("error", err.message.clone()),
                            ],
                        );
                        backoff_within_deadline(retry.backoff(attempt), deadline);
                        continue;
                    }
                    JobStatus::Failed(err.message)
                }
                Err(panic) => JobStatus::Failed(format!(
                    "job '{}' panicked: {}",
                    job.spec.name,
                    panic_message(&*panic)
                )),
            };
        };
        drop(job_span);
        match status {
            JobStatus::Failed(msg) => fail(table, stats, job.id, msg),
            done => {
                stats.jobs_completed.inc();
                table.set(job.id, done);
            }
        }
    }
}

fn fail(table: &JobTable, stats: &StatsInner, id: JobId, msg: String) {
    stats.jobs_failed.inc();
    table.set(id, JobStatus::Failed(msg));
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Flags surrogate heights that cannot be trusted: non-finite values, or
/// values implausibly far from the normalization band (|h − offset| >
/// 10⁴ × scale — a trained surrogate predicts within a few scales).
fn heights_health_error(heights: &[Vec<f64>], norm: HeightNorm) -> Option<String> {
    let band = 1e4 * norm.scale_nm;
    for (layer, layer_heights) in heights.iter().enumerate() {
        for &h in layer_heights {
            if !h.is_finite() {
                return Some(format!("surrogate returned a non-finite height on layer {layer}"));
            }
            if (h - norm.offset_nm).abs() > band {
                return Some(format!(
                    "surrogate height {h:.3e} nm on layer {layer} is outside the plausible band"
                ));
            }
        }
    }
    None
}

/// One job: synthesis through the worker's own flow (under the job's
/// cancel token), then surrogate verification of the filled layout on
/// the worker's network — degrading to the golden simulator when the
/// surrogate's heights fail the health guard.
fn run_job(
    flow: &FillingFlow,
    spec: &JobSpec,
    cancel: &CancelToken,
    fault: &FaultPlan,
    stats: &StatsInner,
) -> Result<JobReport, String> {
    fault.inject(sites::SYNTHESIS)?;
    let synth_start = Instant::now();
    let result = flow.run_cancellable(&spec.layout, cancel)?;
    let synth_elapsed = synth_start.elapsed();
    stats.synthesis_nanos.add_duration(synth_elapsed);
    stats.job_synthesis.record_duration(synth_elapsed);

    // Verification: predict the filled layout's post-CMP profile in one
    // forward, one window sample per layer.
    let verify_start = Instant::now();
    let dummy = flow.config().insertion_dummy_spec();
    let filled = apply_fill(&spec.layout, &result.plan, &dummy);
    let (rows, cols) = (filled.rows(), filled.cols());
    let samples: Vec<_> = (0..filled.num_layers())
        .map(|l| flow.network().extract_window_sample(&filled, l))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    // Fault site `verify_forward`: a transient fails this attempt, NaN
    // poisons the heights so the numeric health guard trips.
    let poison = fault.inject(sites::VERIFY_FORWARD)?;
    stats.batches_formed.inc();
    stats.samples_inferred.add(samples.len() as u64);
    stats.batch_occupancy.record(samples.len() as u64);
    let mut heights = flow
        .network()
        .predict_heights_batch(&samples)
        .map_err(|e| format!("verification forward failed: {e}"))?;
    if poison {
        for h in &mut heights {
            h.fill(f64::NAN);
        }
    }
    let (predicted, degraded) = match heights_health_error(&heights, flow.network().height_norm()) {
        None => {
            let profile = ChipProfile::new(
                heights
                    .into_iter()
                    .map(|h| {
                        let zeros = vec![0.0; rows * cols];
                        LayerProfile::new(rows, cols, h, zeros.clone(), zeros)
                    })
                    .collect(),
            );
            (PlanarityMetrics::from_profile(&profile), None)
        }
        Some(reason) => {
            // Degradation rung 2: the surrogate's numbers are unusable;
            // verify on the golden simulator and say so in the report.
            stats.jobs_degraded.inc();
            stats.events.event(
                "fault",
                "golden_degraded",
                &[("job", spec.name.clone()), ("reason", reason.clone())],
            );
            let profile = flow.simulator().simulate(&filled);
            (PlanarityMetrics::from_profile(&profile), Some(reason))
        }
    };
    let verify_elapsed = verify_start.elapsed();
    stats.verify_nanos.add_duration(verify_elapsed);
    stats.job_verify.record_duration(verify_elapsed);

    Ok(JobReport {
        name: spec.name.clone(),
        objective_value: result.synthesis.objective_value,
        quality: result.scored.quality,
        overall: result.scored.overall,
        breakdown: result.scored.breakdown,
        predicted,
        synthesis_runtime: result.synthesis.runtime,
        evaluations: result.synthesis.evaluations,
        plan: result.plan,
        degraded,
        backend: neurfill_tensor::backend(),
    })
}

#[cfg(test)]
mod tests {
    use super::parallel_map_ordered;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 4, 7] {
            let got = parallel_map_ordered(items.clone(), workers, |i| i * i);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map_ordered(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map_ordered(vec![9], 4, |x| x + 1), vec![10]);
    }
}
