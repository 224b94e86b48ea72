//! The serve workloads, against an in-process `FillService` + HTTP
//! `Server` over loopback with the job journal on:
//!
//! - `serve_8x8`: an open loop of seeded Poisson arrivals. The same
//!   schedule runs in back-to-back trials, and each job's latency is its
//!   fastest trial.
//! - `serve_seq_8x8`: a closed loop of one client with one job in flight,
//!   submitting its layouts in turn, round after round; each layout's
//!   latency is its fastest round.

use crate::common::{
    demo_bundle, flow_config, mean, median, ms, plan_digest, plan_within_slack, quantile, report_digest,
    report_quality, rng, rss_window, seeded_layouts, timed_setup, SetupTimes, Tracer, REPLAYED, WORKERS,
    WORK_DIR,
};
use crate::metrics::Outcome;
use crate::replay::{flow_replay, job_name, stage_replay};
use crate::RunArgs;
use neurfill::telemetry::{MetricsSnapshot, Telemetry};
use neurfill_layout::Layout;
use neurfill_runtime::{ModelBundle, PoolOptions};
use neurfill_serve::{
    Client, ClientError, FillService, JobRequest, Server, ServerConfig, ServiceConfig,
};
use rand::Rng;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct layouts; job `j` of a trial submits layout `j % LAYOUTS`, so
/// a run of up to 60 s (two trials of up to 60 jobs) submits each at
/// most once per trial. Job times differ by layout (0.25–0.63 s), and fewer layouts let
/// one seed's draw move the latency figures by 20%.
const LAYOUTS: usize = 60;
const EDGE: usize = 8;
/// Arrival rate, jobs/s: 25–45% of the two workers' capacity at the
/// shipped 80 SQP iterations (0.25–0.45 s of one core per job on the
/// reference machine, whose speed drifts between the two over minutes;
/// picked once, not tuned per run).
const RATE_PER_S: f64 = 2.0;
/// Trials of the schedule per run. Each starts once the previous one has
/// drained, on the same service, and a job's latency is the faster of
/// its trials: interference from other tenants of the reference machine
/// only ever adds time, and comes and goes within a run. More trials
/// would leave fewer distinct layouts per run.
const TRIALS: usize = 2;
/// Layouts of the closed loop, 12 per design; each round submits every
/// one of them once. A round takes 8–15 s on the reference machine, so a
/// 30 s run makes two or three.
const SEQ_LAYOUTS: usize = 36;
/// Rounds every closed-loop run makes at least.
const MIN_ROUNDS: usize = 2;
/// Set-ups timed after each trial or round (see [`SetupTimes`]).
const SETUPS_PER_PHASE: usize = 4;
/// Arrivals per stratum of the schedule.
const STRATUM: usize = 10;
/// A job not complete this long after its submission counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Submissions per memory window (`peak_rss_mb` is the median window).
const RSS_WINDOW_JOBS: usize = 10;

/// A running service + front-end with its journal directory.
struct Service {
    server: Server,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    journal: PathBuf,
}

impl Service {
    fn start(bundle: Arc<ModelBundle>, journal: PathBuf, telemetry: Telemetry) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&journal);
        let config = ServiceConfig {
            slots: WORKERS,
            flow: flow_config(),
            pool: PoolOptions { workers: WORKERS, telemetry, ..PoolOptions::default() },
            journal: Some(journal.clone()),
            ..ServiceConfig::default()
        };
        let service =
            FillService::start(bundle, config).map_err(|e| format!("starting service: {e}"))?;
        let server = Server::bind(service, &ServerConfig::default())
            .map_err(|e| format!("binding server: {e}"))?;
        let run = server.clone();
        let thread = std::thread::Builder::new()
            .name("e2ebench-http".into())
            .spawn(move || run.run())
            .map_err(|e| e.to_string())?;
        Ok(Self { server, thread: Some(thread), journal })
    }

    fn addr(&self) -> Result<String, String> {
        self.server.local_addr().map(|a| a.to_string()).map_err(|e| e.to_string())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.server.service().shutdown();
        self.server.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// Due times (seconds after the start) of `n` Poisson arrivals at
/// `rate`, conditioned on [`STRATUM`] arrivals in each consecutive
/// `STRATUM / rate` seconds (fewer in a shorter last stratum): given its count in an interval, a Poisson
/// process has its arrivals uniform and independent there. Fixing the
/// counts keeps short-range burstiness but stops one seed from loading
/// a whole run more than another.
fn schedule(seed: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = rng(seed, 2000);
    let mut due: Vec<f64> = (0..n)
        .map(|i| {
            let first = i / STRATUM * STRATUM;
            let width = STRATUM.min(n - first) as f64 / rate;
            first as f64 / rate + rng.gen::<f64>() * width
        })
        .collect();
    due.sort_by(f64::total_cmp);
    due
}

/// One job of the open loop, as the client saw it.
struct Job {
    /// Position in the schedule.
    index: usize,
    layout: usize,
    id: Option<u64>,
    /// Due time → the client first sees it complete; `None` if failed.
    latency: Option<Duration>,
    seen: Option<Instant>,
    report: Option<String>,
    error: Option<String>,
}

struct Phase {
    jobs: Vec<Job>,
    submit_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    start: Instant,
}

struct Sent {
    index: usize,
    due: Instant,
    id: Result<u64, String>,
}

/// Runs the open loop: one thread submits each job at its due time over
/// one connection, another long-polls results over a second one.
fn open_loop(addr: &str, layouts: &[Layout], due_s: &[f64], tracer: Option<&Tracer>) -> Phase {
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (jobs, (submit_ms, late_ms, rss_mb)) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut client = Client::connect(addr);
            let (mut submit_ms, mut late_ms, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
            rss_window();
            for (index, due) in due_s.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*due);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let k = index % layouts.len();
                let request = JobRequest::new(job_name(k), layouts[k].clone());
                let t = Instant::now();
                let id = client.submit(&request).map_err(|e| e.to_string());
                let end = Instant::now();
                if let Some(tr) = tracer {
                    tr.record("serve.submit", t, end, None, Some(index as u64));
                }
                late_ms.push(ms(t - due));
                submit_ms.push(ms(end - t));
                if (index + 1) % RSS_WINDOW_JOBS == 0 {
                    rss_mb.push(rss_window());
                }
                if tx.send(Sent { index, due, id }).is_err() {
                    break;
                }
            }
            (submit_ms, late_ms, rss_mb)
        });
        let waiter = s.spawn(move || {
            let mut client = Client::connect(addr);
            let mut jobs: Vec<Job> = Vec::new();
            let mut pending: VecDeque<(Sent, u64)> = VecDeque::new();
            let mut finish = |sent: &Sent, seen: Instant, result: Result<String, String>| {
                if let Some(tr) = tracer {
                    tr.record("serve.job", sent.due, seen, None, Some(sent.index as u64));
                }
                jobs.push(Job {
                    index: sent.index,
                    layout: sent.index % layouts.len(),
                    id: sent.id.as_ref().ok().copied(),
                    latency: result.is_ok().then(|| seen - sent.due),
                    seen: result.is_ok().then_some(seen),
                    error: result.as_ref().err().cloned(),
                    report: result.ok(),
                });
            };
            loop {
                // Block for the next submission only when nothing is pending.
                let mut arrived = Vec::new();
                if pending.is_empty() {
                    match rx.recv() {
                        Ok(sent) => arrived.push(sent),
                        Err(_) => break,
                    }
                }
                arrived.extend(rx.try_iter());
                for sent in arrived {
                    match sent.id {
                        Ok(id) => pending.push_back((sent, id)),
                        Err(ref e) => finish(&sent, Instant::now(), Err(format!("submit refused: {e}"))),
                    }
                }
                let Some((sent, id)) = pending.pop_front() else { continue };
                let t = Instant::now();
                let result = client.result_text(id, Some(JOB_TIMEOUT));
                let seen = Instant::now();
                if let Some(tr) = tracer {
                    tr.record("serve.result_wait", t, seen, None, Some(sent.index as u64));
                }
                finish(&sent, seen, outcome(result));
                // Jobs that completed while the older one was awaited are
                // seen now.
                while let Some(&(_, next)) = pending.front() {
                    match client.result_text(next, None) {
                        Err(ClientError::Http { status: 202, .. }) => break,
                        result => {
                            let seen = Instant::now();
                            if let Some((sent, _)) = pending.pop_front() {
                                finish(&sent, seen, outcome(result));
                            }
                        }
                    }
                }
            }
            jobs
        });
        let timings = submitter.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (waiter.join().unwrap_or_else(|p| std::panic::resume_unwind(p)), timings)
    });
    Phase { jobs, submit_ms, late_ms, rss_mb, start }
}

/// One round of the closed loop: one client submits each layout in turn
/// and waits until it is complete before submitting the next. A job's
/// latency runs from its submission until the client sees it complete.
fn closed_round(addr: &str, layouts: &[Layout], tracer: Option<&Tracer>) -> Phase {
    let mut client = Client::connect(addr);
    let start = Instant::now();
    let (mut jobs, mut submit_ms, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    rss_window();
    for (index, layout) in layouts.iter().enumerate() {
        let request = JobRequest::new(job_name(index), layout.clone());
        let t = Instant::now();
        let id = client.submit(&request).map_err(|e| e.to_string());
        let submitted = Instant::now();
        let result = match &id {
            Ok(id) => outcome(client.result_text(*id, Some(JOB_TIMEOUT))),
            Err(e) => Err(format!("submit refused: {e}")),
        };
        let seen = Instant::now();
        if let Some(tr) = tracer {
            tr.record("serve.submit", t, submitted, None, Some(index as u64));
            tr.record("serve.job", t, seen, None, Some(index as u64));
        }
        submit_ms.push(ms(submitted - t));
        jobs.push(Job {
            index,
            layout: index,
            id: id.ok(),
            latency: result.is_ok().then(|| seen - t),
            seen: result.is_ok().then_some(seen),
            error: result.as_ref().err().cloned(),
            report: result.ok(),
        });
        if (index + 1) % RSS_WINDOW_JOBS == 0 {
            rss_mb.push(rss_window());
        }
    }
    Phase { jobs, submit_ms, late_ms: Vec::new(), rss_mb, start }
}

fn outcome(result: Result<String, ClientError>) -> Result<String, String> {
    match result {
        Ok(text) => Ok(text),
        Err(ClientError::Http { status: 202, .. }) => Err("timed out".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Output checks on one phase: complete jobs carry finite qualities and
/// plans within slack, and every job of one layout got the same report
/// and plan as the first one seen (`digests`: per layout, report and
/// plan digests).
fn check_phase(
    out: &mut Outcome,
    phase: &Phase,
    addr: &str,
    layouts: &[Layout],
    digests: &mut [Option<(u64, u64)>],
) {
    let mut client = Client::connect(addr);
    for job in phase.jobs.iter().filter(|j| j.error.is_none()) {
        let (Some(report), Some(id)) = (&job.report, job.id) else { continue };
        let quality = report_quality(report);
        out.check(quality.is_some_and(f64::is_finite), || format!("job {id}: quality {quality:?}"));
        let plan = match client.result_plan(id, None) {
            Ok(plan) => plan,
            Err(e) => {
                out.check(false, || format!("job {id}: fetching plan: {e}"));
                continue;
            }
        };
        let slack = layouts[job.layout].slack_vector();
        out.check(plan_within_slack(&plan, &slack), || format!("job {id}: plan outside [0, slack]"));
        let digest = (report_digest(report), plan_digest(&plan));
        match digests[job.layout] {
            None => digests[job.layout] = Some(digest),
            Some(first) => out.check(first == digest, || {
                format!("job {id}: layout {} served two different results", job.layout)
            }),
        }
    }
}

/// Latency of every complete job of a trial, ms.
fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase.jobs.iter().filter_map(|j| j.latency.map(ms)).collect()
}

/// Start → last job seen of a trial, s.
fn makespan_s(phase: &Phase) -> f64 {
    let last_seen = phase.jobs.iter().filter_map(|j| j.seen).max().unwrap_or(phase.start);
    last_seen.saturating_duration_since(phase.start).as_secs_f64().max(1e-9)
}

/// Each scheduled job's fastest latency over the trials, ms (jobs that
/// completed in no trial are left out).
fn best_latencies_ms(trials: &[Phase], jobs: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; jobs];
    for job in trials.iter().flat_map(|t| &t.jobs) {
        if let Some(latency) = job.latency {
            best[job.index] = best[job.index].min(ms(latency));
        }
    }
    best.retain(|l| l.is_finite());
    best
}

/// How a serve workload's client reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve_8x8`: open-loop Poisson arrivals, [`TRIALS`] trials.
    Open,
    /// `serve_seq_8x8`: one job in flight, rounds over [`SEQ_LAYOUTS`].
    Seq,
}

/// One trial (open loop) or round (closed loop).
fn phase(mode: Mode, addr: &str, layouts: &[Layout], due: &[f64], tracer: Option<&Tracer>) -> Phase {
    match mode {
        Mode::Open => open_loop(addr, layouts, due, tracer),
        Mode::Seq => closed_round(addr, layouts, tracer),
    }
}

pub fn run(args: &RunArgs, tracer: &Tracer, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let journal =
        |tag: &str| PathBuf::from(WORK_DIR).join(format!("journal-{}-{tag}", std::process::id()));
    let count = match mode {
        Mode::Open => LAYOUTS,
        Mode::Seq => SEQ_LAYOUTS,
    };
    let mut rep = 0;
    let mut setup = || {
        rep += 1;
        let bundle = demo_bundle()?;
        let layouts = seeded_layouts(args.seed, count, EDGE, EDGE);
        let service =
            Service::start(Arc::clone(&bundle), journal(&rep.to_string()), Telemetry::disabled())?;
        Ok((bundle, layouts, service))
    };
    let (first_setup, (bundle, layouts, service)) = timed_setup(&mut setup)?;
    let mut setup_times = SetupTimes::new(first_setup);

    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let (jobs, due) = match mode {
        Mode::Open => {
            let jobs = ((RATE_PER_S * seconds / TRIALS as f64).round() as usize).max(1);
            out.info("trials", TRIALS);
            out.info("rate_per_s", RATE_PER_S);
            (jobs, schedule(args.seed, jobs, RATE_PER_S))
        }
        Mode::Seq => (SEQ_LAYOUTS, Vec::new()),
    };
    out.info("jobs", jobs);
    out.info("layouts", format!("{} of {count} x {EDGE}x{EDGE}x3", jobs.min(count)));

    let addr = service.addr()?;
    let mut served = vec![None; layouts.len()];
    let mut phases: Vec<Phase> = Vec::new();
    let start = Instant::now();
    loop {
        let done = match mode {
            Mode::Open => phases.len() == TRIALS,
            Mode::Seq => {
                let next = phases.last().map_or(0.0, makespan_s);
                phases.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() + next > seconds
            }
        };
        if done {
            break;
        }
        let measured = phase(mode, &addr, &layouts, &due, None);
        check_phase(&mut out, &measured, &addr, &layouts, &mut served);
        phases.push(measured);
        for _ in 0..SETUPS_PER_PHASE {
            setup_times.repeat(&mut setup)?;
        }
    }
    drop(service);
    out.set("setup_s", setup_times.median(&mut setup)?);
    let best = best_latencies_ms(&phases, jobs);
    let completed: usize = phases.iter().map(|t| latencies_ms(t).len()).sum();
    out.set("latency_p50_ms", quantile(&best, 0.5));
    out.set("latency_p90_ms", quantile(&best, 0.9));
    match mode {
        Mode::Open => {
            let makespans: Vec<f64> = phases.iter().map(makespan_s).collect();
            out.set("jobs_per_s", completed as f64 / makespans.iter().sum::<f64>());
            out.set("wall_s", makespans.iter().copied().fold(f64::INFINITY, f64::min));
        }
        Mode::Seq => {
            // One client's time for every layout, each at its fastest round.
            let total_s = best.iter().sum::<f64>() / 1e3;
            out.set("jobs_per_s", best.len() as f64 / total_s);
            out.set("wall_s", total_s);
        }
    }
    let qualities: Vec<f64> =
        phases[0].jobs.iter().filter_map(|j| j.report.as_deref().and_then(report_quality)).collect();
    out.set("quality_mean", mean(&qualities));
    out.set(
        "peak_rss_mb",
        median(&phases.iter().flat_map(|t| t.rss_mb.iter().copied()).collect::<Vec<_>>()),
    );
    out.attempted = (jobs * phases.len()) as u64;
    out.failed = out.attempted - completed as u64;
    out.info("phases", phases.len());
    for job in phases.iter().flat_map(|t| &t.jobs).filter(|j| j.error.is_some()).take(3) {
        eprintln!(
            "{}: job of layout {} failed: {}",
            args.workload,
            job.layout,
            job.error.as_deref().unwrap_or("")
        );
    }
    if mode == Mode::Open {
        let late: Vec<f64> = phases.iter().flat_map(|t| t.late_ms.iter().copied()).collect();
        out.info("generator_late_max_ms", format!("{:.3}", quantile(&late, 1.0)));
    }

    if args.trace {
        let telemetry = Telemetry::new();
        neurfill_tensor::telemetry::install(telemetry.clone());
        let service = Service::start(Arc::clone(&bundle), journal("traced"), telemetry)?;
        let addr = service.addr()?;
        let traced = phase(mode, &addr, &layouts, &due, Some(tracer));
        neurfill_tensor::telemetry::install(Telemetry::disabled());
        check_phase(&mut out, &traced, &addr, &layouts, &mut served);
        let metrics =
            Client::connect(addr.as_str()).metrics().map_err(|e| format!("scraping /metrics: {e}"))?;
        drop(service);
        let snapshot = MetricsSnapshot::from_jsonl(&metrics)?;
        let wait = snapshot.histogram("serve.tenant.default.queue_wait_ns");
        let wait_ms = |q: f64| wait.map_or(0.0, |h| h.quantile(q) as f64 / 1e6);
        out.set("serve.submit_ms", quantile(&traced.submit_ms, 0.5));
        out.set("serve.generator_late_ms", quantile(&traced.late_ms, 1.0));
        out.set("runtime.queue_wait_p50_ms", wait_ms(0.5));
        out.set("runtime.queue_wait_p90_ms", wait_ms(0.9));
        let batches = snapshot.counter("runtime.batches_formed").max(1) as f64;
        out.set(
            "runtime.batch_occupancy",
            snapshot.counter("runtime.samples_inferred") as f64 / batches,
        );
        out.set("runtime.jobs_failed", snapshot.counter("runtime.jobs_failed") as f64);
        // One traced trial or round against the median untraced one.
        let untraced_p50 =
            median(&phases.iter().map(|t| quantile(&latencies_ms(t), 0.5)).collect::<Vec<_>>());
        out.set(
            "trace.overhead_pct",
            (quantile(&latencies_ms(&traced), 0.5) / untraced_p50 - 1.0) * 100.0,
        );
    }
    let replayed = flow_replay(&bundle, &layouts[..REPLAYED])?;
    for (k, job) in replayed.iter().enumerate() {
        if let Some((report, plan)) = served[k] {
            out.check(report == job.report_digest && plan == job.plan_digest, || {
                format!("layout {k}: served result differs from the sequential FillingFlow::run replay")
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
