//! Pieces shared by the workloads: seeded inputs, the demo surrogate,
//! order statistics, process probes, digests and the span recorder.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::surrogate::{train_surrogate, SurrogateConfig};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec, Layout};
use neurfill_nn::{TrainConfig, UNetConfig};
use neurfill_runtime::ModelBundle;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool and shard workers of every workload (the reference machine has
/// two cores).
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median. Training the surrogate
/// takes 50–80 ms from one set-up to the next, so a median of five still
/// moved by a third between runs.
const SETUP_REPS: usize = 15;

/// Distinct layouts per run that are also replayed sequentially outside
/// the pool (the first ones of the corpus; two of each design). Each one
/// adds about a second of replay to every run.
pub const REPLAYED: usize = 6;

/// Scratch directory (relative to the working directory) for journals,
/// span traces and the appended run records.
pub const WORK_DIR: &str = ".e2ebench";

/// SplitMix64 finalizer: decorrelates the workload seed from the
/// per-input seeds derived from it.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct `rows × cols` layouts cycling design A/B/C, each
/// generated from its own seed derived from the workload seed.
pub fn seeded_layouts(seed: u64, count: usize, rows: usize, cols: usize) -> Vec<Layout> {
    let kinds = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];
    (0..count)
        .map(|i| DesignSpec::new(kinds[i % kinds.len()], rows, cols, mix(seed, i as u64)).generate())
        .collect()
}

/// A seeded RNG for one named input stream of the workload.
pub fn rng(seed: u64, stream: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(mix(seed, stream))
}

/// The shipped flow configuration under fast process parameters
/// (`runfill --fast` / `neurfill-serve --fast`): SQP runs its default
/// 80 iterations.
pub fn flow_config() -> FlowConfig {
    FlowConfig { process: ProcessParams::fast(), ..FlowConfig::default() }
}

/// Trains the `runfill --init-demo` surrogate (fixed recipe, seed 1) and
/// wraps it as a model bundle.
pub fn demo_bundle() -> Result<Arc<ModelBundle>, String> {
    let sim = CmpSimulator::new(ProcessParams::fast())?;
    let sources = benchmark_designs(8, 8, 1);
    let config = SurrogateConfig {
        unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        train: TrainConfig {
            epochs: 2,
            batch_size: 4,
            lr: 2e-3,
            lr_decay: 1.0,
            ..TrainConfig::default()
        },
        num_layouts: 6,
        datagen: DataGenConfig { rows: 8, cols: 8, seed: 1, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let trained = train_surrogate(&sources, &sim, &config, &mut rng).map_err(|e| e.to_string())?;
    let bundle = ModelBundle::from_network(&trained.network).map_err(|e| e.to_string())?;
    Ok(Arc::new(bundle))
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB since the last
/// [`rss_window`] (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Ends one memory window: returns its peak RSS in MB and restarts the
/// kernel's high-water mark (`/proc/self/clear_refs`), so each window of
/// the measured phase reports its own peak and a workload's
/// `peak_rss_mb` is the median over its windows.
pub fn rss_window() -> f64 {
    let peak = peak_rss_mb();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    peak
}

/// User + system CPU time of this process in seconds (`/proc/self/stat`,
/// fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3, so fields 14/15 sit at offsets 11/12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of a job report with its wall-clock lines (`synthesis_s`, and
/// `overall`, which carries the runtime score) removed.
pub fn report_digest(text: &str) -> u64 {
    let kept: String = text
        .lines()
        .filter(|l| !l.starts_with("synthesis_s ") && !l.starts_with("overall "))
        .map(|l| format!("{l}\n"))
        .collect();
    fnv1a(kept.as_bytes())
}

/// Bit-exact digest of fill amounts.
pub fn plan_digest(amounts: &[f64]) -> u64 {
    let bytes: Vec<u8> = amounts.iter().flat_map(|a| a.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Whether every amount lies in `[0, slack]` of its window.
pub fn plan_within_slack(amounts: &[f64], slack: &[f64]) -> bool {
    amounts.len() == slack.len()
        && amounts.iter().zip(slack).all(|(a, s)| a.is_finite() && *a >= 0.0 && *a <= s + 1e-9)
}

/// The `quality` line of a job report.
pub fn report_quality(text: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix("quality ")).and_then(|v| v.trim().parse().ok())
}

/// Wall time of one set-up, s, and what it built.
pub fn timed_setup<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t = Instant::now();
    let value = f()?;
    Ok((t.elapsed().as_secs_f64(), value))
}

/// The set-up times of one run; `setup_s` is their median. They are the
/// set-up that built the measured instance and repeats made between the
/// measured flows or trials (never while work is being timed), so that the
/// median samples the whole run instead of one moment of host contention.
/// What a repeat builds is dropped at once.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    pub fn new(first: f64) -> Self {
        Self(vec![first])
    }

    /// Times one more set-up, unless [`SETUP_REPS`] are already measured.
    pub fn repeat<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if self.0.len() < SETUP_REPS {
            let (t, built) = timed_setup(f)?;
            drop(built);
            self.0.push(t);
        }
        Ok(())
    }

    /// Tops the repeats up to [`SETUP_REPS`] and returns their median, s.
    pub fn median<T>(mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
        while self.0.len() < SETUP_REPS {
            self.repeat(&mut f)?;
        }
        Ok(median(&self.0))
    }
}

/// One recorded span: a named interval around a call into the program.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: Option<u64>,
}

/// In-memory span recorder, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            job,
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] finishes (for parents whose
    /// children are recorded first).
    pub fn open(&self, name: &'static str, parent: Option<usize>, job: Option<u64>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, job)
    }

    pub fn close(&self, id: usize) {
        let end = Instant::now().saturating_duration_since(self.epoch);
        self.spans.lock().expect("span recorder poisoned by a panicking thread")[id].end = end;
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, job);
        (out, end - start)
    }

    /// Duration of a span and the part of it its direct children cover
    /// (children of one parent never overlap here: they are sequential).
    pub fn covered(&self, id: usize) -> (Duration, Duration) {
        let spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        let own = spans[id].end.saturating_sub(spans[id].start);
        let children =
            spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end.saturating_sub(s.start));
        (own, children.sum())
    }

    /// Writes the spans as JSONL to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"job\":{}}}\n",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                opt(s.parent.map(|p| p as u64)),
                opt(s.job),
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
