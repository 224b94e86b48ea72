//! Runtime counters, shared lock-free between workers and the caller.
//!
//! The counters are telemetry [`Counter`] handles registered under
//! `runtime.*` names. They always count — when the caller attached no
//! telemetry they live in a private registry — so [`RuntimeStats`] (and
//! the stats line every CLI prints) reads identically whether or not
//! telemetry export is on. Spans, events and latency histograms, by
//! contrast, go through the caller's own handle ([`StatsInner::events`])
//! and cost nothing when that handle is disabled.

use neurfill_obs::{Counter, Histogram, MetricsSnapshot, Telemetry};
use std::fmt;
use std::time::Duration;

/// Internal shared handles; snapshot through [`RuntimeStats`].
#[derive(Debug)]
pub(crate) struct StatsInner {
    /// The registry the `runtime.*` counters are registered in (always
    /// enabled; private unless the caller attached their own handle).
    registry: Telemetry,
    /// The caller's telemetry handle for spans, events and latency
    /// histograms — disabled (free) unless explicitly attached.
    pub events: Telemetry,
    pub jobs_submitted: Counter,
    pub jobs_completed: Counter,
    pub jobs_failed: Counter,
    pub jobs_degraded: Counter,
    pub retries: Counter,
    pub batches_formed: Counter,
    pub samples_inferred: Counter,
    pub hydrations: Counter,
    pub hydrate_nanos: Counter,
    pub synthesis_nanos: Counter,
    pub verify_nanos: Counter,
    pub queue_wait: Histogram,
    pub job_synthesis: Histogram,
    pub job_verify: Histogram,
    pub batch_occupancy: Histogram,
}

impl StatsInner {
    /// Registers the runtime's counters. `telemetry` may be disabled: the
    /// counters then live in a private enabled registry (so stats always
    /// count) while histograms and events stay no-ops.
    pub fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.or_enabled();
        Self {
            jobs_submitted: registry.counter("runtime.jobs_submitted"),
            jobs_completed: registry.counter("runtime.jobs_completed"),
            jobs_failed: registry.counter("runtime.jobs_failed"),
            jobs_degraded: registry.counter("runtime.jobs_degraded"),
            retries: registry.counter("runtime.retries"),
            batches_formed: registry.counter("runtime.batches_formed"),
            samples_inferred: registry.counter("runtime.samples_inferred"),
            hydrations: registry.counter("runtime.hydrations"),
            hydrate_nanos: registry.counter("runtime.hydrate_ns"),
            synthesis_nanos: registry.counter("runtime.synthesis_ns"),
            verify_nanos: registry.counter("runtime.verify_ns"),
            queue_wait: telemetry.histogram("job.queue_wait_ns"),
            job_synthesis: telemetry.histogram("job.synthesis_ns"),
            job_verify: telemetry.histogram("job.verify_ns"),
            batch_occupancy: telemetry.histogram("batch.occupancy"),
            events: telemetry.clone(),
            registry,
        }
    }

    /// Everything recorded in the registry the counters live in — the
    /// whole shared registry when the caller attached one (simulator,
    /// optimizer and flow metrics included), just the `runtime.*` counters
    /// otherwise.
    pub fn registry_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    pub fn snapshot(&self) -> RuntimeStats {
        let batches = self.batches_formed.get();
        let samples = self.samples_inferred.get();
        RuntimeStats {
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_degraded: self.jobs_degraded.get(),
            retries: self.retries.get(),
            batches_formed: batches,
            samples_inferred: samples,
            mean_batch_occupancy: if batches == 0 { 0.0 } else { samples as f64 / batches as f64 },
            hydrations: self.hydrations.get(),
            hydrate: Duration::from_nanos(self.hydrate_nanos.get()),
            synthesis: Duration::from_nanos(self.synthesis_nanos.get()),
            verify: Duration::from_nanos(self.verify_nanos.get()),
        }
    }
}

impl Default for StatsInner {
    fn default() -> Self {
        Self::new(&Telemetry::disabled())
    }
}

/// A point-in-time snapshot of the runtime's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that finished with a report.
    pub jobs_completed: u64,
    /// Jobs that failed (error, panic or timeout).
    pub jobs_failed: u64,
    /// Jobs that completed but fell back to golden-simulator verification
    /// because the surrogate heights failed the numeric health guard.
    pub jobs_degraded: u64,
    /// Job attempts re-run after a transient failure.
    pub retries: u64,
    /// Verification forwards run (one per job attempt that reaches
    /// verification, over all of the job's layers).
    pub batches_formed: u64,
    /// Window samples (layers) verified across all forwards.
    pub samples_inferred: u64,
    /// `samples_inferred / batches_formed` — the mean layer count of the
    /// verified jobs.
    pub mean_batch_occupancy: f64,
    /// Networks hydrated from bundle bytes (once per worker).
    pub hydrations: u64,
    /// Wall-clock spent hydrating networks (summed across threads).
    pub hydrate: Duration,
    /// Wall-clock spent in fill synthesis (summed across workers).
    pub synthesis: Duration,
    /// Wall-clock spent in surrogate verification (summed across
    /// workers).
    pub verify: Duration,
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} completed, {} failed",
            self.jobs_submitted, self.jobs_completed, self.jobs_failed
        )?;
        writeln!(
            f,
            "inference: {} samples in {} batches (occupancy {:.2})",
            self.samples_inferred, self.batches_formed, self.mean_batch_occupancy
        )?;
        writeln!(f, "resilience: {} retries, {} degraded", self.retries, self.jobs_degraded)?;
        write!(
            f,
            "stages: hydrate {:.3}s x{}, synthesis {:.3}s, verify {:.3}s",
            self.hydrate.as_secs_f64(),
            self.hydrations,
            self.synthesis.as_secs_f64(),
            self.verify.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_samples_per_batch() {
        let inner = StatsInner::default();
        inner.batches_formed.add(4);
        inner.samples_inferred.add(10);
        let snap = inner.snapshot();
        assert!((snap.mean_batch_occupancy - 2.5).abs() < 1e-12);
        assert_eq!(StatsInner::default().snapshot().mean_batch_occupancy, 0.0);
    }

    #[test]
    fn display_mentions_every_headline_number() {
        let inner = StatsInner::default();
        inner.jobs_submitted.add(7);
        inner.samples_inferred.add(21);
        inner.batches_formed.add(3);
        inner.retries.add(2);
        inner.jobs_degraded.add(1);
        let text = inner.snapshot().to_string();
        assert!(text.contains("7 submitted"));
        assert!(text.contains("occupancy 7.00"));
        assert!(text.contains("2 retries"));
        assert!(text.contains("1 degraded"));
    }

    #[test]
    fn counters_land_in_an_attached_registry_under_runtime_names() {
        let t = Telemetry::new();
        let inner = StatsInner::new(&t);
        inner.jobs_submitted.inc();
        inner.retries.add(3);
        let snap = t.snapshot();
        assert_eq!(snap.counter("runtime.jobs_submitted"), 1);
        assert_eq!(snap.counter("runtime.retries"), 3);
        // The registry snapshot is the same registry.
        assert_eq!(inner.registry_snapshot().counter("runtime.retries"), 3);
    }

    #[test]
    fn detached_stats_still_count_but_record_no_events() {
        let inner = StatsInner::default();
        inner.jobs_completed.add(2);
        assert_eq!(inner.snapshot().jobs_completed, 2);
        assert!(!inner.events.is_enabled());
        // The private registry still exposes the counters.
        assert_eq!(inner.registry_snapshot().counter("runtime.jobs_completed"), 2);
        assert!(inner.registry_snapshot().events.is_empty());
    }
}
