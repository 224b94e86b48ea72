//! # neurfill-runtime
//!
//! Concurrent batch fill-synthesis runtime for the NeurFill reproduction:
//! turn a directory of layouts plus one trained surrogate bundle into a
//! stream of per-layout fill reports, using every core without giving up
//! the sequential flow's bit-exact results.
//!
//! Three pieces cooperate:
//!
//! * [`ModelRegistry`] / [`ModelBundle`] — surrogate bundles cached and
//!   shared as serialized bytes (the autograd substrate is thread-local,
//!   so networks themselves never cross threads; every thread hydrates
//!   its own instance from the same bytes).
//! * [`RuntimePool`] — the job queue and worker pool: per-job status,
//!   cooperative deadlines and cancellation, transient-failure retries,
//!   graceful shutdown, and failures that never poison the pool.
//! * [`FaultPlan`] — a deterministic fault-injection harness (panics,
//!   delays, transient errors, NaN-poisoned outputs at named sites) that
//!   drives the supervision layer's tests and stays inert in production.
//!
//! ```no_run
//! use neurfill::pipeline::FlowConfig;
//! use neurfill_runtime::{JobSpec, ModelRegistry, PoolOptions, RuntimePool};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = ModelRegistry::new();
//! let bundle = registry.load("surrogate.bundle")?;
//! let pool = RuntimePool::new(bundle, FlowConfig::default(), PoolOptions::default())?;
//! let layout = neurfill_layout::io::load_from_file("design_a.layout")?;
//! let id = pool.submit(JobSpec::new("design_a", layout))?;
//! println!("{:?}", pool.wait(id));
//! println!("{}", pool.shutdown());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// The supervision layer must never panic on a recoverable condition;
// unwrap/expect are banned outside tests (construction-time invariants
// carry local, justified `allow`s).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod fault;
pub mod job;
pub mod pool;
pub mod registry;
mod stats;

pub use error::{classify, ErrorClass, RetryPolicy, RuntimeError};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultTrigger, WriteFault};
pub use job::{JobId, JobReport, JobSpec, JobStatus};
pub use neurfill::CancelToken;
pub use pool::{default_workers, parallel_map_ordered, PoolOptions, RuntimePool};
pub use registry::{ModelBundle, ModelRegistry};
pub use stats::RuntimeStats;

#[cfg(test)]
pub(crate) mod test_util {
    use neurfill::extraction::NUM_CHANNELS;
    use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
    use neurfill_nn::{UNet, UNetConfig};
    use rand::SeedableRng;

    /// A small randomly-initialized (untrained) network — synthesis and
    /// inference paths behave identically to a trained one.
    pub fn tiny_network(seed: u64) -> CmpNeuralNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default())
    }
}
