//! # neurfill
//!
//! A from-scratch Rust reproduction of **NeurFill: Migrating Full-Chip CMP
//! Simulators to Neural Networks for Model-Based Dummy Filling Synthesis**
//! (Cai et al., DAC 2021).
//!
//! The crate assembles the paper's full pipeline on top of the workspace
//! substrates:
//!
//! * [`score`] — the filling-quality metrics and Table II/III scoring.
//! * [`pd`] — analytic performance-degradation estimation (overlay via
//!   four-type region insertion, Eq. 12–17).
//! * [`extraction`] — the differentiable extraction layer (layout + fill →
//!   parameter matrix `L`).
//! * [`CmpNeuralNetwork`] — extraction + pre-trained UNet + objective
//!   layers: `S_plan` by forward propagation, `∇S_plan` by backward
//!   propagation (Eq. 10–11).
//! * [`surrogate`] — UNet pre-training with the two-step random procedure
//!   (Fig. 8, Eq. 20) and the Fig. 9 accuracy evaluation.
//! * [`pkb`] — prior-knowledge-based starting points (Eq. 18).
//! * [`NeurFill`] — the MSP-SQP framework with PKB or multi-modal (NMMSO)
//!   starting points (Fig. 7).
//! * [`baselines`] — Lin [10], Tao [11] and Cai [12] comparison methods.
//! * [`report`] — golden-simulator evaluation and Table III formatting.
//!
//! # Example
//!
//! ```no_run
//! use neurfill::{surrogate, Coefficients, NeurFill, NeurFillConfig};
//! use neurfill_cmpsim::{CmpSimulator, ProcessParams};
//! use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let sources = benchmark_designs(32, 32, 7);
//! let sim = CmpSimulator::new(ProcessParams::default())?;
//!
//! // Pre-train the UNet surrogate of the simulator (Fig. 8).
//! let trained = surrogate::train_surrogate(
//!     &sources, &sim, &surrogate::SurrogateConfig::default(), &mut rng)?;
//!
//! // Synthesize fill for Design A with the PKB-started MSP-SQP framework.
//! let layout = DesignSpec::new(DesignKind::CmpTest, 32, 32, 7).generate();
//! let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
//! let neurfill = NeurFill::new(trained.network, NeurFillConfig::default());
//! let outcome = neurfill.run(&layout, &coeffs)?;
//! println!("filled {:.0} µm² in {:?}", outcome.plan.total(), outcome.runtime);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod cancel;
mod cmp_nn;
pub mod extraction;
mod framework;
pub mod pd;
pub mod persist;
pub mod pipeline;
pub mod pkb;
pub mod report;
pub mod score;
pub mod surrogate;

/// Structured telemetry (re-export of `neurfill-obs`): metric handles,
/// span timing, mergeable snapshots and JSONL export. Attach a
/// [`telemetry::Telemetry`] through [`pipeline::FlowConfig`] to instrument
/// a flow end to end.
pub use neurfill_obs as telemetry;

pub use cancel::CancelToken;
pub use cmp_nn::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, PlanarityEval};
pub use framework::{FillObjective, FillOutcome, NeurFill, NeurFillConfig, StartMode};
/// Re-exported from `neurfill-cmpsim`: the one-variant numerics tier of
/// [`pipeline::FlowConfig::numerics`].
pub use neurfill_cmpsim::NumericsTier;
pub use score::{Alphas, Coefficients, PlanarityMetrics, ScoreBreakdown};
