//! # skyferry-core
//!
//! The paper's primary contribution: the **delayed gratification** model
//! for deciding *when and where* a UAV should transmit a collected batch
//! of data to a peer it has just come into radio range with.
//!
//! ## The model (Section 2 of the paper)
//!
//! A UAV carrying `Mdata` bytes meets a hovering receiver at distance
//! `d0`. Transmitting at distance `d ≤ d0` costs
//!
//! ```text
//! Cdelay(d) = Tship + Ttx = (d0 − d)/v + Mdata/s(d)
//! ```
//!
//! where `v` is the cruise speed and `s(d)` the throughput at distance
//! `d`. Waiting is risky — the UAV may fail (weather, collision, battery)
//! while repositioning — so the instantaneous utility `u(d) = 1/Cdelay(d)`
//! is discounted by the survival probability of the extra flight:
//!
//! ```text
//! U(d) = δ(d) · u(d) = exp(−ρ·(d0 − d)) / Cdelay(d)        (Eq. 1)
//! ```
//!
//! The optimal rendezvous distance maximises `U` subject to
//! `dmin ≤ d ≤ d0` (Eq. 2; `dmin = 20 m` for collision safety).
//!
//! ## Modules
//!
//! * [`throughput`] — throughput-vs-distance models: the paper's fitted
//!   `s(d) = 10⁶(a·log2(d) + b)` and empirical interpolation tables;
//! * [`failure`] — survival/discount models (exponential in distance);
//! * [`scenario`] — the full parameter set plus the paper's airplane and
//!   quadrocopter baseline scenarios;
//! * [`delay`] — shipping/transmission/total delay arithmetic;
//! * [`utility`] — Eq. (1);
//! * [`optimizer`] — Eq. (2): grid search with golden-section refinement;
//! * [`strategy`] — the strategy space of Figures 1–2 (transmit now /
//!   move-then-transmit / move-and-transmit) with analytic delivery
//!   curves and crossover analysis;
//! * [`mixed`] — the Section 3.2/7 extension: 2-D optimisation over
//!   (distance, approach speed) with a speed-penalised rate surface;
//! * [`sweep`] — the parameter studies behind Figures 8 and 9;
//! * [`decision`] — an online decision engine for mission planners;
//! * [`request`] — the serving layer's per-request parameter shape with
//!   typed validation, quantized cache keys and a zero-alloc solve path.

#![forbid(unsafe_code)]

/// Online transmit-now-or-later decision engine for planners.
pub mod decision;
/// Communication delay `Cdelay = Tship + Ttx` (Section 2.2).
pub mod delay;
/// Failure / discount models `δ(d)` for the repositioning leg.
pub mod failure;
/// Move-and-transmit strategy mixing (Section 3.2 extension).
pub mod mixed;
/// The Eq. (2) solver: grid scan + golden-section refinement.
pub mod optimizer;
/// Compiled decision tables: versioned, checksummed policy artifacts.
pub mod policy;
/// Per-request decision parameters for the serving layer.
pub mod request;
/// Scenario parameter sets, including the paper's baselines.
pub mod scenario;
/// Hover-vs-move transfer strategy comparison (Figure 1).
pub mod strategy;
/// Parameter sweeps behind Figures 8 and 9.
pub mod sweep;
/// Throughput-vs-distance models `s(d)` (Section 4 fits).
pub mod throughput;
/// The utility function `U(d)` of Eq. (1).
pub mod utility;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::decision::{DecisionEngine, TransferDecision};
    pub use crate::delay::CommunicationDelay;
    pub use crate::failure::{ExponentialFailure, FailureModel};
    pub use crate::mixed::{optimize_mixed, MixedConfig, MixedOutcome};
    pub use crate::optimizer::{optimize, OptimalTransfer};
    pub use crate::request::{DecisionParams, Platform, Quantizer};
    pub use crate::scenario::Scenario;
    pub use crate::strategy::{Strategy, StrategyEvaluation};
    pub use crate::throughput::{EmpiricalThroughput, LogFitThroughput, ThroughputModel};
    pub use crate::utility::utility;
}
