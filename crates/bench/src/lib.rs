//! # skyferry-bench
//!
//! The reproduction harness: one module per table/figure of the paper,
//! each regenerating the same rows/series the paper reports, from the
//! skyferry simulation stack. The `repro` binary drives them; the
//! benches in `benches/` time their compute kernels on the local
//! [`microbench`] harness (the workspace builds fully offline, so no
//! Criterion).
//!
//! | Experiment | Paper artefact | Module |
//! |---|---|---|
//! | `table1` | Table 1 — platform features | [`experiments::table1`] |
//! | `fig1` | Fig. 1 — transmitted data vs time per strategy | [`experiments::fig1`] |
//! | `fig4` | Fig. 4 — GPS traces of both platforms | [`experiments::fig4`] |
//! | `fig5` | Fig. 5 — airplane throughput vs distance boxplots | [`experiments::fig5`] |
//! | `fig6` | Fig. 6 — best fixed MCS vs auto rate | [`experiments::fig6`] |
//! | `fig7` | Fig. 7 — quadrocopter hover/move/speed throughput | [`experiments::fig7`] |
//! | `fig8` | Fig. 8 — U(d) for various ρ | [`experiments::fig8`] |
//! | `fig9` | Fig. 9 — delayed gratification across Mdata and v | [`experiments::fig9`] |
//! | `fits` | §4 — log-fit coefficients and R² | [`experiments::fits`] |
//! | `mdata` | §2.2 fn. 3/4 — camera-geometry Mdata derivation | [`experiments::mdata`] |

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod microbench;
pub mod policy;
pub mod report;
pub mod solver_calls;
pub mod store;
pub mod verify;

pub use experiments::{Experiment, ExperimentError};
pub use report::{ExperimentReport, ReproConfig};
pub use store::CampaignStore;
