//! # skyferry-stats
//!
//! Descriptive statistics for the measurement campaigns in the skyferry
//! reproduction of Asadpour et al. (CoNEXT 2013).
//!
//! The paper reports its empirical results as
//!
//! * **boxplots** of throughput vs distance (Figures 5 and 7): median,
//!   quartiles, Tukey whiskers, outliers — see [`boxplot`];
//! * **medians** compared across configurations (Figure 6) — see
//!   [`mod@quantile`];
//! * **logarithmic least-squares fits** of the median throughput,
//!   `s(d) = a·log2(d) + b`, with the coefficient of determination R²
//!   (Section 4: R² = 0.90 for airplanes, 0.96 for quadrocopters) — see
//!   [`regression`];
//! * plain summary statistics, typed tables and a JSON writer for the
//!   reproduction harness — see [`summary`], [`table`] and [`json`];
//! * **bootstrap confidence intervals** for the campaign medians — see
//!   [`bootstrap`].
//!
//! Everything operates on `&[f64]` slices, is allocation-light and has no
//! dependencies, so every other crate in the workspace can use it freely.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod boxplot;
pub mod json;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod table;

pub use bootstrap::{median_ci, ConfidenceInterval};
pub use boxplot::BoxplotSummary;
pub use json::Json;
pub use quantile::{median, quantile, Quartiles};
pub use regression::{LinearFit, Log2Fit};
pub use summary::Summary;
pub use table::{Align, Column, ColumnKind, Table, Value};
