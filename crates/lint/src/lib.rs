//! # skyferry-lint
//!
//! A dependency-free, source-level static analysis pass for the
//! skyferry workspace, enforcing the determinism and hygiene invariants
//! the replication engine depends on:
//!
//! * **Determinism** — no wall-clock time (`Instant`/`SystemTime`), no
//!   ambient randomness (`thread_rng`, `rand::`), no iteration-order
//!   dependent collections (`HashMap`/`HashSet`) in result-producing
//!   paths, no silent `as f32` precision loss, and no taint path from
//!   a real-time/env/RNG source into served decision values or golden
//!   CSVs that bypasses the `--deterministic` gate ([`taint`]).
//! * **Dimensional safety** — public model-crate fns must not pass
//!   bare `f64` where a `units` newtype exists for the dimension.
//! * **Serving-path hygiene** — no file I/O, sleeps, or lock-order
//!   hazards inside skyferryd's reader-thread request path; every
//!   proto error kind must be constructed and checked end-to-end.
//! * **Hygiene** — `unsafe` requires a `// SAFETY:` comment, public
//!   items of the model crates (`core`, `phy`) must be documented,
//!   `#[allow(...)]` requires a justification comment, no `dbg!` /
//!   `todo!` / `unimplemented!`, no `env::var` reads outside the bench
//!   harness, no `pub` item that only tests name, and no stale
//!   `lint:allow` escapes.
//!
//! Run it as `cargo run -p skyferry-lint` (add `-- --check` for CI,
//! `-- --sarif PATH` for a machine-readable log, `-- --rules` to list
//! the registry, `-- --allows` to audit escapes). The one way to accept
//! a finding is a justified escape: a file opts out of a legacy rule
//! with a file-level escape, and any rule line-locally:
//!
//! ```text
//! // lint:allow(float-narrowing): wire codec quantises to f32 on purpose
//! let x = y as f32; // lint:allow-line(float-narrowing): checked above
//! ```
//!
//! A `lint:allow-line` on a comment-only line also covers the line
//! directly below it — the attribute-like placement to use on fn
//! signatures, where rustfmt rewraps trailing comments into the body.
//!
//! The analysis pipeline is [`lexer`] (byte-accurate tokens) →
//! [`scanner`] (per-line code/comment views derived from the tokens) →
//! [`items`] (per-file fn/enum/use model) → [`taint`] (workspace
//! symbol map + call-graph rules) → [`rules`] (the registry). Text
//! and escape-audit output lives in [`report`], SARIF emission in
//! [`sarif`].

#![forbid(unsafe_code)]

pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod scanner;
pub mod taint;
pub mod walk;

pub use rules::{lint_source, registry, Finding, Severity};
