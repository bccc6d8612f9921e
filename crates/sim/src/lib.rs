//! # skyferry-sim
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! Everything in the skyferry workspace that has a notion of "time passing"
//! — MAC frame exchanges, UAV motion, telemetry, battery drain — runs on top
//! of this crate. The design goals mirror the ones of event-driven network
//! stacks such as smoltcp:
//!
//! * **Determinism.** Given the same seed and the same sequence of scheduled
//!   events, a simulation produces bit-identical results on every run and
//!   every platform. Ties in event time are broken by insertion order.
//! * **Simplicity.** The engine is a time-ordered priority queue plus a
//!   seeded random-number generator; it has no threads, no interior
//!   mutability and no global state. The crate's only process-wide state
//!   is the [`parallel`] worker cap and [`rng`]'s registry of shared
//!   standard-normal tapes, and neither changes a result.
//!
//! ## Architecture
//!
//! The engine is generic over a user-defined event type `E`:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — nanosecond-resolution
//!   simulated clock (u64/i64 wrappers, no floating point drift).
//! * [`queue::EventQueue`] — the pending-event set. Scheduling and
//!   popping cost one heap operation and hash nothing.
//! * [`engine::Simulation`] — a run loop that pops events and hands them to
//!   a handler together with a scheduling context.
//! * [`rng`] — seeded, splittable random streams so that independent model
//!   components draw from independent substreams, and
//!   [`rng::NormalStream`], which shares the standard normals of one
//!   stream between every reader that starts at the same position.
//! * [`parallel`] — deterministic fan-out of independent simulations
//!   (campaign replications, parameter sweeps) over OS threads, with
//!   order-preserving collection and per-task seed derivation so results
//!   are identical at any thread count.
//!
//! ## Example
//!
//! ```
//! use skyferry_sim::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_in(SimDuration::from_millis(1), Ev::Ping);
//! let mut log = Vec::new();
//! sim.run(|ctx, ev| {
//!     match ev {
//!         Ev::Ping => {
//!             ctx.schedule_in(SimDuration::from_millis(2), Ev::Pong);
//!         }
//!         Ev::Pong => {}
//!     }
//!     log.push(ctx.now());
//! });
//! assert_eq!(log, vec![SimTime::from_millis(1), SimTime::from_millis(3)]);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod stable;
pub mod time;

/// Convenient glob-import surface: `use skyferry_sim::prelude::*`.
pub mod prelude {
    pub use crate::engine::{Context, RunOutcome, Simulation};
    pub use crate::parallel::{
        max_threads, par_map, par_map_grid, par_map_indexed, run_replications, set_max_threads,
    };
    pub use crate::queue::EventQueue;
    pub use crate::rng::{DetRng, SeedStream};
    pub use crate::time::{SimDuration, SimTime};
}
