//! Time sources for the tracer.
//!
//! Two rules keep traces reproducible:
//!
//! 1. All real-time reads in the workspace funnel through this module
//!    (`monotonic_ns()`), enforced by the `wall-clock` and
//!    `instant-now-outside-clock` lint rules.
//! 2. Trace timestamps come from one of two fixed clocks, chosen by
//!    [`ClockMode`](crate::ClockMode) at [`install`](crate::install)
//!    time: [`monotonic_ns`] for profiling runs, or virtual time for
//!    deterministic runs (tests, `--deterministic`), where each clock
//!    read advances the lane's tick counter by 1,000 ns. Virtual
//!    timestamps are therefore bit-identical across worker counts and
//!    reruns.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since an arbitrary process-local anchor, from the OS
/// monotonic clock. Never goes backwards; unrelated to wall-clock date.
///
/// This is the only sanctioned way to read real time outside this module.
pub fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
