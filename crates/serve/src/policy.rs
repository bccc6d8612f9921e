//! Serving state for a compiled policy table.
//!
//! When `skyferryd` is started with `--policy <file>`, the decoded
//! [`PolicyTable`] lives here behind an `Arc` shared by every shard, and
//! the shard that parses an in-range decide request answers it directly
//! — one O(1) index (or a 16-corner multilinear blend with
//! `--policy-interp`), a handful of relaxed atomic counter bumps, and a
//! response. No optimizer, no LRU, no lock, no cross-shard routing.
//! Out-of-range requests fall back to the exact engine of the shard that
//! owns their key and bump the `fallbacks` counter, so the table's
//! coverage is observable in `STATS`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use skyferry_core::policy::PolicyTable;
use skyferry_core::request::DecisionParams;
use skyferry_stats::json::Json;
use skyferry_units::Meters;

use crate::metrics::AtomicLatency;
use crate::proto::Decision;

/// How the server should serve a compiled policy table.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// The decoded, checksum-verified table.
    pub table: Arc<PolicyTable>,
    /// Interpolate between cell centres instead of nearest-cell lookup.
    pub interpolate: bool,
}

/// Live serving state: the table plus its lock-free counters.
#[derive(Debug)]
pub struct PolicyState {
    table: Arc<PolicyTable>,
    interpolate: bool,
    enabled: AtomicBool,
    served: AtomicU64,
    fallbacks: AtomicU64,
    latency: AtomicLatency,
}

impl PolicyState {
    /// Wrap a loaded table for serving (enabled by default).
    pub fn new(cfg: PolicyConfig) -> PolicyState {
        PolicyState {
            table: cfg.table,
            interpolate: cfg.interpolate,
            enabled: AtomicBool::new(true),
            served: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            latency: AtomicLatency::new(),
        }
    }

    /// Answer validated params from the table, or `None` when the
    /// request is out of the grid's range (the caller then routes it to
    /// the exact engine and calls [`record_fallback`]).
    ///
    /// In lookup mode the `transmit_now` judgement uses the cell
    /// centre's `d0` — the same snapped-parameter semantics as the
    /// quantized cache — so the full response body is bit-identical to
    /// the cached path. In interpolation mode it uses the raw `d0`.
    ///
    /// [`record_fallback`]: PolicyState::record_fallback
    pub fn decide(&self, p: &DecisionParams) -> Option<Decision> {
        if self.interpolate {
            let t = self.table.interpolate(p)?;
            Some(Decision {
                transfer: t,
                transmit_now: t.transmit_now(Meters::new(p.d0_m)),
                cache_hit: false,
                policy_hit: true,
            })
        } else {
            let cell = self.table.grid.cell_of(p)?;
            let t = *self.table.value(cell);
            let d0_snapped = self.table.grid.params_at(cell).d0_m;
            Some(Decision {
                transfer: t,
                transmit_now: t.transmit_now(Meters::new(d0_snapped)),
                cache_hit: false,
                policy_hit: true,
            })
        }
    }

    /// Count one table-served decision and its service latency.
    pub fn record_served(&self, us: f64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency.record(us);
    }

    /// Count one out-of-range request routed to the exact engine.
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Decisions served from the table since the last reset.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Out-of-range fallbacks since the last reset.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Is the table currently answering requests? (`{"cmd": "policy",
    /// "enabled": false}` routes everything to the exact engine.)
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle table serving at runtime (the `policy` control request).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Zero the counters (the `reset` control request). The enabled
    /// flag is configuration, not a counter, and survives.
    pub fn reset(&self) {
        self.served.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        self.latency.clear();
    }

    /// The `policy` block of the `STATS` response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("loaded", Json::Bool(true)),
            ("enabled", Json::Bool(self.enabled())),
            ("interpolate", Json::Bool(self.interpolate)),
            ("cells", Json::Int(self.table.len() as i64)),
            ("seed", Json::Int(self.table.seed as i64)),
            ("served", Json::Int(self.served() as i64)),
            ("fallbacks", Json::Int(self.fallbacks() as i64)),
            ("latency", self.latency.snapshot().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::policy::PolicyGrid;
    use skyferry_core::request::Platform;

    fn state(interpolate: bool) -> PolicyState {
        let table = PolicyTable::build(PolicyGrid::quick(), 1);
        PolicyState::new(PolicyConfig {
            table: Arc::new(table),
            interpolate,
        })
    }

    #[test]
    fn lookup_mode_matches_cell_centre_solve_bitwise() {
        let s = state(false);
        let grid = PolicyGrid::quick();
        let cell = grid.cells() / 3;
        let centre = grid.params_at(cell);
        let d = s.decide(&centre).expect("in range");
        let exact = centre.solve();
        assert_eq!(d.transfer, exact);
        assert!(d.policy_hit);
        assert!(!d.cache_hit);
        // A jittered request in the same bucket gets the same answer.
        let mut p = centre;
        p.d0_m += grid.d0.step * 0.3;
        let d2 = s.decide(&p).expect("in range");
        assert_eq!(d2.transfer, exact);
    }

    #[test]
    fn out_of_range_returns_none_and_counts_nothing() {
        let s = state(false);
        let mut p = DecisionParams::baseline(Platform::Airplane);
        p.d0_m = 5000.0;
        assert!(s.decide(&p).is_none());
        assert_eq!(s.served(), 0);
        s.record_fallback();
        assert_eq!(s.fallbacks(), 1);
    }

    #[test]
    fn counters_toggle_and_reset() {
        let s = state(true);
        s.record_served(12.0);
        s.record_served(15.0);
        s.record_fallback();
        assert_eq!(s.served(), 2);
        assert_eq!(s.fallbacks(), 1);
        assert!(s.enabled());
        s.set_enabled(false);
        assert!(!s.enabled());
        s.reset();
        assert_eq!(s.served(), 0);
        assert_eq!(s.fallbacks(), 0);
        assert!(!s.enabled(), "reset leaves the enable flag alone");
        let j = s.to_json();
        assert_eq!(j.get("loaded").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("enabled").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("interpolate").and_then(Json::as_bool), Some(true));
        assert!(j.get("cells").and_then(Json::as_i64).expect("cells") > 0);
    }
}
