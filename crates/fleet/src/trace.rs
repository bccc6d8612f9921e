//! JSONL export of fleet-generated request streams.
//!
//! Each line is one UAV's decision request as it would arrive at the
//! ground segment: an arrival timestamp plus the *contended-equivalent*
//! single-link parameters. The contention mapping is exact:
//!
//! * the slot-share discount `σ·s(d)` is algebraically identical to
//!   inflating the batch to `Mdata/σ` over the undiscounted link
//!   (`Ttx = M/(σ·s) = (M/σ)/s`), and
//! * the slot-retention hazard folds into the failure rate as
//!   `ρ' = ρ + λ/v`.
//!
//! So a generic `skyferryd` — which knows nothing about fleets — solves
//! each replayed request into *exactly* the d\* the fleet campaign
//! computed, and `skyferry-loadgen --fleet-trace` can gate bit-identical
//! d\* streams across shard counts against these events.
//!
//! Line format (a superset of the loadgen request object; `t` is the
//! arrival offset in seconds, `uav`/`station`/`contenders` are
//! provenance):
//!
//! ```json
//! {"t":63.1,"uav":4,"station":1,"contenders":3,
//!  "platform":"quadrocopter","d0":212.4,"mdata":30.0,
//!  "rho":9.13e-4,"speed":4.5}
//! ```

use skyferry_stats::json::Json;
use skyferry_uav::platform::PlatformKind;

use crate::campaign::{FleetConfig, FleetOutcome};

/// One request arrival in a fleet trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival offset from campaign start, seconds.
    pub t_s: f64,
    /// Originating UAV index.
    pub uav: usize,
    /// Assigned ground station.
    pub station: usize,
    /// Contenders sharing that station (including the sender).
    pub contenders: usize,
    /// Platform id (`airplane` / `quadrocopter`).
    pub platform: &'static str,
    /// Encounter distance, metres.
    pub d0_m: f64,
    /// Contended-equivalent batch size, MB (`Mdata/σ`).
    pub mdata_mb: f64,
    /// Contended-equivalent failure rate, 1/m (`ρ + λ/v`).
    pub rho_per_m: f64,
    /// Cruise speed, m/s.
    pub speed_mps: f64,
}

impl TraceEvent {
    /// Render as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        Json::obj([
            ("t", Json::Num(self.t_s)),
            ("uav", Json::Num(self.uav as f64)),
            ("station", Json::Num(self.station as f64)),
            ("contenders", Json::Num(self.contenders as f64)),
            ("platform", Json::str(self.platform)),
            ("d0", Json::Num(self.d0_m)),
            ("mdata", Json::Num(self.mdata_mb)),
            ("rho", Json::Num(self.rho_per_m)),
            ("speed", Json::Num(self.speed_mps)),
        ])
        .render()
    }
}

/// A fleet-generated request stream, sorted by arrival time.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Events in arrival order (ties broken by UAV index).
    pub events: Vec<TraceEvent>,
}

impl FleetTrace {
    /// Build the request stream of one campaign outcome.
    pub fn from_outcome(config: &FleetConfig, outcome: &FleetOutcome) -> Self {
        let platform = match config.platform {
            PlatformKind::Airplane => "airplane",
            PlatformKind::Quadrocopter => "quadrocopter",
        };
        let base = config.base_scenario();
        let medium = config.medium.access();
        let mut events: Vec<TraceEvent> = outcome
            .decisions
            .iter()
            .map(|d| {
                let share = medium.slot_share(d.contenders);
                TraceEvent {
                    t_s: d.arrival_s,
                    uav: d.uav,
                    station: d.station,
                    contenders: d.contenders,
                    platform,
                    d0_m: d.d0_m,
                    mdata_mb: config.mdata_mb / share,
                    rho_per_m: d.rho_eff_per_m,
                    speed_mps: base.v_mps,
                }
            })
            .collect();
        events.sort_by(|a, b| {
            a.t_s
                .partial_cmp(&b.t_s)
                .expect("finite arrival times")
                .then(a.uav.cmp(&b.uav))
        });
        FleetTrace { events }
    }

    /// Concatenate several outcomes (replications) into one stream,
    /// offsetting each replication so arrivals never interleave.
    pub fn from_replications(config: &FleetConfig, outcomes: &[FleetOutcome]) -> Self {
        let mut events = Vec::new();
        let mut offset = 0.0f64;
        for out in outcomes {
            let rep = Self::from_outcome(config, out);
            let span = rep.events.last().map_or(0.0, |e| e.t_s);
            events.extend(rep.events.into_iter().map(|mut e| {
                e.t_s += offset;
                e
            }));
            offset += span + config.wave_gap_s;
        }
        FleetTrace { events }
    }

    /// Render the whole stream as JSONL (one event per line, trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FleetCampaign, MediumSpec};
    use crate::medium::{contended, CyclicalTdma, UdMac};
    use skyferry_core::failure::FailureSpec;
    use skyferry_core::optimizer::optimize;
    use skyferry_core::scenario::Scenario;

    fn outcome() -> (FleetConfig, FleetOutcome) {
        let config = FleetConfig::baseline(6, 2, MediumSpec::Tdma(CyclicalTdma::BASELINE));
        let out = FleetCampaign::new(config.clone()).replicate(0x7E57, 1);
        (config, out.into_iter().next().expect("one replication"))
    }

    #[test]
    fn events_sorted_and_complete() {
        let (config, out) = outcome();
        let trace = FleetTrace::from_outcome(&config, &out);
        assert_eq!(trace.events.len(), 6);
        for w in trace.events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 6);
        for line in jsonl.lines() {
            let v = skyferry_stats::json::parse(line).expect("valid JSON line");
            for key in ["t", "platform", "d0", "mdata", "rho", "speed"] {
                assert!(v.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn contended_equivalence_round_trips_through_request_params() {
        // The exported (d0, mdata, rho, speed) must make a *generic*
        // single-link scenario whose optimum equals the fleet's
        // contended optimum — this is what lets skyferryd replay fleet
        // traffic without knowing about fleets.
        let (config, out) = outcome();
        let trace = FleetTrace::from_outcome(&config, &out);
        let base = config.base_scenario();
        let by_uav = |u: usize| {
            trace
                .events
                .iter()
                .find(|e| e.uav == u)
                .expect("event per uav")
        };
        for d in &out.decisions {
            let e = by_uav(d.uav);
            let equivalent = Scenario::quadrocopter_baseline()
                .with_d0(e.d0_m)
                .with_mdata_mb(e.mdata_mb)
                .with_rho(e.rho_per_m)
                .with_speed(e.speed_mps);
            let direct = contended(base.with_d0(d.d0_m), config.medium.access(), d.contenders);
            let a = optimize(equivalent);
            let b = optimize(direct.scenario());
            // `M/σ / s(d)` and `M / (σ·s(d))` differ only in float
            // association, so the optima agree to well below the
            // optimizer's 1e-3 m transmit-now tolerance.
            assert!(
                (a.d_opt - b.d_opt).abs() < 1e-4,
                "uav {}: equivalent d*={} contended d*={}",
                d.uav,
                a.d_opt,
                b.d_opt
            );
        }
    }

    #[test]
    fn exported_rho_is_the_contended_failure_rate() {
        // The quick `fleet` experiment's cells: K = 8, G = 3, both media.
        let media = [
            MediumSpec::Tdma(CyclicalTdma::BASELINE),
            MediumSpec::UdMac(UdMac::BASELINE),
        ];
        for medium in media {
            let config = FleetConfig::baseline(8, 3, medium);
            let outs = FleetCampaign::new(config.clone()).replicate(0x7E57, 2);
            let base = config.base_scenario();
            let trace = FleetTrace::from_replications(&config, &outs);
            assert_eq!(trace.events.len(), 16);
            for e in &trace.events {
                let c = contended(base.with_d0(e.d0_m), medium.access(), e.contenders);
                match c.scenario().failure {
                    FailureSpec::Exponential(f) => {
                        assert_eq!(e.rho_per_m.to_bits(), f.rho_per_m.to_bits(), "{e:?}");
                    }
                    FailureSpec::Weibull(_) => panic!("contended law is exponential"),
                }
            }
        }
    }

    #[test]
    fn replications_never_interleave() {
        let config = FleetConfig::baseline(4, 2, MediumSpec::Tdma(CyclicalTdma::BASELINE));
        let outs = FleetCampaign::new(config.clone()).replicate(3, 3);
        let trace = FleetTrace::from_replications(&config, &outs);
        assert_eq!(trace.events.len(), 12);
        for w in trace.events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "arrivals must be globally sorted");
        }
    }
}
