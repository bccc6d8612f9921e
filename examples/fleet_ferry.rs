//! A fleet of scanners ferrying data through one relay.
//!
//! ```text
//! cargo run --release --example fleet_ferry [-- <num-scanners>]
//! ```
//!
//! The paper's vision (Section 6): "the scarce number of UAVs flying in
//! the area requires that any mission-oriented UAV can become a ferry."
//! This example partitions a large area into per-UAV sectors, has each
//! scanner collect its batch, and then lets the central planner sequence
//! deliveries to a shared hovering relay — each scanner applying the
//! delayed-gratification rendezvous rule, with its failure rate derived
//! live from its battery state.

use skyferry::control::message::{Command, Telemetry, UavId};
use skyferry::control::planner::CentralPlanner;
use skyferry::core::prelude::*;
use skyferry::geo::camera::CameraModel;
use skyferry::geo::sector::Sector;
use skyferry::geo::vector::Vec3;
use skyferry::net::campaign::{run_transfer, CampaignConfig, ControllerKind};
use skyferry::net::profile::MotionProfile;
use skyferry::phy::presets::ChannelPreset;
use skyferry::sim::prelude::*;
use skyferry::uav::battery::Battery;
use skyferry::uav::failure::FailureProcess;
use skyferry::uav::platform::PlatformSpec;
use skyferry_units::{Meters, MetersPerSec};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .clamp(1, 16);
    println!("skyferry fleet ferry — {n} scanners, 1 relay\n");

    let seeds = SeedStream::new(77);
    let spec = PlatformSpec::quadrocopter();
    let camera = CameraModel::paper_default();

    // Partition a 200 m × 200 m area into sectors, one per scanner.
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let area = Sector::new(Vec3::ZERO, 200.0, 200.0);
    let sectors = area.grid(cols, rows);
    let relay_pos = Vec3::new(100.0, 100.0, 10.0);

    let engine = DecisionEngine::from_scenario(Scenario::quadrocopter_baseline());
    let mut planner = CentralPlanner::new(engine, spec);
    let now = SimTime::from_secs(600);

    // Each scanner finished its sweep somewhere in its sector with a
    // battery state depending on how much it flew.
    let mut carriers = Vec::new();
    for (i, sector) in sectors.iter().take(n).enumerate() {
        let id = UavId(i as u16 + 1);
        let plan = sector.lawnmower_plan(&camera, 10.0);
        let scan_path = plan.path_length_m();
        let mdata = camera.mdata_bytes(sector.area_m2(), 10.0);
        let mut battery = Battery::full(&spec);
        battery.drain(
            SimDuration::from_secs_f64(scan_path / spec.cruise_speed_mps),
            true,
        );
        let position = sector.center(10.0);
        planner.ingest(
            now,
            Telemetry {
                uav: id,
                position,
                speed_mps: 0.0,
                battery_fraction: battery.remaining_fraction(),
                data_ready_bytes: mdata as u64,
            },
        );
        carriers.push((id, position, mdata, battery));
        println!(
            "UAV{} scanned {:.0} m² ({:.0} m path): {:.1} MB ready, battery {:.0} %",
            id.0,
            sector.area_m2(),
            scan_path,
            mdata / 1e6,
            battery.remaining_fraction() * 100.0
        );
    }
    planner.ingest(
        now,
        Telemetry {
            uav: UavId(0),
            position: relay_pos,
            speed_mps: 0.0,
            battery_fraction: 1.0,
            data_ready_bytes: 0,
        },
    );

    // The planner sequences the deliveries; we fly each on the full stack.
    println!("\ndeliveries:");
    let mut total_delay = 0.0;
    let mut delivered_mb = 0.0;
    let mut failures = 0;
    for (i, (id, position, mdata, battery)) in carriers.iter().enumerate() {
        let Some(order) = planner.plan_transfer(now, *id, UavId(0)) else {
            println!("UAV{}: no order (insufficient data?)", id.0);
            continue;
        };
        let d0 = position.distance(relay_pos);
        let (profile, target_d) = match order.command {
            Command::Transmit { .. } => (MotionProfile::hover(d0.max(20.0)), d0),
            Command::GotoThenTransmit { target, .. } => {
                let d_t = target.distance(relay_pos).max(20.0);
                (
                    MotionProfile::approach(d0.max(d_t), spec.cruise_speed_mps, d_t),
                    d_t,
                )
            }
            Command::Goto { .. } => unreachable!(),
        };

        // Sample whether the airframe survives the repositioning leg.
        let rho = 1.0
            / battery
                .remaining_range(skyferry_units::MetersPerSec::new(spec.cruise_speed_mps))
                .get();
        let mut failure = FailureProcess::sample(rho, &mut seeds.rng_indexed("failure", i as u64));
        let leg = (d0 - target_d).max(0.0);
        if !failure.travel(Meters::new(leg)) {
            println!(
                "UAV{}: LOST after {:.0} m of the {:.0} m repositioning leg",
                id.0,
                failure.travelled().get().min(leg),
                leg
            );
            failures += 1;
            continue;
        }

        let campaign = CampaignConfig {
            preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
            controller: ControllerKind::Arf,
            duration: SimDuration::from_secs(900),
            seed: seeds.derive_indexed("ferry", i as u64),
        };
        let out = run_transfer(&campaign, profile, *mdata as u64, true, "ferry", 0);
        match out.completion {
            Some(t) => {
                println!(
                    "UAV{}: d0 = {:.0} m → transmit at {:.0} m, delivered {:.1} MB in {:.1} s",
                    id.0,
                    d0,
                    target_d,
                    *mdata / 1e6,
                    t.as_secs_f64()
                );
                total_delay += t.as_secs_f64();
                delivered_mb += *mdata / 1e6;
            }
            None => println!("UAV{}: transfer did not finish in time", id.0),
        }
    }

    println!(
        "\nfleet summary: {delivered_mb:.1} MB delivered, {failures} airframe(s) lost, {:.0} s total communication delay",
        total_delay
    );
}
