//! A full search-and-rescue mission, end to end.
//!
//! ```text
//! cargo run --release --example sar_mission
//! ```
//!
//! One quadrocopter scans a 100 m × 100 m sector at 10 m altitude,
//! photographing the ground (the paper's footnote-4 geometry) while a
//! second quadrocopter hovers as the relay. When the scan finishes, the
//! central planner — fed by XBee telemetry — runs the delayed
//! gratification decision and commands the scanner to reposition and
//! transmit. The example then simulates the full-stack transfer and
//! compares it against the naive transmit-immediately behaviour.

use skyferry::control::channel::ControlChannel;
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
use skyferry::uav::autopilot::Autopilot;
use skyferry::uav::battery::Battery;
use skyferry::uav::kinematics::UavKinematics;
use skyferry::uav::platform::PlatformSpec;
use skyferry::uav::sensing::CameraProcess;
use skyferry_units::{Meters, MetersPerSec};

const DT: f64 = 0.1;

fn main() {
    println!("skyferry SAR mission\n");
    let seeds = SeedStream::new(2013);

    // --- Phase 1: scan the sector, accumulating image data. ------------
    let spec = PlatformSpec::quadrocopter();
    let sector = Sector::paper_quadrocopter();
    let camera = CameraModel::paper_default();
    let plan = sector.lawnmower_plan(&camera, 10.0);
    println!(
        "scan plan: {} waypoints, {:.0} m path",
        plan.len(),
        plan.path_length_m()
    );

    let mut scanner = UavKinematics::at(spec, Vec3::new(0.0, 0.0, 10.0));
    let mut autopilot = Autopilot::with_plan(plan);
    let mut sensor = CameraProcess::new(camera, Meters::new(10.0));
    let mut battery = Battery::full(&spec);
    let mut t = 0.0;
    while !autopilot.is_done() && t < 3600.0 {
        let cmd = autopilot.update(&scanner, DT);
        scanner.step(cmd, DT);
        sensor.observe(scanner.position);
        battery.drain(
            SimDuration::from_secs_f64(DT),
            scanner.ground_speed().get() > 0.5,
        );
        t += DT;
    }
    let mdata = sensor.data().get();
    println!(
        "scan done in {:.0} s: {} images, {:.1} MB collected, battery at {:.0} %\n",
        t,
        sensor.images_captured(),
        mdata / 1e6,
        battery.remaining_fraction() * 100.0
    );

    // --- Phase 2: telemetry to the planner over the XBee channel. ------
    // The relay hovers 80 m east of the scan area's far corner — the
    // scanner comes into range at roughly the Figure 1 geometry.
    let relay_pos = Vec3::new(180.0, 97.0, 10.0);
    let scanner_report = Telemetry {
        uav: UavId(1),
        position: scanner.position,
        speed_mps: scanner.ground_speed().get(),
        battery_fraction: battery.remaining_fraction(),
        data_ready_bytes: mdata as u64,
    };
    let relay_report = Telemetry {
        uav: UavId(2),
        position: relay_pos,
        speed_mps: 0.0,
        battery_fraction: 0.9,
        data_ready_bytes: 0,
    };

    let mut xbee = ControlChannel::xbee_pro(seeds.rng("xbee"));
    let ground_station = Vec3::new(-200.0, 0.0, 0.0);
    for report in [&scanner_report, &relay_report] {
        let out = xbee.send(
            Telemetry::WIRE_BYTES,
            report.position.distance(ground_station),
        );
        println!(
            "telemetry from UAV{}: {} bytes, {:.2} ms airtime, {}",
            report.uav.0,
            Telemetry::WIRE_BYTES,
            out.airtime.as_secs_f64() * 1e3,
            if out.delivered { "delivered" } else { "lost" }
        );
    }

    // --- Phase 3: the planner decides. ----------------------------------
    let engine = DecisionEngine::from_scenario(&Scenario::quadrocopter_baseline());
    let mut planner = CentralPlanner::new(engine, spec);
    let now = SimTime::from_secs_f64(t);
    planner.ingest(now, scanner_report);
    planner.ingest(now, relay_report);
    let order = planner
        .plan_transfer(now, UavId(1), UavId(2))
        .expect("planner must issue an order");
    let d0 = planner
        .distance_between(UavId(1), UavId(2))
        .expect("both tracked");
    println!("\nplanner: carrier at d0 = {d0:.0} m from relay");
    let (profile, label): (MotionProfile, &str) = match order.command {
        Command::Transmit { .. } => (MotionProfile::hover(d0), "transmit in place"),
        Command::GotoThenTransmit { target, .. } => {
            let d_target = target.distance(relay_pos);
            println!(
                "planner: move to ({:.0}, {:.0}) — separation {:.0} m — then transmit",
                target.x, target.y, d_target
            );
            (
                MotionProfile::approach(d0, spec.cruise_speed_mps, d_target),
                "move then transmit",
            )
        }
        Command::Goto { .. } => unreachable!("planner never issues bare goto here"),
    };

    // --- Phase 4: fly the transfer on the full stack. -------------------
    let campaign = CampaignConfig {
        preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(600),
        seed: seeds.derive("transfer"),
    };
    let planned = run_transfer(&campaign, profile, mdata as u64, true, label, 0);
    let naive = run_transfer(
        &campaign,
        MotionProfile::hover(d0),
        mdata as u64,
        false,
        "transmit immediately",
        0,
    );

    let fmt = |o: &skyferry::net::campaign::TransferOutcome| {
        o.completion
            .map(|t| format!("{:.1} s", t.as_secs_f64()))
            .unwrap_or_else(|| "did not finish".into())
    };
    println!("\nresults for {:.1} MB:", mdata / 1e6);
    println!("  planned  ({label}): {}", fmt(&planned));
    println!("  naive    (transmit at {d0:.0} m): {}", fmt(&naive));
    match (planned.completion, naive.completion) {
        (Some(p), Some(n)) if p < n => println!(
            "  delayed gratification saved {:.1} s ({:.0} %)",
            (n - p).as_secs_f64(),
            (n - p).as_secs_f64() / n.as_secs_f64() * 100.0
        ),
        _ => println!("  (no saving this run — try a different seed)"),
    }
}
