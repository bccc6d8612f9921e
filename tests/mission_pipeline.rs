//! End-to-end mission pipeline: scan → sense → telemetry → plan → fly →
//! transfer — the sar_mission example, as assertions.

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

struct ScanResult {
    end_position: Vec3,
    mdata_bytes: f64,
    battery: Battery,
    scan_seconds: f64,
}

fn fly_scan() -> ScanResult {
    let spec = PlatformSpec::quadrocopter();
    let sector = Sector::paper_quadrocopter();
    let camera = CameraModel::paper_default();
    let plan = sector.lawnmower_plan(&camera, 10.0);
    let mut kin = UavKinematics::at(spec, Vec3::new(0.0, 0.0, 10.0));
    let mut ap = Autopilot::with_plan(plan);
    let mut sensor = CameraProcess::new(camera, Meters::new(10.0));
    let mut battery = Battery::full(&spec);
    let mut t = 0.0;
    while !ap.is_done() && t < 3600.0 {
        let cmd = ap.update(&kin, DT);
        kin.step(cmd, DT);
        sensor.observe(kin.position);
        battery.drain(
            SimDuration::from_secs_f64(DT),
            kin.ground_speed().get() > 0.5,
        );
        t += DT;
    }
    assert!(ap.is_done(), "scan did not finish");
    ScanResult {
        end_position: kin.position,
        mdata_bytes: sensor.data().get(),
        battery,
        scan_seconds: t,
    }
}

#[test]
fn scan_collects_papers_mdata_within_battery() {
    let scan = fly_scan();
    // Footnote 4: Mdata ≈ 56.2 MB for the 0.01 km² sector; the flown
    // lawnmower overshoots slightly because strips quantise.
    let mb = scan.mdata_bytes / 1e6;
    assert!((45.0..75.0).contains(&mb), "Mdata = {mb} MB");
    // The sweep must fit comfortably into the 20-minute battery.
    assert!(scan.scan_seconds < 900.0, "scan took {}", scan.scan_seconds);
    assert!(
        scan.battery.remaining_fraction() > 0.2,
        "battery at {}",
        scan.battery.remaining_fraction()
    );
}

#[test]
fn planner_commands_rendezvous_and_transfer_beats_naive() {
    let scan = fly_scan();
    let relay_pos = Vec3::new(180.0, 97.0, 10.0);
    let spec = PlatformSpec::quadrocopter();

    let mut planner = CentralPlanner::new(
        DecisionEngine::from_scenario(Scenario::quadrocopter_baseline()),
        spec,
    );
    let now = SimTime::from_secs_f64(scan.scan_seconds);
    planner.ingest(
        now,
        Telemetry {
            uav: UavId(1),
            position: scan.end_position,
            speed_mps: 0.0,
            battery_fraction: scan.battery.remaining_fraction(),
            data_ready_bytes: scan.mdata_bytes as u64,
        },
    );
    planner.ingest(
        now,
        Telemetry {
            uav: UavId(2),
            position: relay_pos,
            speed_mps: 0.0,
            battery_fraction: 0.9,
            data_ready_bytes: 0,
        },
    );

    let order = planner
        .plan_transfer(now, UavId(1), UavId(2))
        .expect("planner issues an order");
    let d0 = scan.end_position.distance(relay_pos);
    assert!(d0 > 60.0, "test geometry: encounter at {d0:.0} m");

    // A big batch far out must trigger repositioning.
    let target_d = match order.command {
        Command::GotoThenTransmit { target, .. } => {
            let d = target.distance(relay_pos);
            assert!(
                d < d0 - 10.0,
                "rendezvous {d:.0} m should be well inside {d0:.0} m"
            );
            d
        }
        other => panic!("expected GotoThenTransmit, got {other:?}"),
    };

    // Fly both the planned and naive transfers on the full stack.
    let campaign = CampaignConfig {
        preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(900),
        seed: 1234,
    };
    let planned = run_transfer(
        &campaign,
        MotionProfile::approach(d0, spec.cruise_speed_mps, target_d.max(20.0)),
        scan.mdata_bytes as u64,
        true,
        "planned",
        0,
    );
    let naive = run_transfer(
        &campaign,
        MotionProfile::hover(d0),
        scan.mdata_bytes as u64,
        false,
        "naive",
        0,
    );
    let planned_t = planned.completion.expect("planned completes").as_secs_f64();
    // If the naive transfer starved entirely at ~84 m, that's also a win.
    if let Some(naive_t) = naive.completion {
        let naive_t = naive_t.as_secs_f64();
        assert!(
            planned_t < naive_t * 0.8,
            "planned {planned_t:.1}s vs naive {naive_t:.1}s"
        );
    }
}
