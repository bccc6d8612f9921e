//! Control-plane messages.
//!
//! Telemetry (UAV → planner) carries what the paper lists: "GPS
//! coordinates, speed, etc." plus battery state and the amount of sensed
//! data awaiting delivery. On the XBee channel model it is a fixed-size
//! record of [`Telemetry::WIRE_BYTES`], small enough to fit an 802.15.4
//! frame budget (≤ 102 payload bytes after MAC overhead), and the
//! channel charges airtime for that size. Commands (planner → UAV) carry
//! "new waypoints from the planner" and transfer orders; the mission
//! simulator applies them directly.

use skyferry_geo::vector::Vec3;

/// Identifier of one UAV in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UavId(pub u16);

/// One telemetry report from a UAV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Telemetry {
    /// Reporting UAV.
    pub uav: UavId,
    /// Position in the mission ENU frame (from the GPS model), metres.
    pub position: Vec3,
    /// Ground speed, m/s.
    pub speed_mps: f64,
    /// Remaining battery fraction `[0, 1]`.
    pub battery_fraction: f64,
    /// Bytes of collected data awaiting delivery.
    pub data_ready_bytes: u64,
}

/// One command from the planner to a UAV.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Fly to a waypoint (ENU metres).
    Goto {
        /// Commanded target.
        target: Vec3,
    },
    /// Begin transmitting the collected batch to `peer`.
    Transmit {
        /// Receiving UAV (or ground station id 0).
        peer: UavId,
    },
    /// Fly to `target`, then transmit to `peer` upon arrival — the
    /// move-then-transmit strategy as a single order.
    GotoThenTransmit {
        /// Commanded rendezvous position.
        target: Vec3,
        /// Receiving UAV.
        peer: UavId,
    },
}

impl Telemetry {
    /// Size of one report on the wire: a fixed little-endian record of
    /// kind(1) + id(2) + pos(12, three f32) + speed(4, f32) + battery(4,
    /// f32) + ready(8) + checksum(1).
    pub const WIRE_BYTES: usize = 32;
}

// 802.15.4 carries at most ~102 MAC payload bytes; a report must fit one
// frame.
const _: () = assert!(Telemetry::WIRE_BYTES <= 102);
