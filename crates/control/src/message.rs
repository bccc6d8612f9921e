//! Control-plane messages.
//!
//! Telemetry (UAV → planner) carries what the paper lists: "GPS
//! coordinates, speed, etc." plus battery state and the amount of sensed
//! data awaiting delivery. It travels over the XBee channel model as a
//! fixed-size little-endian record with a simple checksum, small enough
//! to fit an 802.15.4 frame budget (≤ 102 payload bytes after MAC
//! overhead), so the channel charges airtime for its real size.
//! Commands (planner → UAV) carry "new waypoints from the planner" and
//! transfer orders; the mission simulator applies them directly.

// lint:allow(float-narrowing): the wire codec quantises telemetry to
// f32 on purpose — the message format fixes field widths, and decode
// tolerances account for the rounding.
use bytes::{Buf, BufMut, Bytes, BytesMut};
use skyferry_geo::vector::Vec3;

/// Identifier of one UAV in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UavId(pub u16);

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes for the declared structure.
    Truncated,
    /// Unknown message discriminant.
    UnknownKind(u8),
    /// Checksum mismatch.
    BadChecksum,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

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

const KIND_TELEMETRY: u8 = 0x01;

fn checksum(data: &[u8]) -> u8 {
    data.iter().fold(0u8, |acc, &b| acc.wrapping_add(b)) ^ 0x5A
}

fn put_vec3(buf: &mut BytesMut, v: Vec3) {
    buf.put_f32_le(v.x as f32);
    buf.put_f32_le(v.y as f32);
    buf.put_f32_le(v.z as f32);
}

fn get_vec3(buf: &mut Bytes) -> Vec3 {
    let x = buf.get_f32_le() as f64;
    let y = buf.get_f32_le() as f64;
    let z = buf.get_f32_le() as f64;
    Vec3::new(x, y, z)
}

impl Telemetry {
    /// Serialise to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(KIND_TELEMETRY);
        buf.put_u16_le(self.uav.0);
        put_vec3(&mut buf, self.position);
        buf.put_f32_le(self.speed_mps as f32);
        buf.put_f32_le(self.battery_fraction as f32);
        buf.put_u64_le(self.data_ready_bytes);
        let ck = checksum(&buf);
        buf.put_u8(ck);
        buf.freeze()
    }

    /// Parse from wire bytes.
    pub fn decode(mut data: Bytes) -> Result<Telemetry, CodecError> {
        if data.len() != Self::WIRE_BYTES {
            return Err(CodecError::Truncated);
        }
        let body = &data[..data.len() - 1];
        if checksum(body) != data[data.len() - 1] {
            return Err(CodecError::BadChecksum);
        }
        let kind = data.get_u8();
        if kind != KIND_TELEMETRY {
            return Err(CodecError::UnknownKind(kind));
        }
        let uav = UavId(data.get_u16_le());
        let position = get_vec3(&mut data);
        let speed = data.get_f32_le() as f64;
        let battery = data.get_f32_le() as f64;
        let ready = data.get_u64_le();
        Ok(Telemetry {
            uav,
            position,
            speed_mps: speed,
            battery_fraction: battery,
            data_ready_bytes: ready,
        })
    }

    /// Encoded size: kind(1) + id(2) + pos(12) + speed(4) + battery(4)
    /// + ready(8) + checksum(1).
    pub const WIRE_BYTES: usize = 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry() -> Telemetry {
        Telemetry {
            uav: UavId(7),
            position: Vec3::new(120.5, -30.25, 80.0),
            speed_mps: 10.5,
            battery_fraction: 0.62,
            data_ready_bytes: 28_000_000,
        }
    }

    #[test]
    fn telemetry_roundtrip() {
        let t = telemetry();
        let wire = t.encode();
        assert_eq!(wire.len(), Telemetry::WIRE_BYTES);
        let back = Telemetry::decode(wire).unwrap();
        assert_eq!(back.uav, t.uav);
        assert!(back.position.distance(t.position) < 1e-3); // f32 rounding
        assert!((back.speed_mps - t.speed_mps).abs() < 1e-3);
        assert!((back.battery_fraction - t.battery_fraction).abs() < 1e-3);
        assert_eq!(back.data_ready_bytes, t.data_ready_bytes);
    }

    #[test]
    fn telemetry_fits_802154_frame() {
        // 802.15.4 max MAC payload is ~102-116 bytes; telemetry must fit
        // with margin. (Checked through the encoder so the assertion is
        // not constant-folded away.)
        assert!(telemetry().encode().len() <= 102);
    }

    #[test]
    fn corrupted_telemetry_rejected() {
        let mut wire = telemetry().encode().to_vec();
        wire[5] ^= 0xff;
        assert_eq!(
            Telemetry::decode(Bytes::from(wire)),
            Err(CodecError::BadChecksum)
        );
    }
}
