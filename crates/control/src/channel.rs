//! The XBeePro-class control channel.
//!
//! 250 kbit/s on-air rate, ~1.5 km usable range, 2.4 GHz (deliberately
//! away from the 5 GHz data channel "to avoid interferences … as it is
//! reserved for critical messages"). The model captures what matters to
//! the planner loop: per-message airtime at the low rate, a hard range
//! cutoff with a soft loss zone near the edge, and a per-message base
//! loss floor for 2.4 GHz clutter.

use skyferry_sim::rng::DetRng;
use skyferry_sim::time::SimDuration;

/// Channel parameters (defaults = XBeePro of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlChannelConfig {
    /// On-air bit rate, bit/s.
    pub rate_bps: f64,
    /// Range within which delivery is reliable, metres.
    pub reliable_range_m: f64,
    /// Hard maximum range, metres; loss ramps linearly between the two.
    pub max_range_m: f64,
    /// Loss probability floor even at point-blank range (2.4 GHz is a
    /// busy band).
    pub base_loss: f64,
    /// Fixed per-message overhead: 802.15.4 PHY+MAC header bytes.
    pub overhead_bytes: usize,
}

impl Default for ControlChannelConfig {
    fn default() -> Self {
        ControlChannelConfig {
            rate_bps: 250_000.0,
            reliable_range_m: 1_200.0,
            max_range_m: 1_500.0,
            base_loss: 0.02,
            overhead_bytes: 17,
        }
    }
}

/// A point-to-point control link instance.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    config: ControlChannelConfig,
    rng: DetRng,
    sent: u64,
    delivered: u64,
}

/// Outcome of one message send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendOutcome {
    /// Airtime consumed on the shared channel.
    pub airtime: SimDuration,
    /// `true` if the message arrived intact.
    pub delivered: bool,
}

impl ControlChannel {
    /// New channel with the given config and RNG substream.
    pub fn new(config: ControlChannelConfig, rng: DetRng) -> Self {
        assert!(config.rate_bps > 0.0);
        assert!(config.reliable_range_m > 0.0 && config.max_range_m >= config.reliable_range_m);
        assert!((0.0..1.0).contains(&config.base_loss));
        ControlChannel {
            config,
            rng,
            sent: 0,
            delivered: 0,
        }
    }

    /// The paper's XBeePro defaults.
    pub fn xbee_pro(rng: DetRng) -> Self {
        Self::new(ControlChannelConfig::default(), rng)
    }

    /// Airtime of a `payload`-byte message at the channel rate.
    pub fn airtime_for(&self, payload_bytes: usize) -> SimDuration {
        let bits = 8.0 * (payload_bytes + self.config.overhead_bytes) as f64;
        SimDuration::from_secs_f64(bits / self.config.rate_bps)
    }

    /// Loss probability at the given range.
    pub fn loss_probability(&self, distance_m: f64) -> f64 {
        assert!(distance_m >= 0.0);
        if distance_m >= self.config.max_range_m {
            return 1.0;
        }
        if distance_m <= self.config.reliable_range_m {
            return self.config.base_loss;
        }
        let edge = (distance_m - self.config.reliable_range_m)
            / (self.config.max_range_m - self.config.reliable_range_m);
        self.config.base_loss + (1.0 - self.config.base_loss) * edge
    }

    /// Transmit a `payload_bytes` message over `distance_m`; samples
    /// delivery.
    pub fn send(&mut self, payload_bytes: usize, distance_m: f64) -> SendOutcome {
        let airtime = self.airtime_for(payload_bytes);
        let lost = self.rng.chance(self.loss_probability(distance_m));
        self.sent += 1;
        if !lost {
            self.delivered += 1;
        }
        SendOutcome {
            airtime,
            delivered: !lost,
        }
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(seed: u64) -> ControlChannel {
        ControlChannel::xbee_pro(DetRng::seed(seed))
    }

    #[test]
    fn airtime_at_250kbps() {
        let c = channel(1);
        // 32-byte telemetry + 17 overhead = 49 B = 392 bits → 1.568 ms.
        let t = c.airtime_for(32).as_secs_f64();
        assert!((t - 1.568e-3).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn loss_profile() {
        let c = channel(2);
        assert_eq!(c.loss_probability(100.0), 0.02);
        assert_eq!(c.loss_probability(1_200.0), 0.02);
        assert_eq!(c.loss_probability(1_500.0), 1.0);
        assert_eq!(c.loss_probability(5_000.0), 1.0);
        let mid = c.loss_probability(1_350.0);
        assert!((0.4..0.6).contains(&mid), "mid={mid}");
    }

    #[test]
    fn in_range_mostly_delivers() {
        let mut c = channel(3);
        for _ in 0..1000 {
            c.send(32, 500.0);
        }
        let ratio = c.delivered() as f64 / c.sent() as f64;
        assert!((ratio - 0.98).abs() < 0.02, "ratio={ratio}");
    }

    #[test]
    fn out_of_range_never_delivers() {
        let mut c = channel(4);
        for _ in 0..100 {
            let out = c.send(16, 2_000.0);
            assert!(!out.delivered);
            assert!(out.airtime > SimDuration::ZERO);
        }
    }

    #[test]
    fn telemetry_rate_supports_full_fleet() {
        // 10 UAVs at 1 Hz telemetry: 10 × 1.568 ms ≈ 1.6 % duty cycle —
        // the 250 kb/s channel is nowhere near saturation, matching the
        // paper's design choice.
        let c = channel(5);
        let per_second = c.airtime_for(32).as_secs_f64() * 10.0;
        assert!(per_second < 0.05, "duty={per_second}");
    }
}
