//! Throughput metering with fixed-width time bins.
//!
//! The paper measures "throughput between two flying airplanes, measured
//! using UDP traffic and the iperf tool"; iperf reports per-interval
//! (default 1 s) application-layer goodput. [`ThroughputMeter`] reproduces
//! that: feed it `(time, bytes)` delivery events, read back one Mb/s
//! sample per elapsed bin.

use skyferry_sim::time::{SimDuration, SimTime};

/// Accumulates delivered bytes into fixed-width bins.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    bin: SimDuration,
    bin_start: SimTime,
    bin_bytes: u64,
    samples_mbps: Vec<f64>,
    total_bytes: u64,
}

impl ThroughputMeter {
    /// A meter with iperf's default 1-second reporting interval.
    pub fn one_second() -> Self {
        Self::new(SimDuration::from_secs(1))
    }

    /// A meter with a custom bin width.
    ///
    /// # Panics
    /// Panics if `bin` is not strictly positive.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        ThroughputMeter {
            bin,
            bin_start: SimTime::ZERO,
            bin_bytes: 0,
            samples_mbps: Vec::new(),
            total_bytes: 0,
        }
    }

    fn roll_to(&mut self, now: SimTime) {
        while now >= self.bin_start + self.bin {
            let mbps = self.bin_bytes as f64 * 8.0 / self.bin.as_secs_f64() / 1e6;
            self.samples_mbps.push(mbps);
            self.bin_bytes = 0;
            self.bin_start += self.bin;
        }
    }

    /// Record `bytes` delivered at time `now`. Times must be
    /// non-decreasing across calls.
    pub fn record(&mut self, now: SimTime, bytes: usize) {
        assert!(now >= self.bin_start, "meter fed out of order");
        self.roll_to(now);
        self.bin_bytes += bytes as u64;
        self.total_bytes += bytes as u64;
    }

    /// Close all bins up to `now` without recording bytes (call at the end
    /// of a run so trailing empty bins are emitted).
    pub fn finish(&mut self, now: SimTime) {
        self.roll_to(now);
    }

    /// Completed per-bin samples, in Mb/s.
    pub fn samples_mbps(&self) -> &[f64] {
        &self.samples_mbps
    }

    /// Total bytes recorded (including the open bin).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_close_on_time() {
        let mut m = ThroughputMeter::one_second();
        m.record(SimTime::from_millis(100), 125_000); // 1 Mb in bin 0
        m.record(SimTime::from_millis(1_500), 250_000); // 2 Mb in bin 1
        m.finish(SimTime::from_secs(2));
        assert_eq!(m.samples_mbps(), &[1.0, 2.0]);
        assert_eq!(m.total_bytes(), 375_000);
    }

    #[test]
    fn empty_bins_are_zero() {
        let mut m = ThroughputMeter::one_second();
        m.record(SimTime::from_millis(100), 125_000);
        m.record(SimTime::from_millis(3_100), 125_000);
        m.finish(SimTime::from_secs(4));
        assert_eq!(m.samples_mbps(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn open_bin_not_reported() {
        let mut m = ThroughputMeter::one_second();
        m.record(SimTime::from_millis(500), 1_000);
        assert!(m.samples_mbps().is_empty());
        assert_eq!(m.total_bytes(), 1_000);
    }

    #[test]
    fn custom_bin_width() {
        let mut m = ThroughputMeter::new(SimDuration::from_millis(500));
        m.record(SimTime::from_millis(100), 62_500); // 0.5 Mb
        m.finish(SimTime::from_secs(1));
        assert_eq!(m.samples_mbps(), &[1.0, 0.0]);
    }

    #[test]
    fn bytes_land_in_their_bins() {
        let mut m = ThroughputMeter::one_second();
        m.record(SimTime::from_millis(1), 125_000);
        m.record(SimTime::from_millis(1_001), 375_000);
        m.finish(SimTime::from_secs(2));
        assert_eq!(m.samples_mbps(), &[1.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_order_rejected() {
        let mut m = ThroughputMeter::one_second();
        m.record(SimTime::from_secs(5), 1);
        m.record(SimTime::from_secs(1), 1);
    }
}
