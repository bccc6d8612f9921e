//! The host-fed transmit queue.
//!
//! On the paper's platforms the Wi-Fi adapter hangs off a Gumstix
//! computer-on-module over USB; the host cannot always source payload as
//! fast as the radio can drain it. "If the physical rate is too high, the
//! embedded system may not fill the buffer fast enough, resulting in a
//! lower number of A-MPDU sub-frames." [`TxQueue`] models exactly that: a
//! byte reservoir refilled at a finite rate, bounded by a buffer size,
//! drained by the MAC when it assembles an A-MPDU.

use skyferry_sim::time::SimTime;

/// A saturated traffic source feeding a driver queue at a finite rate.
///
/// Time only moves forward: all calls must pass non-decreasing `now`
/// values (debug-asserted), mirroring its use from a DES event loop.
#[derive(Debug, Clone)]
pub struct TxQueue {
    fill_rate_bps: f64,
    capacity_bytes: f64,
    level_bytes: f64,
    last_update: SimTime,
    /// Total bytes ever handed to the MAC.
    drained_bytes: u64,
    /// When `Some(n)`, the source stops after delivering `n` more bytes
    /// into the queue (finite transfer); `None` = saturated iperf flow.
    remaining_source_bytes: Option<f64>,
}

impl TxQueue {
    /// A saturated (iperf-style) source at `fill_rate_bps` into a buffer
    /// of `capacity_bytes`.
    pub fn saturated(fill_rate_bps: f64, capacity_bytes: usize) -> Self {
        assert!(fill_rate_bps > 0.0 && capacity_bytes > 0);
        TxQueue {
            fill_rate_bps,
            capacity_bytes: capacity_bytes as f64,
            // The buffer starts full: iperf is started before the test.
            level_bytes: capacity_bytes as f64,
            last_update: SimTime::ZERO,
            drained_bytes: 0,
            remaining_source_bytes: None,
        }
    }

    /// A finite transfer of `total_bytes` (a collected image batch),
    /// arriving into the buffer at `fill_rate_bps`.
    pub fn finite(total_bytes: u64, fill_rate_bps: f64, capacity_bytes: usize) -> Self {
        let mut q = Self::saturated(fill_rate_bps, capacity_bytes);
        let initial = (capacity_bytes as f64).min(total_bytes as f64);
        q.level_bytes = initial;
        q.remaining_source_bytes = Some(total_bytes as f64 - initial);
        q
    }

    fn refill(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        self.last_update = now;
        if dt <= 0.0 {
            return;
        }
        // A full buffer back-pressures the source: bytes are never
        // generated-and-dropped, so finite transfers conserve their total.
        // (`unget` may leave the level above capacity; clamp at zero.)
        let mut add = (self.fill_rate_bps * dt / 8.0)
            .min(self.capacity_bytes - self.level_bytes)
            .max(0.0);
        if let Some(rem) = self.remaining_source_bytes.as_mut() {
            add = add.min(*rem);
            *rem -= add;
        }
        self.level_bytes += add;
        // Once a finite source is fully drained, snap the level to the
        // nearest byte: the fractional adds above sum to an integer by
        // construction, and snapping removes the accumulated f64 error
        // that would otherwise strand the final byte below the floor.
        if self.remaining_source_bytes.is_some_and(|r| r < 0.5) {
            self.remaining_source_bytes = Some(0.0);
            self.level_bytes = self.level_bytes.round();
        }
    }

    /// Bytes available for aggregation at time `now`.
    pub fn available_bytes(&mut self, now: SimTime) -> usize {
        self.refill(now);
        self.level_bytes as usize
    }

    /// Remove up to `bytes` from the queue at time `now`; returns the
    /// amount actually taken. Only whole bytes leave the queue — the
    /// fractional remainder stays behind so no data is ever lost to
    /// float truncation.
    pub fn take(&mut self, now: SimTime, bytes: usize) -> usize {
        self.refill(now);
        let taken = (bytes as f64).min(self.level_bytes).floor();
        self.level_bytes -= taken;
        self.drained_bytes += taken as u64;
        taken as usize
    }

    /// Put bytes back (failed subframes are retained for retransmission
    /// at the head of the queue; capacity is allowed to overshoot so
    /// retries are never dropped).
    pub fn unget(&mut self, bytes: usize) {
        self.level_bytes += bytes as f64;
        self.drained_bytes = self.drained_bytes.saturating_sub(bytes as u64);
    }

    /// Total bytes drained to the MAC so far.
    pub fn drained_bytes(&self) -> u64 {
        self.drained_bytes
    }

    /// `true` once a finite source is exhausted and the buffer empty.
    // lint:allow-line(test-only-pub): the drain-to-empty harness of tests/mac_properties.rs::finite_queue_conserves_bytes
    pub fn is_exhausted(&mut self, now: SimTime) -> bool {
        self.refill(now);
        self.level_bytes < 1.0 && self.remaining_source_bytes.is_some_and(|r| r < 1.0)
    }

    /// The configured fill rate, bit/s.
    pub fn fill_rate_bps(&self) -> f64 {
        self.fill_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_sim::time::SimDuration;

    #[test]
    fn saturated_starts_full() {
        let mut q = TxQueue::saturated(32e6, 65_536);
        assert_eq!(q.available_bytes(SimTime::ZERO), 65_536);
    }

    #[test]
    fn drain_then_refill_at_rate() {
        let mut q = TxQueue::saturated(8e6, 100_000); // 1 MB/s
        let t0 = SimTime::ZERO;
        q.take(t0, 100_000);
        assert_eq!(q.available_bytes(t0), 0);
        // After 10 ms at 1 MB/s: 10 kB.
        let t1 = t0 + SimDuration::from_millis(10);
        let avail = q.available_bytes(t1);
        assert!((avail as i64 - 10_000).abs() < 10, "avail={avail}");
    }

    #[test]
    fn refill_saturates_at_capacity() {
        let mut q = TxQueue::saturated(1e9, 10_000);
        q.take(SimTime::ZERO, 5_000);
        let later = SimTime::from_secs(10);
        assert_eq!(q.available_bytes(later), 10_000);
    }

    #[test]
    fn take_partial_when_insufficient() {
        let mut q = TxQueue::saturated(8e6, 1_000);
        let got = q.take(SimTime::ZERO, 5_000);
        assert_eq!(got, 1_000);
        assert_eq!(q.drained_bytes(), 1_000);
    }

    #[test]
    fn finite_source_exhausts() {
        let total = 20_000;
        let mut q = TxQueue::finite(total, 80e6, 10_000);
        let mut now = SimTime::ZERO;
        let mut moved = 0;
        for _ in 0..100 {
            now += SimDuration::from_millis(10);
            moved += q.take(now, 4_000);
            if q.is_exhausted(now) {
                break;
            }
        }
        assert_eq!(moved as u64, total);
        assert!(q.is_exhausted(now));
    }

    #[test]
    fn unget_restores_bytes_for_retry() {
        let mut q = TxQueue::finite(10_000, 80e6, 10_000);
        let t = SimTime::ZERO;
        let taken = q.take(t, 3_000);
        assert_eq!(taken, 3_000);
        q.unget(3_000);
        assert_eq!(q.available_bytes(t), 10_000);
        assert_eq!(q.drained_bytes(), 0);
        assert!(!q.is_exhausted(t));
    }

    #[test]
    fn slow_host_limits_burst_size() {
        // 32 Mb/s host, radio asks every 2 ms for 14 subframes of 1470 B
        // (=20.6 kB): host can only have produced 8 kB.
        let mut q = TxQueue::saturated(32e6, 65_536);
        q.take(SimTime::ZERO, 65_536); // empty the initial buffer
        let t = SimTime::from_millis(2);
        let avail = q.available_bytes(t);
        assert!((7_500..8_500).contains(&avail), "avail={avail}");
    }
}
