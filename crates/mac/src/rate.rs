//! PHY rate control.
//!
//! Three controllers, covering the paper's Figure 6 comparison:
//!
//! * [`FixedMcs`] — the "fixed PHY rate" configuration: one MCS, always.
//! * [`Arf`] — an ARF/AARF-family controller of the kind vendor firmware
//!   (like the paper's Ralink adapter) ships: step up after a run of
//!   consecutive successes, step down on failure. On a channel whose
//!   coherence time is shorter than the adaptation loop this oscillates,
//!   transmitting above the supportable rate right after every up-fade —
//!   the paper's "disability of the auto-rate algorithm to adapt to the
//!   highly dynamic aerial channel".
//! * [`MinstrelHt`] — a Minstrel-HT-style statistical controller: EWMA
//!   success probabilities per rate, periodic lookaround sampling,
//!   max-expected-throughput selection. Better than ARF, but its 100 ms
//!   averaging window still lags millisecond fading.
//!
//! Controllers see only what real ones see: per-TXOP feedback of attempted
//! vs delivered subframes. They never peek at the channel state.

use skyferry_phy::mcs::{ChannelWidth, GuardInterval, Mcs};
use skyferry_sim::rng::DetRng;
use skyferry_sim::time::{SimDuration, SimTime};

/// Post-TXOP report handed back to the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxFeedback {
    /// The MCS the TXOP used.
    pub mcs: Mcs,
    /// Subframes attempted in the A-MPDU.
    pub attempted: u32,
    /// Subframes acknowledged by the block ACK.
    pub delivered: u32,
    /// When the block ACK (or timeout) arrived.
    pub at: SimTime,
}

/// A PHY rate selection policy.
pub trait RateController: std::fmt::Debug + Send {
    /// Pick the MCS for the next TXOP.
    fn select(&mut self, now: SimTime, rng: &mut DetRng) -> Mcs;
    /// Digest the outcome of the TXOP.
    fn feedback(&mut self, fb: &TxFeedback);
    /// Short name for reports ("fixed-mcs3", "arf", "minstrel-ht").
    fn name(&self) -> String;
}

/// Always transmit at one configured MCS.
#[derive(Debug, Clone, Copy)]
pub struct FixedMcs(pub Mcs);

impl RateController for FixedMcs {
    fn select(&mut self, _now: SimTime, _rng: &mut DetRng) -> Mcs {
        self.0
    }
    fn feedback(&mut self, _fb: &TxFeedback) {}
    fn name(&self) -> String {
        format!("fixed-{}", self.0).to_lowercase()
    }
}

/// ARF-style stepping controller over an allowed rate ladder.
#[derive(Debug, Clone)]
pub struct Arf {
    ladder: Vec<Mcs>,
    position: usize,
    /// Consecutive mostly-successful TXOPs needed to step up.
    success_threshold: u32,
    success_run: u32,
    /// A TXOP counts as failed when the delivered fraction is below this.
    fail_ratio: f64,
    /// How many ladder steps a failure costs.
    down_step: usize,
}

impl Arf {
    /// Vendor-firmware-like ARF over the full 0–15 ladder, tuned to the
    /// behaviour class the paper measured: a TXOP losing more than a
    /// quarter of its A-MPDU counts as a failure and costs two ladder
    /// steps; ten good TXOPs buy one step up. On a channel that fades
    /// inside every A-MPDU this crashes constantly and recovers slowly —
    /// the "auto rate" that fixed MCS beats by ≥ 100 % in Figure 6.
    pub fn new() -> Self {
        Self::with_ladder(Mcs::all().collect())
    }

    /// ARF restricted to a custom ladder (ascending by data rate).
    pub fn with_ladder(ladder: Vec<Mcs>) -> Self {
        assert!(!ladder.is_empty(), "rate ladder must be non-empty");
        Arf {
            position: ladder.len() / 3,
            ladder,
            success_threshold: 10,
            success_run: 0,
            fail_ratio: 0.75,
            down_step: 2,
        }
    }
}

impl Default for Arf {
    fn default() -> Self {
        Self::new()
    }
}

impl RateController for Arf {
    fn select(&mut self, _now: SimTime, _rng: &mut DetRng) -> Mcs {
        self.ladder[self.position]
    }

    fn feedback(&mut self, fb: &TxFeedback) {
        let ratio = if fb.attempted == 0 {
            1.0
        } else {
            fb.delivered as f64 / fb.attempted as f64
        };
        if ratio < self.fail_ratio {
            // Step down immediately and reset the run.
            self.position = self.position.saturating_sub(self.down_step);
            self.success_run = 0;
        } else {
            self.success_run += 1;
            if self.success_run >= self.success_threshold {
                self.success_run = 0;
                if self.position + 1 < self.ladder.len() {
                    self.position += 1;
                }
            }
        }
    }

    fn name(&self) -> String {
        "arf".into()
    }
}

/// Per-rate statistics for Minstrel-HT.
#[derive(Debug, Clone, Copy)]
struct RateStats {
    /// EWMA of delivery probability; starts optimistic so every rate gets
    /// tried early.
    ewma_prob: f64,
    /// Attempts in the current window.
    attempts: u32,
    /// Deliveries in the current window.
    delivered: u32,
    /// Has this rate ever been sampled?
    sampled: bool,
}

/// A Minstrel-HT-style statistical rate controller.
#[derive(Debug, Clone)]
pub struct MinstrelHt {
    rates: Vec<Mcs>,
    stats: Vec<RateStats>,
    width: ChannelWidth,
    gi: GuardInterval,
    /// EWMA weight on the old estimate.
    ewma_weight: f64,
    /// Statistics refresh period (Linux default: 100 ms).
    update_interval: SimDuration,
    next_update: SimTime,
    /// Every `sample_period`-th TXOP probes a random non-best rate.
    sample_period: u32,
    txop_count: u32,
}

impl MinstrelHt {
    /// Controller over the full MCS 0–15 table.
    pub fn new(width: ChannelWidth, gi: GuardInterval) -> Self {
        Self::with_rates(Mcs::all().collect(), width, gi)
    }

    /// Controller over a custom rate set.
    pub fn with_rates(rates: Vec<Mcs>, width: ChannelWidth, gi: GuardInterval) -> Self {
        assert!(!rates.is_empty());
        let stats = vec![
            RateStats {
                ewma_prob: 1.0,
                attempts: 0,
                delivered: 0,
                sampled: false,
            };
            rates.len()
        ];
        MinstrelHt {
            rates,
            stats,
            width,
            gi,
            ewma_weight: 0.75,
            update_interval: SimDuration::from_millis(100),
            next_update: SimTime::ZERO + SimDuration::from_millis(100),
            sample_period: 10,
            txop_count: 0,
        }
    }

    /// Expected throughput metric of rate `i`.
    fn expected_tp(&self, i: usize) -> f64 {
        let s = &self.stats[i];
        // Like Linux minstrel: don't trust success probabilities below 10%.
        let p = if s.ewma_prob < 0.1 { 0.0 } else { s.ewma_prob };
        p * self.rates[i].data_rate_bps(self.width, self.gi).get()
    }

    fn best_index(&self) -> usize {
        (0..self.rates.len())
            .max_by(|&a, &b| {
                self.expected_tp(a)
                    .partial_cmp(&self.expected_tp(b))
                    .expect("tp is finite")
            })
            .expect("non-empty rate set")
    }

    fn refresh_stats(&mut self, now: SimTime) {
        if now < self.next_update {
            return;
        }
        self.next_update = now + self.update_interval;
        for s in &mut self.stats {
            if s.attempts > 0 {
                let observed = s.delivered as f64 / s.attempts as f64;
                s.ewma_prob = if s.sampled {
                    self.ewma_weight * s.ewma_prob + (1.0 - self.ewma_weight) * observed
                } else {
                    observed
                };
                s.sampled = true;
                s.attempts = 0;
                s.delivered = 0;
            }
        }
    }
}

impl RateController for MinstrelHt {
    fn select(&mut self, now: SimTime, rng: &mut DetRng) -> Mcs {
        self.refresh_stats(now);
        self.txop_count += 1;
        let best = self.best_index();
        if self.txop_count % self.sample_period == 0 && self.rates.len() > 1 {
            // Lookaround: sample a random non-best rate.
            let mut idx = rng.index(self.rates.len() - 1);
            if idx >= best {
                idx += 1;
            }
            return self.rates[idx];
        }
        self.rates[best]
    }

    fn feedback(&mut self, fb: &TxFeedback) {
        if let Some(i) = self.rates.iter().position(|&r| r == fb.mcs) {
            self.stats[i].attempts += fb.attempted;
            self.stats[i].delivered += fb.delivered;
        }
    }

    fn name(&self) -> String {
        "minstrel-ht".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: ChannelWidth = ChannelWidth::Mhz40;
    const G: GuardInterval = GuardInterval::Short;

    fn fb(mcs: Mcs, attempted: u32, delivered: u32, at_ms: u64) -> TxFeedback {
        TxFeedback {
            mcs,
            attempted,
            delivered,
            at: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn fixed_never_moves() {
        let mut c = FixedMcs(Mcs::new(3));
        let mut rng = DetRng::seed(1);
        c.feedback(&fb(Mcs::new(3), 14, 0, 1));
        assert_eq!(c.select(SimTime::ZERO, &mut rng), Mcs::new(3));
        assert_eq!(c.name(), "fixed-mcs3");
    }

    #[test]
    fn arf_steps_down_on_failure() {
        let mut c = Arf::new();
        let mut rng = DetRng::seed(2);
        let r0 = c.select(SimTime::ZERO, &mut rng);
        c.feedback(&fb(r0, 14, 2, 1));
        let r1 = c.select(SimTime::ZERO, &mut rng);
        assert!(r1.index() < r0.index());
    }

    #[test]
    fn arf_steps_up_after_success_run() {
        let mut c = Arf::new();
        let mut rng = DetRng::seed(3);
        let r0 = c.select(SimTime::ZERO, &mut rng);
        for i in 0..10 {
            c.feedback(&fb(r0, 14, 14, i));
        }
        let r1 = c.select(SimTime::ZERO, &mut rng);
        assert_eq!(r1.index(), r0.index() + 1);
    }

    #[test]
    fn arf_oscillates_on_alternating_channel() {
        // Good/bad alternation: ARF keeps probing up and crashing down —
        // the instability mechanism behind Figure 6.
        let mut c = Arf::new();
        let mut rng = DetRng::seed(4);
        let mut indices = Vec::new();
        for step in 0..200u32 {
            let r = c.select(SimTime::ZERO, &mut rng);
            indices.push(r.index());
            // The channel supports rates below index 4 perfectly and
            // nothing above: ARF keeps probing index 4 after every run of
            // ten successes and crashing back down.
            let ok = r.index() < 4;
            c.feedback(&fb(r, 14, if ok { 14 } else { 2 }, step as u64));
        }
        let distinct: std::collections::HashSet<_> = indices[50..].iter().collect();
        assert!(distinct.len() >= 2, "ARF settled: {distinct:?}");
    }

    #[test]
    fn arf_clamps_at_ladder_ends() {
        let mut c = Arf::with_ladder(vec![Mcs::new(0), Mcs::new(1)]);
        let mut rng = DetRng::seed(5);
        for i in 0..50 {
            let r = c.select(SimTime::ZERO, &mut rng);
            c.feedback(&fb(r, 14, 0, i)); // all fail → slam to bottom
        }
        assert_eq!(c.select(SimTime::ZERO, &mut rng), Mcs::new(0));
        for i in 0..500 {
            let r = c.select(SimTime::ZERO, &mut rng);
            c.feedback(&fb(r, 14, 14, i));
        }
        assert_eq!(c.select(SimTime::ZERO, &mut rng), Mcs::new(1));
    }

    #[test]
    fn minstrel_converges_to_supported_rate() {
        let mut c = MinstrelHt::new(W, G);
        let mut rng = DetRng::seed(6);
        // Channel supports up to MCS4 perfectly, nothing above.
        for step in 0..3_000u64 {
            let now = SimTime::from_millis(step);
            let r = c.select(now, &mut rng);
            let ok = r.index() <= 4 || (r.index() >= 8 && r.index() <= 9);
            c.feedback(&fb(r, 14, if ok { 14 } else { 0 }, step));
        }
        // Best known rate should be MCS4 (90 Mb/s) — above MCS9 (60).
        assert_eq!(c.rates[c.best_index()], Mcs::new(4));
    }

    #[test]
    fn minstrel_keeps_sampling() {
        let mut c = MinstrelHt::new(W, G);
        let mut rng = DetRng::seed(7);
        let mut seen = std::collections::HashSet::new();
        for step in 0..500u64 {
            let now = SimTime::from_millis(step);
            let r = c.select(now, &mut rng);
            seen.insert(r.index());
            c.feedback(&fb(r, 14, if r.index() <= 2 { 14 } else { 0 }, step));
        }
        assert!(seen.len() >= 4, "no lookaround: {seen:?}");
    }

    #[test]
    fn minstrel_ewma_lags_channel_flips() {
        // Flip the supportable rate every 5 ms (fast fading); within one
        // 100 ms window Minstrel sees the average, not the instants.
        let mut c = MinstrelHt::new(W, G);
        let mut rng = DetRng::seed(8);
        let mut mismatches = 0u32;
        let total = 4_000u64;
        for step in 0..total {
            let now = SimTime::from_micros(step * 500);
            let good_phase = (step / 10) % 2 == 0;
            let supported = if good_phase { 5 } else { 1 };
            let r = c.select(now, &mut rng);
            if r.index() > supported {
                mismatches += 1;
            }
            let ok = r.index() <= supported;
            c.feedback(&fb(r, 14, if ok { 14 } else { 0 }, step));
        }
        // A genie controller would never overshoot in the bad phase; the
        // lagging estimator must overshoot a macroscopic fraction.
        assert!(
            mismatches as f64 / total as f64 > 0.10,
            "mismatches={mismatches}"
        );
    }

    #[test]
    fn names_distinct() {
        assert_ne!(Arf::new().name(), MinstrelHt::new(W, G).name());
    }
}
