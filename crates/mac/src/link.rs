//! The transmit engine: one call = one TXOP.
//!
//! [`LinkState::execute_txop`] performs a complete DCF exchange — DIFS +
//! backoff, A-MPDU at the controller-selected MCS, SIFS, block ACK — and
//! returns how long it took and how many subframes got through. A
//! discrete-event driver (see `skyferry-net`) schedules the next TXOP at
//! `now + airtime`, with the sender's position/speed updated between
//! calls.
//!
//! Channel realism notes:
//!
//! * The fading state is resampled *per subframe epoch*: a 14-subframe
//!   A-MPDU at 30 Mb/s lasts ≈ 5.6 ms, several coherence times at cruise
//!   speed, so fades clip bursts mid-A-MPDU exactly as they do in the air.
//! * The block ACK itself is sent at the robust base MCS and can be lost,
//!   in which case the whole window is retried (the receiver's duplicate
//!   filter makes the retry invisible to goodput, which we model by
//!   counting those subframes as undelivered).
//! * Failed subframes return to the head of the queue; the TXOP-level
//!   failure streak drives binary exponential backoff.
//!
//! The PER of a frame is a pure function of the MCS, the frame length,
//! the mean SNR and the channel state, and a channel state outlives
//! several subframes. The link therefore keeps the last PER it computed
//! for a data subframe and for a block ACK, keyed on the exact bits of
//! those inputs, and recomputes only when one of them changes. Within an
//! A-MPDU it looks the PER up once per run of same-size subframes that
//! start inside one channel state. Every error draw still happens, once
//! per subframe and in order, so the link RNG stream is unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

use skyferry_phy::airtime::ppdu_duration;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr};
use skyferry_phy::fading::{ChannelState, FadingProcess};
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::rng::DetRng;
use skyferry_sim::time::{SimDuration, SimTime};
use skyferry_units::{Db, Meters, MetersPerSec};

use crate::dcf::DcfTiming;
use crate::frame::{ampdu_length, BLOCK_ACK_BYTES, DATA_OVERHEAD_BYTES};
use crate::queue::TxQueue;
use crate::rate::{RateController, TxFeedback};

/// Static configuration of one sender→receiver link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Radio environment (link budget, fading, width, GI, host rate).
    pub preset: ChannelPreset,
    /// MSDU payload bytes per MPDU (iperf UDP default: 1470).
    pub mpdu_payload_bytes: usize,
    /// Maximum subframes per A-MPDU (the paper's driver default: 14).
    pub max_ampdu_subframes: usize,
    /// Transmit single-stream MCS with STBC (the paper's MCS 1–3 do).
    pub use_stbc: bool,
    /// DCF timing constants.
    pub dcf: DcfTiming,
    /// How long an idle link waits before re-polling the empty queue.
    pub idle_poll: SimDuration,
}

impl LinkConfig {
    /// The paper's configuration on a given channel preset.
    pub fn paper_default(preset: ChannelPreset) -> Self {
        LinkConfig {
            preset,
            mpdu_payload_bytes: 1470,
            max_ampdu_subframes: 14,
            use_stbc: true,
            dcf: DcfTiming::ofdm_5ghz(),
            idle_poll: SimDuration::from_millis(1),
        }
    }
}

/// Outcome of one TXOP.
#[derive(Debug, Clone, PartialEq)]
pub struct TxopOutcome {
    /// Time consumed (schedule the next TXOP after this much).
    pub airtime: SimDuration,
    /// MCS used (meaningless when `idle`).
    pub mcs: Mcs,
    /// Subframes transmitted.
    pub attempted: u32,
    /// Subframes acknowledged.
    pub delivered: u32,
    /// Payload bytes acknowledged (goodput contribution).
    pub delivered_bytes: usize,
    /// `true` when the queue was empty and nothing was sent.
    pub idle: bool,
    /// `true` when the block ACK was lost (forcing a full retry).
    pub block_ack_lost: bool,
}

/// Simulation work done by links: plain counts that depend only on what
/// was simulated, so they repeat exactly at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkWork {
    /// [`LinkState::execute_txop`] calls, idle polls included.
    pub txops: u64,
    /// A-MPDU subframes sent.
    pub subframes: u64,
    /// Runs of the SNR→BER→PER chain (data subframes and block ACKs).
    pub per_evals: u64,
    /// PERs served from the link's memo instead.
    pub per_memo_hits: u64,
    /// Fading states sampled.
    pub resamples: u64,
}

/// Work of every link dropped so far, in [`LinkWork`] field order.
static WORK_TOTALS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

impl LinkWork {
    fn fields(self) -> [u64; 5] {
        [
            self.txops,
            self.subframes,
            self.per_evals,
            self.per_memo_hits,
            self.resamples,
        ]
    }

    fn from_fields([txops, subframes, per_evals, per_memo_hits, resamples]: [u64; 5]) -> Self {
        LinkWork {
            txops,
            subframes,
            per_evals,
            per_memo_hits,
            resamples,
        }
    }

    /// The work of every [`LinkState`] this process has dropped. Each
    /// link adds its counts once, when it drops; take the difference of
    /// two readings with [`LinkWork::since`].
    pub fn totals() -> Self {
        // Relaxed: the totals publish no other data, and a reader that
        // needs a complete count joins the simulating threads first.
        Self::from_fields(WORK_TOTALS.each_ref().map(|t| t.load(Ordering::Relaxed)))
    }

    /// The work done between an earlier reading and this one.
    pub fn since(self, earlier: LinkWork) -> Self {
        let (now, then) = (self.fields(), earlier.fields());
        Self::from_fields(std::array::from_fn(|i| now[i] - then[i]))
    }
}

/// The inputs of `effective_snr` that the [`LinkConfig`] fixes, in the
/// form it reads them: converted once, in [`LinkState::new`].
#[derive(Debug, Clone, Copy)]
struct PhyConstants {
    use_stbc: bool,
    /// The SDM interference floor as a linear power ratio.
    sdm_sir: f64,
}

/// The last PER one frame kind evaluated.
#[derive(Debug, Default)]
struct PerMemo(Option<(PerKey, f64)>);

/// Every input of `effective_snr` + `coded_per` that can differ between
/// two frames of one link, compared by bits (the [`PhyConstants`] are
/// fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PerKey {
    mcs: Mcs,
    len_bytes: usize,
    /// Mean SNR, both branch gains and the shadowing factor.
    bits: [u64; 4],
}

impl PerMemo {
    /// The PER of a `len_bytes`-byte frame at `mcs` through `state`:
    /// the remembered one when every input matches bit for bit, else a
    /// fresh evaluation, remembered.
    fn per(
        &mut self,
        work: &mut LinkWork,
        phy: &PhyConstants,
        mcs: Mcs,
        len_bytes: usize,
        mean_snr: f64,
        state: &ChannelState,
    ) -> f64 {
        let key = PerKey {
            mcs,
            len_bytes,
            bits: [
                mean_snr.to_bits(),
                state.branch_gain[0].to_bits(),
                state.branch_gain[1].to_bits(),
                state.shadowing.to_bits(),
            ],
        };
        if let Some((k, per)) = self.0 {
            if k == key {
                work.per_memo_hits += 1;
                return per;
            }
        }
        work.per_evals += 1;
        let eff = effective_snr(mcs, phy.use_stbc, mean_snr, state, phy.sdm_sir);
        let per = coded_per(mcs, eff, len_bytes);
        self.0 = Some((key, per));
        per
    }
}

/// Mutable per-link state: fading process, rate controller, retry streak.
pub struct LinkState {
    config: LinkConfig,
    fading: FadingProcess,
    controller: Box<dyn RateController>,
    rng: DetRng,
    /// Consecutive fully-failed TXOPs (drives backoff growth).
    retry_streak: u32,
    /// Airtime of the block ACK, which the preset fixes.
    ba_air: SimDuration,
    phy: PhyConstants,
    /// The linear mean SNR at the last TXOP's distance and speed, keyed
    /// on their bits.
    mean_snr: Option<((u64, u64), f64)>,
    data_per: PerMemo,
    ba_per: PerMemo,
    /// Work counts, added to the process totals on drop (`resamples`
    /// is read from the fading process then).
    work: LinkWork,
    /// Running totals for reports.
    total_delivered_bytes: u64,
    total_airtime: SimDuration,
}

impl std::fmt::Debug for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkState")
            .field("controller", &self.controller.name())
            .field("retry_streak", &self.retry_streak)
            .field("total_delivered_bytes", &self.total_delivered_bytes)
            .finish()
    }
}

impl LinkState {
    /// Build a link with the given controller. `seed_rng` drives backoff,
    /// per-subframe error draws and controller sampling; pass independent
    /// RNGs (via `SeedStream`) for fading vs link decisions.
    pub fn new(
        config: LinkConfig,
        controller: Box<dyn RateController>,
        fading_rng: DetRng,
        link_rng: DetRng,
    ) -> Self {
        LinkState {
            fading: FadingProcess::new(config.preset.fading, fading_rng),
            ba_air: ppdu_duration(
                Mcs::new(0),
                config.preset.width,
                config.preset.gi,
                BLOCK_ACK_BYTES,
            ),
            phy: PhyConstants {
                use_stbc: config.use_stbc,
                sdm_sir: Db::new(config.preset.fading.sdm_sir_db).ratio(),
            },
            config,
            controller,
            rng: link_rng,
            retry_streak: 0,
            mean_snr: None,
            data_per: PerMemo::default(),
            ba_per: PerMemo::default(),
            work: LinkWork::default(),
            total_delivered_bytes: 0,
            total_airtime: SimDuration::ZERO,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Total payload bytes delivered since creation.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.total_delivered_bytes
    }

    /// Total airtime consumed since creation.
    pub fn total_airtime(&self) -> SimDuration {
        self.total_airtime
    }

    /// The linear mean SNR at `distance_m`, less the motion loss at the
    /// fading process's current speed (`relative_speed_mps`).
    fn mean_snr(&mut self, distance_m: f64, relative_speed_mps: f64) -> f64 {
        let key = (distance_m.to_bits(), relative_speed_mps.to_bits());
        if let Some((k, snr)) = self.mean_snr {
            if k == key {
                return snr;
            }
        }
        let snr = db_to_linear(
            self.config
                .preset
                .budget
                .mean_snr(Meters::new(distance_m))
                .get()
                - self.fading.config().motion_loss_db().get(),
        );
        self.mean_snr = Some((key, snr));
        snr
    }

    /// Run one TXOP at time `now` with the given geometry, draining
    /// `queue`. Returns the outcome; the caller advances time by
    /// `outcome.airtime` before calling again.
    pub fn execute_txop(
        &mut self,
        now: SimTime,
        distance_m: f64,
        relative_speed_mps: f64,
        queue: &mut TxQueue,
    ) -> TxopOutcome {
        self.work.txops += 1;
        self.fading
            .set_relative_speed(MetersPerSec::new(relative_speed_mps));

        let payload = self.config.mpdu_payload_bytes;
        let available = queue.available_bytes(now);
        if available == 0 {
            self.total_airtime += self.config.idle_poll;
            return TxopOutcome {
                airtime: self.config.idle_poll,
                mcs: Mcs::new(0),
                attempted: 0,
                delivered: 0,
                delivered_bytes: 0,
                idle: true,
                block_ack_lost: false,
            };
        }

        let mcs = self.controller.select(now, &mut self.rng);

        // Assemble the A-MPDU: full-size subframes plus possibly one
        // runt carrying the tail of the queue.
        let max = self.config.max_ampdu_subframes;
        let full = (available / payload).min(max);
        let tail = if full < max {
            available - full * payload
        } else {
            0
        };
        let n = full + usize::from(tail > 0);
        debug_assert!(n > 0);
        let taken = full * payload + tail;
        let got = queue.take(now, taken);
        debug_assert_eq!(got, taken);
        // Full-size subframes all have one on-air size.
        let runt = (tail > 0).then_some(tail + DATA_OVERHEAD_BYTES);
        let psdu =
            full * ampdu_length(&[payload + DATA_OVERHEAD_BYTES]) + ampdu_length(runt.as_slice());

        // Timing of the exchange.
        let backoff = self
            .config
            .dcf
            .sample_backoff(self.retry_streak, &mut self.rng);
        let data_air = ppdu_duration(mcs, self.config.preset.width, self.config.preset.gi, psdu);
        let airtime =
            self.config.dcf.difs() + backoff + data_air + self.config.dcf.sifs + self.ba_air;

        // Per-subframe fate: resample the channel along the burst. The
        // mean SNR pays the attitude/motion penalty at the current speed.
        let mean_snr = self.mean_snr(distance_m, relative_speed_mps);
        let tx_start = now + self.config.dcf.difs() + backoff;
        let per_subframe_air = SimDuration::from_secs_f64(data_air.as_secs_f64() / n as f64);
        let starts_at = |i: usize| tx_start + per_subframe_air * i as i64;
        let mut delivered: u32 = 0;
        let mut delivered_bytes: usize = 0;
        let mut failed_bytes: usize = 0;
        // Same-size subframes that start inside one channel state share
        // one PER, so each such run fetches the state and the PER once.
        // Skipping `state_at` for the rest of a run moves no fading draw:
        // it draws only once the state has expired.
        let mut i = 0;
        while i < n {
            let (pl, same_size) = if i < full { (payload, full) } else { (tail, n) };
            let state = self.fading.state_at(starts_at(i));
            let per = self.data_per.per(
                &mut self.work,
                &self.phy,
                mcs,
                pl + DATA_OVERHEAD_BYTES,
                mean_snr,
                &state,
            );
            let mut end = i + 1;
            while end < same_size && starts_at(end) < state.valid_until {
                end += 1;
            }
            // A per-subframe look-up would have hit the memo for the
            // rest of the run; count those hits.
            self.work.per_memo_hits += (end - i - 1) as u64;
            for _ in i..end {
                if self.rng.chance(per) {
                    failed_bytes += pl;
                } else {
                    delivered += 1;
                    delivered_bytes += pl;
                }
            }
            i = end;
        }
        self.work.subframes += n as u64;

        // Block ACK at the base rate, STBC, short and robust — but can die
        // in a deep fade, costing the whole window.
        let ba_time = tx_start + data_air + self.config.dcf.sifs;
        let ba_state = self.fading.state_at(ba_time);
        let ba_per = self.ba_per.per(
            &mut self.work,
            &self.phy,
            Mcs::new(0),
            BLOCK_ACK_BYTES,
            mean_snr,
            &ba_state,
        );
        let block_ack_lost = self.rng.chance(ba_per);
        if block_ack_lost {
            failed_bytes += delivered_bytes;
            delivered = 0;
            delivered_bytes = 0;
        }

        // Failed payload returns to the queue for retransmission.
        queue.unget(failed_bytes);

        if delivered == 0 {
            self.retry_streak = (self.retry_streak + 1).min(6);
        } else {
            self.retry_streak = 0;
        }

        let attempted = n as u32;
        self.controller.feedback(&TxFeedback {
            mcs,
            attempted,
            delivered,
            at: now + airtime,
        });

        self.total_delivered_bytes += delivered_bytes as u64;
        self.total_airtime += airtime;

        TxopOutcome {
            airtime,
            mcs,
            attempted,
            delivered,
            delivered_bytes,
            idle: false,
            block_ack_lost,
        }
    }
}

impl Drop for LinkState {
    fn drop(&mut self) {
        let work = LinkWork {
            resamples: self.fading.resamples(),
            ..self.work
        };
        for (total, count) in WORK_TOTALS.iter().zip(work.fields()) {
            total.fetch_add(count, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::FixedMcs;
    use skyferry_sim::rng::SeedStream;

    fn link(preset: ChannelPreset, mcs: u8, seed: u64) -> LinkState {
        let seeds = SeedStream::new(seed);
        LinkState::new(
            LinkConfig::paper_default(preset),
            Box::new(FixedMcs(Mcs::new(mcs))),
            seeds.rng("fading"),
            seeds.rng("link"),
        )
    }

    fn run_for(link: &mut LinkState, queue: &mut TxQueue, d: f64, v: f64, secs: f64) -> (u64, f64) {
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs_f64(secs);
        let mut bytes = 0u64;
        while now < horizon {
            let out = link.execute_txop(now, d, v, queue);
            bytes += out.delivered_bytes as u64;
            now += out.airtime;
        }
        (bytes, now.as_secs_f64())
    }

    #[test]
    fn close_range_hover_delivers_most_subframes() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 2, 1);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let (bytes, secs) = run_for(&mut l, &mut q, 10.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        // MCS2 = 45 Mb/s PHY; with overheads expect > 30 Mb/s goodput at
        // the 10 m reference distance where the quad SNR is ≈ 15 dB.
        assert!(mbps > 30.0, "goodput={mbps}");
    }

    #[test]
    fn far_range_fails_most_subframes() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 7, 2);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let (bytes, secs) = run_for(&mut l, &mut q, 60.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        // MCS7 (64-QAM 5/6) at ~4 dB SNR is hopeless.
        assert!(mbps < 2.0, "goodput={mbps}");
    }

    #[test]
    fn goodput_decreases_with_distance() {
        let at = |d: f64, seed: u64| {
            let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, seed);
            let mut q = TxQueue::saturated(1e9, 1 << 20);
            let (bytes, secs) = run_for(&mut l, &mut q, d, 0.0, 4.0);
            bytes as f64 * 8.0 / secs / 1e6
        };
        assert!(at(15.0, 3) > at(50.0, 3));
        assert!(at(50.0, 3) > at(90.0, 3));
    }

    #[test]
    fn host_fill_rate_caps_goodput() {
        // Infinite radio, slow host: goodput pinned at the fill rate.
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, 4);
        let mut q = TxQueue::saturated(10e6, 1 << 16);
        q.take(SimTime::ZERO, 1 << 16); // start from an empty buffer
        let (bytes, secs) = run_for(&mut l, &mut q, 10.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        assert!((8.0..11.0).contains(&mbps), "goodput={mbps}");
    }

    #[test]
    fn empty_queue_idles() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 3, 5);
        let mut q = TxQueue::finite(0, 1e6, 1024);
        let out = l.execute_txop(SimTime::ZERO, 20.0, 0.0, &mut q);
        assert!(out.idle);
        assert_eq!(out.delivered_bytes, 0);
        assert_eq!(out.airtime, SimDuration::from_millis(1));
    }

    #[test]
    fn finite_transfer_conserves_bytes() {
        let total = 200_000u64;
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, 6);
        let mut q = TxQueue::finite(total, 1e9, 1 << 20);
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        for _ in 0..100_000 {
            let out = l.execute_txop(now, 40.0, 0.0, &mut q);
            delivered += out.delivered_bytes as u64;
            now += out.airtime;
            if q.is_exhausted(now) {
                break;
            }
        }
        assert_eq!(delivered, total, "all bytes eventually delivered");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut l = link(ChannelPreset::airplane(MetersPerSec::new(20.0)), 3, 7);
            let mut q = TxQueue::saturated(32e6, 1 << 18);
            run_for(&mut l, &mut q, 100.0, 20.0, 1.0).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn moving_link_worse_than_hover_at_same_distance() {
        let gp = |v: f64| {
            let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(v)), 1, 8);
            let mut q = TxQueue::saturated(1e9, 1 << 20);
            let (bytes, secs) = run_for(&mut l, &mut q, 40.0, v, 4.0);
            bytes as f64 * 8.0 / secs / 1e6
        };
        let hover = gp(0.0);
        let moving = gp(12.0);
        assert!(moving < hover, "hover={hover:.1} moving={moving:.1} Mb/s");
    }

    #[test]
    fn retry_streak_grows_backoff_not_unbounded() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 7, 9);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let out = l.execute_txop(now, 150.0, 0.0, &mut q);
            now += out.airtime;
        }
        assert!(l.retry_streak <= 6);
    }

    #[test]
    fn sdm_floor_keeps_the_db_formula_bits() {
        // The per-link linear floor must be the dB formula's `powf`, bit
        // for bit; the link stream digest misses a floor a few ulps off.
        for preset in [
            ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
            ChannelPreset::airplane(MetersPerSec::new(20.0)),
        ] {
            let l = link(preset, 8, 11);
            let db = preset.fading.sdm_sir_db;
            assert_eq!(l.phy.sdm_sir.to_bits(), 10f64.powf(db / 10.0).to_bits());
        }
    }

    #[test]
    fn every_frame_takes_exactly_one_per_lookup() {
        // A slow host and a finite source: runt tails, then idle polls.
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 3, 10);
        let mut q = TxQueue::finite(300_000, 8e6, 1 << 16);
        let mut now = SimTime::ZERO;
        let (mut idle, mut subframes) = (0u64, 0u64);
        for _ in 0..2_000 {
            let out = l.execute_txop(now, 30.0, 0.0, &mut q);
            idle += out.idle as u64;
            subframes += out.attempted as u64;
            now += out.airtime;
        }
        let w = l.work;
        assert!(idle > 0);
        assert_eq!((w.txops, w.subframes), (2_000, subframes));
        // One PER per subframe and per block ACK, computed or remembered;
        // a hovering link remembers most of them.
        assert_eq!(w.per_evals + w.per_memo_hits, subframes + w.txops - idle);
        assert!(w.per_memo_hits > w.per_evals, "{w:?}");
    }
}
