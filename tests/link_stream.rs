//! The link simulator's output, pinned bit for bit.
//!
//! Every field of every [`TxopOutcome`] over a matrix of presets, rate
//! controllers, STBC settings, seeds and a geometry that keeps changing
//! is folded into one stable digest, together with a bare
//! [`FadingProcess`] state stream under speed changes. The pinned digest
//! is that of the plain computation, with every PER evaluated and every
//! speed term recomputed: a memo or any other shortcut in the simulator
//! may make it cheaper, never different.
//!
//! Most of `repro`'s campaigns hover, so within one link distance and
//! speed rarely change, and the goldens pass with a PER memo that
//! forgets the mean SNR. This stream changes distance every 7 TXOPs and
//! speed every 11, so such a memo changes its digest.

use skyferry::mac::link::{LinkConfig, LinkState, TxopOutcome};
use skyferry::mac::queue::TxQueue;
use skyferry::mac::rate::{Arf, FixedMcs, MinstrelHt, RateController};
use skyferry::phy::fading::FadingProcess;
use skyferry::phy::mcs::Mcs;
use skyferry::phy::presets::ChannelPreset;
use skyferry::sim::prelude::*;
use skyferry::sim::stable::KeyHasher;
use skyferry_units::MetersPerSec;

/// The digest of [`stream_digest`] under the plain computation.
const PINNED: u64 = 0x29d5_6900_74b9_9f17;

const TXOPS_PER_LINK: usize = 3_000;
const FADING_STATES: usize = 65_000;
const SEEDS: [u64; 3] = [0x11, 0x2222, 0x33_3333];
/// Distances the geometry cycles through, metres: from close range
/// (every MCS decodes) to beyond the quadrocopter's reach (block ACKs
/// die and the retry streak grows).
const DISTANCES_M: [f64; 6] = [15.0, 30.0, 45.0, 70.0, 100.0, 150.0];

fn presets() -> [ChannelPreset; 3] {
    [
        ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        ChannelPreset::quadrocopter(MetersPerSec::new(8.0)),
        ChannelPreset::airplane(MetersPerSec::new(20.0)),
    ]
}

/// Fixed MCS 1, 3, 8 and 15 (the last two SDM), then both auto-rate
/// controllers.
fn controllers(preset: &ChannelPreset) -> Vec<Box<dyn RateController>> {
    let mut all: Vec<Box<dyn RateController>> = [1, 3, 8, 15]
        .into_iter()
        .map(|i| Box::new(FixedMcs(Mcs::new(i))) as Box<dyn RateController>)
        .collect();
    all.push(Box::new(Arf::new()));
    all.push(Box::new(MinstrelHt::new(preset.width, preset.gi)));
    all
}

fn fold_outcome(h: KeyHasher, out: &TxopOutcome) -> KeyHasher {
    h.i64(out.airtime.as_nanos())
        .u64(out.mcs.index() as u64)
        .u64(out.attempted as u64)
        .u64(out.delivered as u64)
        .u64(out.delivered_bytes as u64)
        .bool(out.idle)
        .bool(out.block_ack_lost)
}

/// What the matrix exercised, so a shrunken matrix cannot keep the
/// digest's meaning while losing its coverage.
#[derive(Default)]
struct Coverage {
    idle_polls: u64,
    /// TXOPs whose delivered payload is not a whole number of full-size
    /// MPDUs: a runt tail got through.
    runt_deliveries: u64,
    block_acks_lost: u64,
}

/// Run one link for [`TXOPS_PER_LINK`] TXOPs and fold its outcomes.
fn fold_link(
    mut h: KeyHasher,
    preset: ChannelPreset,
    controller: Box<dyn RateController>,
    use_stbc: bool,
    seed_index: usize,
    cov: &mut Coverage,
) -> KeyHasher {
    let config = LinkConfig {
        use_stbc,
        ..LinkConfig::paper_default(preset)
    };
    let payload = config.mpdu_payload_bytes;
    let seeds = SeedStream::new(SEEDS[seed_index]);
    let mut link = LinkState::new(config, controller, seeds.rng("fading"), seeds.rng("link"));
    // The last seed feeds a finite transfer from a slow host: A-MPDUs
    // end in runt tails, and once the source runs dry the link polls
    // an empty queue.
    let mut queue = if seed_index == SEEDS.len() - 1 {
        TxQueue::finite(2_000_000, 12e6, 1 << 16)
    } else {
        TxQueue::saturated(preset.host_fill_rate_bps, 1 << 17)
    };
    let floor_v = preset.fading.relative_speed_mps;
    let mut now = SimTime::ZERO;
    for i in 0..TXOPS_PER_LINK {
        let d = DISTANCES_M[(i / 7) % DISTANCES_M.len()];
        let v = floor_v + 2.5 * ((i / 11) % 4) as f64;
        let out = link.execute_txop(now, d, v, &mut queue);
        h = fold_outcome(h, &out);
        cov.idle_polls += out.idle as u64;
        cov.runt_deliveries += (out.delivered_bytes % payload != 0) as u64;
        cov.block_acks_lost += out.block_ack_lost as u64;
        now += out.airtime;
    }
    h.u64(link.total_delivered_bytes())
        .i64(link.total_airtime().as_nanos())
}

/// A bare fading process per preset: query times step unevenly (inside
/// and across coherence blocks) while the speed changes every 13 queries.
fn fold_fading(mut h: KeyHasher) -> KeyHasher {
    for (p, preset) in presets().into_iter().enumerate() {
        let mut fading = FadingProcess::new(preset.fading, DetRng::seed(0xFAD0 + p as u64));
        let mut now = SimTime::ZERO;
        for i in 0..FADING_STATES {
            if i % 13 == 0 {
                let v = preset.fading.relative_speed_mps + 3.0 * ((i / 13) % 5) as f64;
                fading.set_relative_speed(MetersPerSec::new(v));
            }
            let s = fading.state_at(now);
            h = h
                .f64(s.branch_gain[0])
                .f64(s.branch_gain[1])
                .f64(s.shadowing)
                .u64(s.valid_until.as_nanos());
            now += SimDuration::from_micros(37 + 211 * (i % 7) as i64);
        }
    }
    h
}

fn stream_digest(cov: &mut Coverage) -> u64 {
    let mut h = KeyHasher::new("link-stream");
    for preset in presets() {
        for use_stbc in [true, false] {
            for seed_index in 0..SEEDS.len() {
                for controller in controllers(&preset) {
                    h = fold_link(h, preset, controller, use_stbc, seed_index, cov);
                }
            }
        }
    }
    fold_fading(h).finish()
}

#[test]
fn txop_and_fading_streams_match_the_pinned_digest() {
    let mut cov = Coverage::default();
    let digest = stream_digest(&mut cov);
    assert!(cov.idle_polls > 0, "the matrix must poll an empty queue");
    assert!(
        cov.runt_deliveries > 0,
        "the matrix must deliver runt tails"
    );
    assert!(cov.block_acks_lost > 0, "the matrix must lose block ACKs");
    assert_eq!(
        digest, PINNED,
        "link outcome stream changed: {digest:#018x} != {PINNED:#018x}"
    );
}
