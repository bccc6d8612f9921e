//! Randomised tests of the MAC layer: byte conservation through the
//! host-fed queue under arbitrary drain/retry schedules, and per-TXOP
//! delivery accounting plus end-to-end transfer conservation through the
//! full TXOP engine.
//!
//! The generators run on a fixed-seed [`DetRng`] loop (128 cases per
//! property, matching the old proptest configuration).

use skyferry::mac::link::{LinkConfig, LinkState};
use skyferry::mac::queue::TxQueue;
use skyferry::mac::rate::FixedMcs;
use skyferry::phy::mcs::Mcs;
use skyferry::phy::presets::ChannelPreset;
use skyferry::sim::prelude::*;
use skyferry::sim::rng::DetRng;
use skyferry_units::MetersPerSec;

const CASES: usize = 128;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0x3AC ^ salt)
}

/// One scripted queue action.
#[derive(Debug, Clone, Copy)]
enum QueueAction {
    /// Advance time by this many microseconds, then take this many bytes.
    Take(u32, u16),
    /// Return this many of the *last taken* bytes (a failed A-MPDU).
    Unget,
}

fn arb_queue_actions(rng: &mut DetRng) -> Vec<QueueAction> {
    let len = 1 + rng.index(199);
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                QueueAction::Take(
                    (rng.next_u64() % 50_000) as u32,
                    (rng.next_u64() % 30_000) as u16,
                )
            } else {
                QueueAction::Unget
            }
        })
        .collect()
}

#[test]
fn finite_queue_conserves_bytes() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let total = 1 + rng.next_u64() % 2_000_000;
        let fill_mbps = rng.uniform_range(1.0, 100.0);
        let capacity = 1_024 + rng.index(200_000 - 1_024);
        let actions = arb_queue_actions(&mut rng);

        let mut q = TxQueue::finite(total, fill_mbps * 1e6, capacity);
        let mut now = SimTime::ZERO;
        let mut consumed: u64 = 0; // bytes taken and never returned
        let mut last_take: usize = 0;
        for action in actions {
            match action {
                QueueAction::Take(dt_us, n) => {
                    now += SimDuration::from_micros(dt_us as i64);
                    let got = q.take(now, n as usize);
                    assert!(got <= n as usize);
                    consumed += got as u64;
                    last_take = got;
                }
                QueueAction::Unget => {
                    q.unget(last_take);
                    consumed -= last_take as u64;
                    last_take = 0;
                }
            }
            assert!(consumed <= total, "queue fabricated bytes");
        }
        // Drain to the end: everything the source ever held must come out.
        for _ in 0..10_000 {
            now += SimDuration::from_millis(50);
            consumed += q.take(now, 65_536) as u64;
            if q.is_exhausted(now) {
                break;
            }
        }
        assert!(q.is_exhausted(now), "queue never exhausted");
        assert_eq!(consumed, total, "bytes lost or created");
    }
}

#[test]
fn transfer_conserves_bytes_through_txop_engine() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let total = 10_000 + rng.next_u64() % 790_000;
        let d_m = rng.uniform_range(15.0, 60.0);
        let seed = rng.next_u64();

        let seeds = SeedStream::new(seed);
        let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
        let mut link = LinkState::new(
            LinkConfig::paper_default(preset),
            Box::new(FixedMcs(Mcs::new(1))),
            seeds.rng("fading"),
            seeds.rng("link"),
        );
        let mut queue = TxQueue::finite(total, preset.host_fill_rate_bps, 1 << 16);
        let mut now = SimTime::ZERO;
        let mut delivered: u64 = 0;
        for _ in 0..2_000_000u32 {
            let out = link.execute_txop(now, d_m, 0.0, &mut queue);
            delivered += out.delivered_bytes as u64;
            assert!(
                out.delivered <= out.attempted,
                "more subframes delivered than sent: {out:?}"
            );
            // A lost block ACK leaves the sender blind: the whole window
            // counts as undelivered and is retried.
            if out.block_ack_lost {
                assert_eq!(
                    (out.delivered, out.delivered_bytes),
                    (0, 0),
                    "a lost block ACK still credited delivery: {out:?}"
                );
            }
            now += out.airtime;
            if delivered >= total {
                break;
            }
        }
        assert_eq!(delivered, total, "transfer lost or duplicated bytes");
    }
}
