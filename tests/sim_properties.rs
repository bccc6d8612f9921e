//! Randomised tests of the discrete-event engine against a reference
//! model: arbitrary interleavings of schedules and pops must always
//! deliver in (time, insertion) order with exact clock semantics.
//!
//! The generators run on a fixed-seed [`DetRng`] loop (256 cases per
//! property, matching the old proptest configuration).

use skyferry::sim::prelude::*;
use skyferry::sim::rng::DetRng;

const CASES: usize = 256;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0x51E4 ^ salt)
}

/// A scripted action against the queue.
#[derive(Debug, Clone)]
enum Action {
    /// Schedule at now + offset_ns with payload = action index.
    Schedule(u64),
    /// Pop one event.
    Pop,
}

fn arb_actions(rng: &mut DetRng) -> Vec<Action> {
    let len = 1 + rng.index(119);
    (0..len)
        .map(|_| match rng.index(2) {
            0 => Action::Schedule(rng.next_u64() % 1_000_000),
            _ => Action::Pop,
        })
        .collect()
}

/// Reference model: a plain Vec of (time, seq, id, delivered).
#[derive(Debug, Default)]
struct Model {
    items: Vec<(u64, u64, usize, bool)>,
    now: u64,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, id: usize) {
        self.items.push((at, self.seq, id, false));
        self.seq += 1;
    }

    fn pending_ids(&self) -> Vec<usize> {
        let mut live: Vec<&(u64, u64, usize, bool)> = self.items.iter().filter(|e| !e.3).collect();
        live.sort_by_key(|e| (e.0, e.1));
        live.iter().map(|e| e.2).collect()
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let mut best: Option<usize> = None;
        for (i, e) in self.items.iter().enumerate() {
            if e.3 {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let (bt, bs, ..) = self.items[b];
                    if (e.0, e.1) < (bt, bs) {
                        best = Some(i);
                    }
                }
            }
        }
        let i = best?;
        let (t, _, id, _) = self.items[i];
        self.items[i].3 = true;
        self.now = t;
        Some((t, id))
    }
}

#[test]
fn queue_matches_reference_model() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let actions = arb_actions(&mut rng);
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = Model::default();

        for (idx, action) in actions.iter().enumerate() {
            match *action {
                Action::Schedule(offset) => {
                    let at = SimTime::from_nanos(q.now().as_nanos() + offset);
                    q.schedule_at(at, idx);
                    model.schedule(at.as_nanos(), idx);
                }
                Action::Pop => {
                    let expect = model.pop();
                    let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                    assert_eq!(got, expect);
                    if let Some((t, _)) = expect {
                        assert_eq!(q.now().as_nanos(), t);
                    }
                }
            }
            assert_eq!(q.len(), model.pending_ids().len());
        }

        // Drain both completely: residues must agree in full order.
        loop {
            let expect = model.pop();
            let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
            assert_eq!(got, expect);
            if expect.is_none() {
                break;
            }
        }
    }
}

#[test]
fn simulation_visits_events_in_time_order() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let len = 1 + rng.index(63);
        let offsets: Vec<u64> = (0..len).map(|_| rng.next_u64() % 10_000_000).collect();
        let mut sim: Simulation<usize> = Simulation::new();
        for (i, &off) in offsets.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(off), i);
        }
        let mut seen: Vec<(u64, usize)> = Vec::new();
        sim.run(|ctx, id| {
            seen.push((ctx.now().as_nanos(), id));
        });
        assert_eq!(seen.len(), offsets.len());
        // Times non-decreasing; ties in insertion order.
        for w in seen.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tiebreak violated");
            }
        }
    }
}

#[test]
fn rng_substreams_do_not_collide() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let master = rng.next_u64();
        let a = rng.next_u64() % 1000;
        let b = rng.next_u64() % 1000;
        if a == b {
            continue;
        }
        let s = SeedStream::new(master);
        assert_ne!(s.derive_indexed("x", a), s.derive_indexed("x", b));
        assert_ne!(s.derive("alpha"), s.derive("beta"));
    }
}

#[test]
fn sim_time_arithmetic_roundtrips() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let base = rng.next_u64() % (u64::MAX / 4);
        let delta = (rng.next_u64() % (i64::MAX as u64 / 4)) as i64;
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        assert_eq!((t + d) - d, t);
        assert_eq!(((t + d) - t).as_nanos(), delta);
    }
}
