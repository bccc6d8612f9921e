//! The request engine: batched decision evaluation with
//! sequential-equivalent cache semantics.
//!
//! The dispatcher hands the engine a batch of validated
//! [`DecisionParams`]; the engine answers with one [`Decision`] per
//! request, in order. Internally:
//!
//! 1. **Bookkeeping pass (sequential, in stream order)** — each request
//!    is quantized to its cache key and looked up with
//!    [`DecisionCache::lookup_or_reserve`]. Hits capture their value
//!    immediately; the first requester of a new key becomes its
//!    *origin* (a `Pending` reservation, evicting the LRU entry if
//!    needed); later same-key requests in the batch share the origin's
//!    result.
//! 2. **Solve pass (parallel)** — the unique missed keys are solved
//!    with `sim::parallel::par_map` over the worker pool.
//! 3. **Fulfil pass (sequential)** — results are published to the cache
//!    and responses assembled.
//!
//! Because every cache state transition happens in pass 1 in stream
//! order, the responses (including `cache_hit` flags), the counters and
//! the eviction sequence are bit-identical to serving the same stream
//! one request at a time — for any worker count *and* any partitioning
//! of the stream into batches. That is the determinism claim the
//! acceptance tests pin down.

use std::collections::BTreeMap;

use skyferry_core::optimizer::OptimalTransfer;
use skyferry_core::request::{DecisionParams, Quantizer};
use skyferry_sim::parallel::{max_threads, par_map_indexed_with_threads};
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

use crate::cache::{CacheStats, DecisionCache, Key, Lookup};
use crate::proto::Decision;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Decision-cache capacity in entries (`0` disables storage).
    pub cache_capacity: usize,
    /// Bucket widths for the cache key (exact mode: raw bits).
    pub quant: Quantizer,
    /// Start with the cache enabled? (Runtime-togglable via the `cache`
    /// control request.)
    pub cache_enabled: bool,
    /// Worker threads for the solve pass (`0` = the `sim::parallel`
    /// global pool). Shard event loops pass `1` so solves stay inline on
    /// the shard thread instead of spawning a nested pool per batch;
    /// `par_map` is order-preserving at any count, so the answer (and
    /// every cache counter) is identical either way.
    pub solve_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 4096,
            quant: Quantizer::default_buckets(),
            cache_enabled: true,
            solve_threads: 0,
        }
    }
}

/// The engine: a decision cache plus the solve orchestration.
#[derive(Debug)]
pub struct Engine {
    quant: Quantizer,
    cache: DecisionCache,
    cache_enabled: bool,
    solve_threads: usize,
}

/// Pass-1 verdict for one request of a batch.
enum Plan {
    Hit(OptimalTransfer),
    Shared(Key),
    Origin(Key),
}

/// Phase boundaries of one [`Engine::serve_batch_timed`] call, in
/// monotonic nanoseconds — what the dispatcher uses to build per-request
/// trace spans and the latency metric without re-measuring.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Batch entry (before the cache bookkeeping pass).
    pub t_start_ns: u64,
    /// End of the sequential cache pass (lookups/reservations done).
    pub t_cache_ns: u64,
    /// End of the solve + fulfil passes (responses assembled).
    pub t_done_ns: u64,
    /// Unique keys actually solved.
    pub solved: usize,
}

impl Engine {
    /// Build an engine from its configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            quant: cfg.quant,
            cache: DecisionCache::new(cfg.cache_capacity, cfg.quant),
            cache_enabled: cfg.cache_enabled,
            solve_threads: cfg.solve_threads,
        }
    }

    fn solve_all(&self, params: &[DecisionParams]) -> Vec<OptimalTransfer> {
        let threads = if self.solve_threads == 0 {
            max_threads()
        } else {
            self.solve_threads
        };
        par_map_indexed_with_threads(params.len(), threads, |i| params[i].solve())
    }

    /// Is the cache currently consulted?
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Toggle the cache (the `cache` control request). Disabling leaves
    /// resident entries in place; re-enabling picks them back up.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Drop all cached decisions and zero the cache counters (the
    /// `reset` control request).
    pub fn reset(&mut self) {
        self.cache.clear();
    }

    /// Cache counter snapshot for `STATS`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The quantizer in force.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quant
    }

    /// Serve one request (a batch of one).
    pub fn serve_one(&mut self, p: DecisionParams) -> Decision {
        self.serve_batch(std::slice::from_ref(&p))
            .pop()
            .expect("batch of one yields one decision")
    }

    /// Serve a batch of *validated* parameters, responses in order.
    pub fn serve_batch(&mut self, batch: &[DecisionParams]) -> Vec<Decision> {
        self.serve_batch_timed(batch).0
    }

    /// [`serve_batch`](Engine::serve_batch) plus the batch's phase
    /// boundary timestamps (see [`BatchTiming`]).
    pub fn serve_batch_timed(&mut self, batch: &[DecisionParams]) -> (Vec<Decision>, BatchTiming) {
        let _span = trace::span!("serve-batch", n = batch.len());
        let t_start_ns = monotonic_ns();
        if !self.cache_enabled {
            // No cache: solve raw (un-snapped) parameters — this is the
            // reference path `--no-cache` comparisons measure against.
            let solved = self.solve_all(batch);
            let decisions: Vec<Decision> = batch
                .iter()
                .zip(solved)
                .map(|(p, transfer)| Decision {
                    transfer,
                    transmit_now: transmit_now(p.d0_m, &transfer),
                    cache_hit: false,
                    policy_hit: false,
                })
                .collect();
            let timing = BatchTiming {
                t_start_ns,
                t_cache_ns: t_start_ns,
                t_done_ns: monotonic_ns(),
                solved: batch.len(),
            };
            return (decisions, timing);
        }

        // Pass 1: sequential bookkeeping in stream order.
        let mut plan = Vec::with_capacity(batch.len());
        let mut miss_keys: Vec<Key> = Vec::new();
        let mut miss_params: Vec<DecisionParams> = Vec::new();
        for p in batch {
            let key = self.quant.key(p);
            match self.cache.lookup_or_reserve(key) {
                Lookup::Hit(v) => plan.push(Plan::Hit(v)),
                Lookup::SharedMiss => plan.push(Plan::Shared(key)),
                Lookup::Miss => {
                    // Keys can re-miss within a batch only if their
                    // reservation was evicted; solve each key once.
                    if !miss_keys.contains(&key) {
                        miss_keys.push(key);
                        miss_params.push(self.quant.snap(p));
                    }
                    plan.push(Plan::Origin(key));
                }
            }
        }

        let t_cache_ns = monotonic_ns();

        // Pass 2: solve unique misses on the worker pool.
        let solved = self.solve_all(&miss_params);

        // Pass 3: publish and assemble. The batch-local map also covers
        // reservations that were evicted before fulfilment.
        let mut computed: BTreeMap<Key, OptimalTransfer> = BTreeMap::new();
        for (key, v) in miss_keys.iter().zip(solved) {
            self.cache.fulfill(*key, v);
            computed.insert(*key, v);
        }
        debug_assert!(!self.cache.has_pending(), "batch left a reservation open");

        let solved_count = miss_keys.len();
        let decisions: Vec<Decision> = batch
            .iter()
            .zip(plan)
            .map(|(p, pl)| {
                let (transfer, cache_hit) = match pl {
                    Plan::Hit(v) => (v, true),
                    Plan::Shared(k) => (
                        *computed
                            .get(&k)
                            .expect("shared miss always follows an origin in the same batch"),
                        true,
                    ),
                    Plan::Origin(k) => (
                        *computed.get(&k).expect("every origin key was solved"),
                        false,
                    ),
                };
                // `transmit_now` is judged against the d0 the solver
                // actually used (the snapped one in quantized mode).
                let d0_solved = self.quant.snap(p).d0_m;
                Decision {
                    transfer,
                    transmit_now: transmit_now(d0_solved, &transfer),
                    cache_hit,
                    policy_hit: false,
                }
            })
            .collect();
        let timing = BatchTiming {
            t_start_ns,
            t_cache_ns,
            t_done_ns: monotonic_ns(),
            solved: solved_count,
        };
        (decisions, timing)
    }
}

fn transmit_now(d0_m: f64, t: &OptimalTransfer) -> bool {
    (d0_m - t.d_opt).abs() < 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::request::Platform;
    use skyferry_core::scenario::BYTES_PER_MB;
    use skyferry_sim::rng::DetRng;

    fn random_params(rng: &mut DetRng) -> DecisionParams {
        let platform = if rng.chance(0.5) {
            Platform::Airplane
        } else {
            Platform::Quadrocopter
        };
        DecisionParams {
            platform,
            d0_m: rng.uniform_range(50.0, 300.0),
            mdata_bytes: rng.uniform_range(1.0, 60.0) * BYTES_PER_MB,
            rho_per_m: rng.uniform_range(5e-5, 5e-4),
            v_mps: rng.uniform_range(2.0, 12.0),
        }
    }

    fn exact_engine(capacity: usize) -> Engine {
        Engine::new(EngineConfig {
            cache_capacity: capacity,
            quant: Quantizer::exact(),
            cache_enabled: true,
            solve_threads: 0,
        })
    }

    fn bits(d: &Decision) -> [u64; 3] {
        [
            d.transfer.d_opt.to_bits(),
            d.transfer.utility.to_bits(),
            d.transfer.cdelay_s().to_bits(),
        ]
    }

    // Satellite 3(a): in exactness mode a cached response is
    // bit-identical to a fresh `optimize` call.
    #[test]
    fn exact_cache_hits_are_bit_identical_to_fresh_solves() {
        let mut rng = DetRng::seed(0x5E17E01);
        let mut engine = exact_engine(256);
        for _ in 0..200 {
            let p = random_params(&mut rng).validated().expect("valid");
            let first = engine.serve_one(p);
            let second = engine.serve_one(p);
            assert!(!first.cache_hit || second.cache_hit);
            assert!(second.cache_hit, "exact repeat must hit");
            let fresh = p.solve();
            assert_eq!(second.transfer, fresh, "cached == fresh, bitwise");
            assert_eq!(bits(&second), bits(&first));
            assert_eq!(second.transmit_now, first.transmit_now);
        }
    }

    // Satellite 3(b): quantized mode's utility loss is bounded by the
    // bucket width — the served decision, evaluated under the *true*
    // parameters, is within a few percent of the true optimum.
    #[test]
    fn quantized_utility_loss_is_bounded() {
        use skyferry_core::utility::utility_view;
        use skyferry_units::Meters;

        let worst_loss = |quant: Quantizer| -> f64 {
            let mut rng = DetRng::seed(0x5E17E02);
            let mut engine = Engine::new(EngineConfig {
                cache_capacity: 4096,
                quant,
                cache_enabled: true,
                solve_threads: 0,
            });
            let mut worst = 0.0f64;
            for _ in 0..300 {
                let p = random_params(&mut rng).validated().expect("valid");
                let served = engine.serve_one(p);
                let truth = p.solve();
                // Clamp the served distance into the true feasible range
                // (bucket snapping can move d0 across the served optimum).
                let d = served
                    .transfer
                    .d_opt
                    .clamp(skyferry_core::request::D_MIN_M, p.d0_m);
                let u_served = utility_view(p.view(), Meters::new(d));
                worst = worst.max(1.0 - u_served / truth.utility);
            }
            worst
        };
        let shrink = |q: Quantizer, f: f64| Quantizer {
            d0_step_m: q.d0_step_m.map(|s| s * f),
            mdata_step_mb: q.mdata_step_mb.map(|s| s * f),
            rho_step_per_m: q.rho_step_per_m.map(|s| s * f),
            speed_step_mps: q.speed_step_mps.map(|s| s * f),
        };
        let default = worst_loss(Quantizer::default_buckets());
        let quarter = worst_loss(shrink(Quantizer::default_buckets(), 0.25));
        let exact = worst_loss(Quantizer::exact());
        assert!(
            default < 0.10,
            "default buckets must stay within 10% of optimal utility, worst {default:.4}"
        );
        assert!(
            quarter < 0.05,
            "quarter-width buckets must stay within 5%, worst {quarter:.4}"
        );
        assert!(quarter < default, "loss shrinks with the bucket width");
        assert!(exact < 1e-12, "exact mode loses nothing, worst {exact:.3e}");
    }

    #[test]
    fn batching_is_equivalent_to_one_at_a_time() {
        let mut rng = DetRng::seed(0x5E17E03);
        // Small cache so evictions exercise the pending/evicted paths.
        let stream: Vec<DecisionParams> = {
            let pool: Vec<DecisionParams> = (0..12)
                .map(|_| random_params(&mut rng).validated().expect("valid"))
                .collect();
            (0..240).map(|_| pool[rng.index(pool.len())]).collect()
        };

        let mut sequential = exact_engine(8);
        let one_by_one: Vec<Decision> = stream.iter().map(|p| sequential.serve_one(*p)).collect();

        for batch_size in [1usize, 3, 17, 64, 240] {
            let mut engine = exact_engine(8);
            let mut batched = Vec::new();
            for chunk in stream.chunks(batch_size) {
                batched.extend(engine.serve_batch(chunk));
            }
            assert_eq!(batched.len(), one_by_one.len());
            for (i, (a, b)) in batched.iter().zip(&one_by_one).enumerate() {
                assert_eq!(a, b, "batch size {batch_size}, request {i}");
            }
            assert_eq!(
                engine.cache_stats(),
                sequential.cache_stats(),
                "counters at batch size {batch_size}"
            );
        }
    }

    // Acceptance: same request stream → bit-identical decisions at any
    // worker count. This is the ONE test in this binary allowed to call
    // set_max_threads (global), restoring it before returning.
    #[test]
    fn decisions_identical_across_1_2_8_threads() {
        use skyferry_sim::parallel::set_max_threads;

        let mut rng = DetRng::seed(0x5E17E04);
        let stream: Vec<DecisionParams> = (0..160)
            .map(|_| {
                let mut p = random_params(&mut rng);
                if rng.chance(0.5) {
                    p.d0_m = 150.0; // force repeats into the mix
                }
                p.validated().expect("valid")
            })
            .collect();

        let mut reference: Option<Vec<Decision>> = None;
        for threads in [1usize, 2, 8] {
            set_max_threads(threads);
            let mut engine = exact_engine(32);
            let mut out = Vec::new();
            for chunk in stream.chunks(40) {
                out.extend(engine.serve_batch(chunk));
            }
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    for (i, (a, b)) in out.iter().zip(r).enumerate() {
                        assert_eq!(a, b, "threads {threads}, request {i}");
                        assert_eq!(bits(a), bits(b));
                    }
                }
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn zero_bucket_requests_get_their_own_answers() {
        // Mdata < 0.5 MB and v < 0.25 m/s round to the zero bucket, where
        // snapping keeps the raw value; each such request must be solved
        // for its own parameters, not served a neighbour's cached answer.
        let quant = Quantizer::default_buckets();
        let mut engine = Engine::new(EngineConfig::default());
        let base = DecisionParams::baseline(Platform::Quadrocopter);
        for (a, b) in [
            (
                DecisionParams {
                    mdata_bytes: 0.2e6,
                    ..base
                },
                DecisionParams {
                    mdata_bytes: 0.4e6,
                    ..base
                },
            ),
            (
                DecisionParams { v_mps: 0.1, ..base },
                DecisionParams { v_mps: 0.2, ..base },
            ),
        ] {
            let first = engine.serve_one(a.validated().expect("valid"));
            let second = engine.serve_one(b.validated().expect("valid"));
            assert!(!second.cache_hit, "{b:?} served from {a:?}'s entry");
            assert_eq!(first.transfer, quant.snap(&a).solve());
            assert_eq!(second.transfer, quant.snap(&b).solve());
            assert_ne!(second.transfer, first.transfer);
        }
    }

    #[test]
    fn no_cache_mode_never_reports_hits() {
        let mut engine = Engine::new(EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::exact(),
            cache_enabled: false,
            solve_threads: 0,
        });
        let p = DecisionParams::baseline(Platform::Airplane);
        for _ in 0..3 {
            assert!(!engine.serve_one(p).cache_hit);
        }
        assert_eq!(engine.cache_stats().hits, 0);
        // Re-enabling picks the (empty) cache back up.
        engine.set_cache_enabled(true);
        assert!(!engine.serve_one(p).cache_hit);
        assert!(engine.serve_one(p).cache_hit);
        engine.reset();
        assert_eq!(engine.cache_stats().len, 0);
        assert!(!engine.serve_one(p).cache_hit);
    }
}
