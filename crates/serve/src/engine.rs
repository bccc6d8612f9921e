//! The request engine: one decide at a time, in arrival order.
//!
//! The shard that owns a decide's key hands it to [`Engine::decide`] as
//! soon as it has it, and the engine answers it before it looks at the
//! next:
//!
//! 1. the shard that parsed the decide snapped its parameters with the
//!    [`Quantizer`] and checked the snap; its bits are the cache key;
//! 2. [`DecisionCache::get`] — a hit answers from the stored value;
//! 3. on a miss, solve the snapped parameters inline on the shard thread
//!    and [`DecisionCache::insert`] the result.
//!
//! That is one-at-a-time serving by construction, so the responses
//! (`cache_hit` flags included), the counters and the eviction order
//! depend only on the order the decides arrive in.

use skyferry_core::request::{DecisionParams, Quantizer};
use skyferry_trace::clock::monotonic_ns;
use skyferry_units::Meters;

use crate::cache::{CacheStats, DecisionCache};
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
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 4096,
            quant: Quantizer::default_buckets(),
            cache_enabled: true,
        }
    }
}

/// The engine: a decision cache plus the solver.
#[derive(Debug)]
pub struct Engine {
    quant: Quantizer,
    cache: DecisionCache,
    cache_enabled: bool,
}

impl Engine {
    /// Build an engine from its configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            quant: cfg.quant,
            cache: DecisionCache::new(cfg.cache_capacity),
            cache_enabled: cfg.cache_enabled,
        }
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

    /// Answer one validated request `p`, given its snap under this
    /// engine's quantizer, adding the time its solve took (if it needed
    /// one) to `solve_ns`; a hit reads no clock.
    pub fn decide(
        &mut self,
        p: &DecisionParams,
        snapped: &DecisionParams,
        solve_ns: &mut u64,
    ) -> Decision {
        // No cache: solve raw (un-snapped) parameters — this is the
        // reference path `--no-cache` comparisons measure against.
        let (params, key) = if self.cache_enabled {
            (*snapped, Some(snapped.bits()))
        } else {
            (*p, None)
        };
        let hit = key.and_then(|k| self.cache.get(k));
        let transfer = match hit {
            Some(v) => v,
            None => {
                let t0 = monotonic_ns();
                let v = params.solve();
                *solve_ns += monotonic_ns() - t0;
                if let Some(k) = key {
                    self.cache.insert(k, v);
                }
                v
            }
        };
        Decision {
            transfer,
            // `transmit_now` is judged against the d0 the solver actually
            // used (the snapped one in quantized mode).
            transmit_now: transfer.transmit_now(Meters::new(params.d0_m)),
            cache_hit: hit.is_some(),
            policy_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::request::Platform;
    use skyferry_core::scenario::BYTES_PER_MB;
    use skyferry_sim::rng::DetRng;

    fn serve_one(engine: &mut Engine, p: DecisionParams) -> Decision {
        let snapped = engine.quantizer().snap(&p);
        engine.decide(&p, &snapped, &mut 0)
    }

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
            let first = serve_one(&mut engine, p);
            let second = serve_one(&mut engine, p);
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
        use skyferry_core::utility::utility;

        let worst_loss = |quant: Quantizer| -> f64 {
            let mut rng = DetRng::seed(0x5E17E02);
            let mut engine = Engine::new(EngineConfig {
                cache_capacity: 4096,
                quant,
                cache_enabled: true,
            });
            let mut worst = 0.0f64;
            for _ in 0..300 {
                let p = random_params(&mut rng).validated().expect("valid");
                let served = serve_one(&mut engine, p);
                let truth = p.solve();
                // Clamp the served distance into the true feasible range
                // (bucket snapping can move d0 across the served optimum).
                let d = served
                    .transfer
                    .d_opt
                    .clamp(skyferry_core::request::D_MIN_M, p.d0_m);
                let u_served = utility(p.scenario(), Meters::new(d));
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
    fn zero_bucket_requests_get_their_own_answers() {
        // Mdata < 0.5 MB and v < 0.25 m/s round to the zero bucket, where
        // snapping keeps the raw value, and d0 = 1e20 m lies 2e19 buckets
        // out; each such request must be solved for its own parameters,
        // not served a neighbour's cached answer.
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
            (
                DecisionParams { d0_m: 1e20, ..base },
                DecisionParams { d0_m: 2e20, ..base },
            ),
        ] {
            let first = serve_one(&mut engine, a.validated().expect("valid"));
            let second = serve_one(&mut engine, b.validated().expect("valid"));
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
        });
        let p = DecisionParams::baseline(Platform::Airplane);
        for _ in 0..3 {
            assert!(!serve_one(&mut engine, p).cache_hit);
        }
        assert_eq!(engine.cache_stats().hits, 0);
        // Re-enabling picks the (empty) cache back up.
        engine.set_cache_enabled(true);
        assert!(!serve_one(&mut engine, p).cache_hit);
        assert!(serve_one(&mut engine, p).cache_hit);
        engine.reset();
        assert_eq!(engine.cache_stats().len, 0);
        assert!(!serve_one(&mut engine, p).cache_hit);
    }
}
