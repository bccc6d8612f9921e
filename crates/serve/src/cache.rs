//! Deterministic LRU cache for solved decisions.
//!
//! The map and the recency index are both `BTreeMap`s over plain
//! integer keys — no hashing anywhere — so iteration order, eviction
//! order and therefore every counter the server reports are a pure
//! function of the request stream. (The `CampaignStore` memoizer in the
//! repro harness made whole-campaign cells reusable; this is the same
//! economics at per-request granularity, plus bounded capacity.)
//!
//! A key is [`DecisionParams::bits`](skyferry_core::request::DecisionParams::bits)
//! of the [`Quantizer::snap`](skyferry_core::request::Quantizer::snap):
//! the platform index plus the bits of the snapped parameters, so two
//! requests share an entry exactly when the solver would be handed the
//! same parameters. The engine serves one request at a time —
//! [`DecisionCache::get`], and on a miss a solve followed by
//! [`DecisionCache::insert`] — so there is never an entry without a
//! value.

use std::collections::BTreeMap;

use skyferry_core::optimizer::OptimalTransfer;

/// A cache key: the platform index plus the bits of the four snapped
/// parameters.
pub type Key = [u64; 5];

/// Hit/miss/eviction counters, snapshotted into `STATS` responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident value — the request skipped the
    /// golden-section search.
    pub hits: u64,
    /// Lookups that found nothing and had to solve.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Resident entries right now.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// The LRU itself, owned by one shard thread; nothing here is
/// thread-aware.
#[derive(Debug)]
pub struct DecisionCache {
    capacity: usize,
    slots: BTreeMap<Key, (u64, OptimalTransfer)>,
    /// Recency index: last-use tick → key. The smallest tick is the
    /// least-recently-used entry.
    recency: BTreeMap<u64, Key>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DecisionCache {
    /// An empty cache. `capacity` is the maximum number of resident
    /// entries; `0` disables caching entirely (every lookup misses and
    /// nothing is stored).
    pub fn new(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity,
            slots: BTreeMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Counter/occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.slots.len(),
            capacity: self.capacity,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every entry and zero the counters (the `reset` control
    /// request, between load-generator comparison phases).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.recency.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        // `tick` deliberately keeps counting: recency ordering spans
        // resets, and restarting it would let a stale tick collide.
    }

    /// Look `key` up, counting a hit (and refreshing its recency) or a
    /// miss. Counters move only here, so they — like the eviction order
    /// — depend only on the order of lookups.
    pub fn get(&mut self, key: Key) -> Option<OptimalTransfer> {
        let Some((tick, value)) = self.slots.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.recency.remove(tick);
        *tick = self.tick;
        self.recency.insert(self.tick, key);
        self.tick += 1;
        Some(*value)
    }

    /// Store the solved value of a key that [`get`](DecisionCache::get)
    /// just missed, as the most recently used entry, evicting the
    /// least-recently-used one if the cache is full. A no-op at
    /// capacity 0.
    pub fn insert(&mut self, key: Key, value: OptimalTransfer) {
        if self.capacity == 0 {
            return;
        }
        if let Some((old_tick, _)) = self.slots.remove(&key) {
            self.recency.remove(&old_tick);
        } else if self.slots.len() >= self.capacity {
            if let Some((_, lru_key)) = self.recency.pop_first() {
                self.slots.remove(&lru_key);
                self.evictions += 1;
            }
        }
        self.recency.insert(self.tick, key);
        self.slots.insert(key, (self.tick, value));
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::request::{DecisionParams, Platform, Quantizer};
    use skyferry_sim::rng::DetRng;

    fn v(d: f64) -> OptimalTransfer {
        OptimalTransfer {
            d_opt: d,
            utility: 1.0,
            survival: 1.0,
            ship_s: 0.0,
            tx_s: 1.0,
        }
    }

    fn k(i: u64) -> Key {
        [0, i, 0, 0, 0]
    }

    #[test]
    fn hit_after_insert_returns_the_value() {
        let mut c = DecisionCache::new(4);
        assert_eq!(c.get(k(1)), None);
        c.insert(k(1), v(10.0));
        assert_eq!(c.get(k(1)), Some(v(10.0)));
        assert_eq!(c.get(k(1)), Some(v(10.0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recent_and_respects_touch() {
        let mut c = DecisionCache::new(3);
        for i in 1..=3 {
            assert_eq!(c.get(k(i)), None);
            c.insert(k(i), v(i as f64));
        }
        // Touch key 1 so key 2 becomes the LRU.
        assert!(c.get(k(1)).is_some());
        assert_eq!(c.get(k(4)), None);
        c.insert(k(4), v(4.0));
        // Key 2 was evicted; 1, 3, 4 remain.
        assert!(c.get(k(1)).is_some());
        assert!(c.get(k(3)).is_some());
        assert!(c.get(k(4)).is_some());
        assert_eq!(c.get(k(2)), None);
        c.insert(k(2), v(2.0));
        assert_eq!(c.stats().evictions, 2); // key 2 out for key 4, then key 1 for key 2
        assert_eq!(c.stats().len, 3);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = DecisionCache::new(0);
        assert_eq!(c.get(k(1)), None);
        c.insert(k(1), v(1.0));
        assert_eq!(c.get(k(1)), None);
        assert_eq!(c.stats().len, 0);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn clear_resets_counters_but_not_ticks() {
        let mut c = DecisionCache::new(2);
        c.get(k(1));
        c.insert(k(1), v(1.0));
        c.clear();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 0, 0));
        assert_eq!(c.get(k(1)), None);
    }

    // Satellite 3(c): capacity/eviction invariants under seeded churn.
    #[test]
    fn churn_preserves_lru_invariants() {
        let mut rng = DetRng::seed(0xC4C4_0001);
        let capacity = 16;
        let mut c = DecisionCache::new(capacity);
        let mut resident_model: Vec<u64> = Vec::new(); // MRU at the back
        for step in 0..5000u64 {
            let key_id = rng.index(64) as u64;
            match c.get(k(key_id)) {
                Some(_) => {
                    let pos = resident_model
                        .iter()
                        .position(|&x| x == key_id)
                        .expect("model says resident");
                    resident_model.remove(pos);
                    resident_model.push(key_id);
                }
                None => {
                    assert!(
                        !resident_model.contains(&key_id),
                        "cache missed a key the model holds (step {step})"
                    );
                    if resident_model.len() == capacity {
                        resident_model.remove(0); // evict model LRU
                    }
                    resident_model.push(key_id);
                    c.insert(k(key_id), v(key_id as f64));
                }
            }
            assert!(c.len() <= capacity, "capacity exceeded");
            assert_eq!(c.len(), resident_model.len());
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 5000);
        assert_eq!(
            s.evictions,
            s.misses - s.len as u64,
            "every miss either occupies a slot or displaced someone"
        );
        // The reference model and the cache agree on exactly which keys
        // survived the churn.
        for &key_id in &resident_model {
            assert!(c.get(k(key_id)).is_some());
        }
    }

    #[test]
    fn quantized_keys_coalesce_neighbouring_params() {
        let q = Quantizer::default_buckets();
        let mut c = DecisionCache::new(8);
        let mut a = DecisionParams::baseline(Platform::Airplane);
        let mut b = a;
        a.d0_m = 299.0;
        b.d0_m = 301.0;
        assert_eq!(c.get(q.snap(&a).bits()), None);
        c.insert(q.snap(&a).bits(), v(1.0));
        assert_eq!(c.get(q.snap(&b).bits()), Some(v(1.0)));
    }
}
