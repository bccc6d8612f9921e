//! Deterministic, splittable random number streams.
//!
//! Every stochastic model component (fading, GPS noise, failure sampling,
//! rate-control sampling…) must draw from its *own* substream so that adding
//! a draw in one component never perturbs another — the classic requirement
//! for variance reduction and reproducible simulation campaigns.
//!
//! [`SeedStream`] derives independent 64-bit seeds from a master seed and a
//! string label using the SplitMix64 finalizer over a simple label hash;
//! [`DetRng`] is a self-contained xoshiro256++ generator with the small set
//! of sampling helpers the models need (uniform, normal, exponential) so
//! that no external random or distribution crate is required.
//!
//! [`NormalStream`] reads the [`DetRng::standard_normal`] sequence of one
//! generator position from a tape that every stream built at the same
//! position shares. Campaign cells that differ only in what they transmit
//! read the same seeded fading stream, so each standard normal of that
//! stream is computed once per process instead of once per cell, and each
//! reader still gets exactly the bits its own [`DetRng`] would have drawn:
//!
//! * A tape is keyed by the whole position its normals depend on — the
//!   xoshiro state plus the cached Box–Muller spare — in a process-wide
//!   registry of weak references.
//! * It grows on demand in fixed chunks of 1,024 normals, under its own
//!   lock; a reader takes one chunk at a time, so it locks nothing per
//!   normal. A tape holds at most 128 chunks (1 MiB); a reader that reads
//!   past them continues on a private copy of the tape's generator, so a
//!   long run costs no more memory than that.
//! * A tape lives while a reader holds it, plus, on each thread, the tape
//!   that thread opened last, until it opens another stream or exits. So
//!   tasks that run one after another on one worker share too, and no tape
//!   outlives the work that reads it by more than one per thread.
//!
//! [`NormalWork::totals`] counts the normals computed into chunks and the
//! normals read, process-wide: the ratio shows how much the sharing saves.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// This is also the seed-derivation primitive of the parallel execution
/// layer (`crate::parallel`): per-task seeds are splitmix64 mixes of the
/// root seed and the task index, so results are independent of how tasks
/// are distributed over threads.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; used only to turn labels into seed inputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Derives independent seeds (and RNGs) from a master seed.
///
/// ```
/// use skyferry_sim::rng::SeedStream;
/// let stream = SeedStream::new(42);
/// let a = stream.derive("fading");
/// let b = stream.derive("gps-noise");
/// assert_ne!(a, b);
/// assert_eq!(a, SeedStream::new(42).derive("fading")); // reproducible
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Create a stream rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive a 64-bit seed for the component named `label`.
    pub fn derive(&self, label: &str) -> u64 {
        splitmix64(self.master ^ fnv1a(label.as_bytes()))
    }

    /// Derive a seed for the `index`-th replication of component `label`
    /// (e.g. one seed per measurement run in a campaign).
    pub fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.derive(label) ^ splitmix64(index.wrapping_add(1)))
    }

    /// Build a [`DetRng`] for the component named `label`.
    pub fn rng(&self, label: &str) -> DetRng {
        DetRng::seed(self.derive(label))
    }

    /// Build a [`DetRng`] for replication `index` of component `label`.
    pub fn rng_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::seed(self.derive_indexed(label, index))
    }
}

/// A deterministic RNG with the sampling helpers the skyferry models use.
///
/// The core generator is xoshiro256++ (Blackman & Vigna), seeded by
/// expanding a 64-bit seed through SplitMix64 — the reference seeding
/// procedure. It is fast, has a 2^256 − 1 period, and its output is
/// identical on every platform, which is what campaign determinism rests
/// on.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl DetRng {
    /// Seed from a 64-bit value.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *s = splitmix64(sm);
        }
        DetRng {
            state,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi);
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased multiply-shift
    /// rejection method).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
            // Rejected: retry keeps the distribution exactly uniform.
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Standard normal sample (Box–Muller, with spare caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        scaled_normal(mean, std_dev, self.standard_normal())
    }

    /// Exponential sample with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda.is_finite() && lambda > 0.0);
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / lambda
    }

    /// Everything the generator's normal sequence depends on: the
    /// xoshiro state and the bits of the cached Box–Muller spare.
    fn position(&self) -> Position {
        (self.state, self.gauss_spare.map(f64::to_bits))
    }
}

/// `mean + std_dev * z`: a standard normal `z` scaled to a normal sample.
///
/// # Panics
/// Panics if `std_dev` is negative or not finite.
fn scaled_normal(mean: f64, std_dev: f64, z: f64) -> f64 {
    assert!(std_dev.is_finite() && std_dev >= 0.0);
    mean + std_dev * z
}

/// Standard normals per tape chunk (8 KiB).
const CHUNK: usize = 1024;

/// Chunks one tape holds at most (1 MiB); a [`NormalStream`] that reads
/// past them continues on a private generator.
const TAPE_CHUNKS: usize = 128;

/// Where a [`DetRng`] stands, as far as its normals are concerned.
type Position = ([u64; 4], Option<u64>);

/// The normals of one generator position, computed once and shared.
struct Tape(Mutex<TapeState>);

/// A tape's generator and the chunks it has computed so far.
struct TapeState {
    /// The generator, standing after the last chunk.
    rng: DetRng,
    /// Chunk `i` holds normals `i * CHUNK .. (i + 1) * CHUNK`.
    chunks: Vec<Arc<[f64]>>,
}

/// Every live tape, by the position it starts at.
static TAPES: Mutex<BTreeMap<Position, Weak<Tape>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The tape this thread opened last, kept for the next task on it.
    static LAST_TAPE: RefCell<Option<Arc<Tape>>> = const { RefCell::new(None) };
}

/// Normals computed into chunks and normals read, in [`NormalWork`]
/// field order.
static NORMAL_TOTALS: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

/// A lock that a panicking holder cannot have left half-written: every
/// guarded update here is one `push` or `insert` after the work is done.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tape {
    /// The tape of `rng`'s position: the live one, or a new one.
    fn open(rng: DetRng) -> Arc<Tape> {
        let position = rng.position();
        let tape = {
            let mut tapes = lock(&TAPES);
            match tapes.get(&position).and_then(Weak::upgrade) {
                Some(tape) => tape,
                None => {
                    tapes.retain(|_, tape| tape.strong_count() > 0);
                    let tape = Arc::new(Tape(Mutex::new(TapeState {
                        rng,
                        chunks: Vec::new(),
                    })));
                    tapes.insert(position, Arc::downgrade(&tape));
                    tape
                }
            }
        };
        // A thread being torn down keeps nothing.
        let _ = LAST_TAPE.try_with(|last| last.replace(Some(Arc::clone(&tape))));
        tape
    }
}

/// The next [`CHUNK`] normals of `rng`.
fn compute_chunk(rng: &mut DetRng) -> Arc<[f64]> {
    NORMAL_TOTALS[0].fetch_add(CHUNK as u64, Ordering::Relaxed);
    (0..CHUNK).map(|_| rng.standard_normal()).collect()
}

/// Where a [`NormalStream`] takes its next chunk from.
#[derive(Clone)]
enum Source {
    /// The shared tape (held alive by this reference).
    Tape(Arc<Tape>),
    /// A private generator, once the reader is past the tape's end.
    Own(DetRng),
}

/// The [`DetRng::standard_normal`] sequence of one generator, read from
/// a tape shared with every stream built at the same position (see the
/// [module docs](self)).
///
/// ```
/// use skyferry_sim::rng::{DetRng, NormalStream};
/// let mut own = DetRng::seed(7);
/// let mut shared = NormalStream::new(DetRng::seed(7));
/// for _ in 0..10_000 {
///     assert_eq!(shared.standard_normal().to_bits(), own.standard_normal().to_bits());
/// }
/// ```
pub struct NormalStream {
    source: Source,
    /// The chunk being read.
    chunk: Arc<[f64]>,
    /// Index of the next normal in `chunk`.
    next: usize,
    /// Normals of the stream before `chunk`.
    before: u64,
    /// The position this reader started counting its reads at.
    counted_from: u64,
}

impl NormalStream {
    /// A stream of `rng`'s standard normals, from its current position.
    pub fn new(rng: DetRng) -> Self {
        NormalStream {
            source: Source::Tape(Tape::open(rng)),
            chunk: Arc::new([]),
            next: 0,
            before: 0,
            counted_from: 0,
        }
    }

    /// The next standard normal: bit for bit the one
    /// [`DetRng::standard_normal`] would return.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if self.next == self.chunk.len() {
            self.refill();
        }
        let z = self.chunk[self.next];
        self.next += 1;
        z
    }

    /// Normal sample with the given mean and standard deviation, as
    /// [`DetRng::normal`] computes it.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or not finite.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        scaled_normal(mean, std_dev, self.standard_normal())
    }

    /// Normals read from the start of the stream.
    fn position(&self) -> u64 {
        self.before + self.next as u64
    }

    /// Move on to the next chunk: the tape's, computed onto it if no
    /// reader got there first, or a private one past the tape's end.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        self.before += self.chunk.len() as u64;
        self.next = 0;
        if let Source::Tape(tape) = &self.source {
            let index = (self.before / CHUNK as u64) as usize;
            let mut state = lock(&tape.0);
            if let Some(chunk) = state.chunks.get(index) {
                self.chunk = Arc::clone(chunk);
                return;
            }
            if state.chunks.len() < TAPE_CHUNKS {
                let chunk = compute_chunk(&mut state.rng);
                state.chunks.push(Arc::clone(&chunk));
                self.chunk = chunk;
                return;
            }
            // The tape is full, and its generator stands where this
            // reader is.
            let own = state.rng.clone();
            drop(state);
            self.source = Source::Own(own);
        }
        if let Source::Own(rng) = &mut self.source {
            self.chunk = compute_chunk(rng);
        }
    }
}

impl Clone for NormalStream {
    /// A stream that continues from the same position; it counts only
    /// its own reads.
    fn clone(&self) -> Self {
        NormalStream {
            source: self.source.clone(),
            chunk: Arc::clone(&self.chunk),
            next: self.next,
            before: self.before,
            counted_from: self.position(),
        }
    }
}

impl std::fmt::Debug for NormalStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalStream")
            .field("position", &self.position())
            .field("shared", &matches!(self.source, Source::Tape(_)))
            .finish()
    }
}

impl Drop for NormalStream {
    fn drop(&mut self) {
        NORMAL_TOTALS[1].fetch_add(self.position() - self.counted_from, Ordering::Relaxed);
    }
}

/// Standard normals of every [`NormalStream`]: plain counts, like the
/// link work totals. `computed` is chunk-granular and, at more than one
/// worker, depends on which readers overlap; `read` depends only on what
/// was simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalWork {
    /// Normals computed into chunks, shared or private.
    pub computed: u64,
    /// Normals read; each stream adds its reads when it drops.
    pub read: u64,
}

impl NormalWork {
    /// The totals of this process so far; take the difference of two
    /// readings with [`NormalWork::since`].
    pub fn totals() -> Self {
        // Relaxed: the totals publish no other data, and a reader that
        // needs a complete count joins the reading threads first.
        let [computed, read] = NORMAL_TOTALS.each_ref().map(|t| t.load(Ordering::Relaxed));
        NormalWork { computed, read }
    }

    /// The work done between an earlier reading and this one.
    pub fn since(self, earlier: NormalWork) -> Self {
        NormalWork {
            computed: self.computed - earlier.computed,
            read: self.read - earlier.read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_reproducible_and_label_sensitive() {
        let s = SeedStream::new(7);
        assert_eq!(s.derive("a"), SeedStream::new(7).derive("a"));
        assert_ne!(s.derive("a"), s.derive("b"));
        assert_ne!(s.derive("a"), SeedStream::new(8).derive("a"));
        assert_ne!(s.derive_indexed("a", 0), s.derive_indexed("a", 1));
    }

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::seed(123);
        let mut b = DetRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DetRng::seed(1);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = DetRng::seed(2);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = DetRng::seed(3);
        let lambda = 0.25;
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn chance_clamps_probability() {
        let mut rng = DetRng::seed(5);
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn index_covers_range() {
        let mut rng = DetRng::seed(6);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = DetRng::seed(7);
        let n = 7usize;
        let draws = 70_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "bucket {i}: {c} vs {expected}"
            );
        }
    }

    /// The first `n` standard normals of `rng`, as bits.
    fn own_normals(mut rng: DetRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.standard_normal().to_bits()).collect()
    }

    /// The next `n` normals of `stream`, as bits.
    fn read(stream: &mut NormalStream, n: usize) -> Vec<u64> {
        (0..n).map(|_| stream.standard_normal().to_bits()).collect()
    }

    /// The tape a stream reads, while it reads one.
    fn tape(stream: &NormalStream) -> Option<&Arc<Tape>> {
        match &stream.source {
            Source::Tape(tape) => Some(tape),
            Source::Own(_) => None,
        }
    }

    #[test]
    fn shared_stream_from_a_fresh_seed_is_the_private_stream() {
        let n = 3 * CHUNK + 17;
        let mut stream = NormalStream::new(DetRng::seed(0x5EED_0001));
        assert_eq!(
            read(&mut stream, n),
            own_normals(DetRng::seed(0x5EED_0001), n)
        );
    }

    #[test]
    fn shared_stream_keeps_a_cached_spare() {
        let mut rng = DetRng::seed(0x5EED_0002);
        let first = rng.standard_normal();
        assert!(rng.gauss_spare.is_some());
        let mut stream = NormalStream::new(rng.clone());
        let want = own_normals(rng.clone(), 2 * CHUNK + 1);
        assert_eq!(read(&mut stream, 2 * CHUNK + 1), want);
        // The fresh seed is another position: it starts with `first`.
        let mut fresh = NormalStream::new(DetRng::seed(0x5EED_0002));
        assert_eq!(fresh.standard_normal().to_bits(), first.to_bits());
        // Same xoshiro state, no spare: another tape, although the one
        // with the spare is still open.
        let mut bare = DetRng::seed(0x5EED_0002);
        bare.uniform();
        bare.uniform();
        assert_eq!(bare.state, rng.state);
        let mut no_spare = NormalStream::new(bare.clone());
        assert_eq!(read(&mut no_spare, 3), own_normals(bare, 3));
    }

    #[test]
    fn shared_stream_crosses_chunk_boundaries_exactly() {
        let seed = 0x5EED_0003;
        let want = own_normals(DetRng::seed(seed), 4 * CHUNK);
        // Readers that stop one short of, on, and one past a boundary.
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 1] {
            let mut stream = NormalStream::new(DetRng::seed(seed));
            assert_eq!(read(&mut stream, n), want[..n], "stopped at {n}");
            assert_eq!(stream.position(), n as u64);
        }
    }

    #[test]
    fn shared_stream_reads_past_every_other_reader_and_past_the_tape() {
        let seed = 0x5EED_0004;
        let n = (TAPE_CHUNKS + 2) * CHUNK + 5;
        let want = own_normals(DetRng::seed(seed), n);
        let mut short = NormalStream::new(DetRng::seed(seed));
        assert_eq!(read(&mut short, CHUNK / 2), want[..CHUNK / 2]);
        let mut long = NormalStream::new(DetRng::seed(seed));
        assert!(Arc::ptr_eq(
            tape(&short).expect("shared"),
            tape(&long).expect("shared")
        ));
        drop(short);
        assert_eq!(read(&mut long, n), want);
        // Past the tape's end the reader runs on its own generator.
        assert!(tape(&long).is_none());
        // A later reader still gets the tape's chunks, then its own tail.
        let mut late = NormalStream::new(DetRng::seed(seed));
        assert_eq!(read(&mut late, n), want);
    }

    #[test]
    fn shared_streams_interleave_with_other_positions() {
        let mut rng_b = DetRng::seed(0x5EED_0005);
        rng_b.next_u64();
        let n = 2 * CHUNK + 3;
        let want_a = own_normals(DetRng::seed(0x5EED_0005), n);
        let want_b = own_normals(rng_b.clone(), n);
        let mut a = NormalStream::new(DetRng::seed(0x5EED_0005));
        let mut b = NormalStream::new(rng_b);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // `b` reads twice as fast, so the two cross their boundaries apart.
        while got_a.len() < n {
            got_a.extend(read(&mut a, 1));
            got_b.extend(read(&mut b, 2.min(n - got_b.len())));
        }
        assert_eq!((got_a, got_b), (want_a, want_b));
    }

    #[test]
    fn shared_stream_is_exact_on_two_workers() {
        let seed = 0x5EED_0007;
        let lengths = [
            5 * CHUNK + 9,
            CHUNK,
            3 * CHUNK - 1,
            7,
            4 * CHUNK,
            2 * CHUNK + 1,
        ];
        let want = own_normals(DetRng::seed(seed), 5 * CHUNK + 9);
        let got = crate::parallel::par_map_indexed_with_threads(lengths.len(), 2, |i| {
            read(&mut NormalStream::new(DetRng::seed(seed)), lengths[i])
        });
        for (n, got) in lengths.iter().zip(got) {
            assert_eq!(got, want[..*n]);
        }
    }

    #[test]
    fn cloned_stream_continues_from_the_same_position() {
        let seed = 0x5EED_0008;
        let want = own_normals(DetRng::seed(seed), 3 * CHUNK);
        let mut stream = NormalStream::new(DetRng::seed(seed));
        let head = read(&mut stream, CHUNK + 11);
        let mut copy = stream.clone();
        assert_eq!(copy.counted_from, copy.position());
        let rest = 3 * CHUNK - head.len();
        assert_eq!(read(&mut copy, rest), want[head.len()..]);
        assert_eq!(read(&mut stream, rest), want[head.len()..]);
    }

    #[test]
    fn a_thread_keeps_the_tape_it_opened_last() {
        let first = NormalStream::new(DetRng::seed(0x5EED_0009));
        let kept = Arc::downgrade(tape(&first).expect("shared"));
        drop(first);
        // No reader holds it, but this thread opened it last.
        let again = NormalStream::new(DetRng::seed(0x5EED_0009));
        assert!(Weak::ptr_eq(
            &kept,
            &Arc::downgrade(tape(&again).expect("shared"))
        ));
        drop(again);
        // Opening another stream lets it go.
        let _other = NormalStream::new(DetRng::seed(0x5EED_000A));
        assert_eq!(kept.strong_count(), 0);
    }

    #[test]
    fn shared_normal_scales_like_det_rng() {
        let mut own = DetRng::seed(0x5EED_000B);
        let mut stream = NormalStream::new(DetRng::seed(0x5EED_000B));
        for (mean, sd) in [(0.0, 1.0), (3.0, 0.5), (-2.0, 0.0), (1e3, 7.25)] {
            assert_eq!(
                stream.normal(mean, sd).to_bits(),
                own.normal(mean, sd).to_bits()
            );
        }
    }

    #[test]
    #[should_panic]
    fn shared_normal_rejects_a_negative_deviation() {
        NormalStream::new(DetRng::seed(1)).normal(0.0, -1.0);
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        let a: Vec<u64> = {
            let mut r = DetRng::seed(1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::seed(2);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert!(a.iter().zip(&b).filter(|(x, y)| x == y).count() == 0);
    }
}
