//! The global collector: per-thread append-only buffers, logical merge keys,
//! and the guard types behind the `span!`/`event!` macros.
//!
//! Determinism contract (see also [`crate::record`]): a record's merge key
//! `(epoch, lane, seq)` and its timestamps under [`ClockMode::Sim`] depend
//! only on the *logical* position of the emission — which parallel region,
//! which task rank, which emission within that task — never on which OS
//! thread executed it or how threads interleaved. [`drain`] sorts by the
//! merge key, so the drained trace is bit-identical across worker counts.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::monotonic_ns;
use crate::record::{Fields, Record, RecordKind, AUTO_LANE_BASE};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed clock: true for [`ClockMode::Sim`], false for
/// [`ClockMode::Mono`] (and while nothing is installed).
static VIRTUAL: AtomicBool = AtomicBool::new(false);
/// 1 = record everything, 0 = record nothing (enabled-but-unsampled),
/// N = record every Nth span/event per thread.
static SAMPLE: AtomicU32 = AtomicU32::new(1);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static AUTO_LANE: AtomicU64 = AtomicU64::new(AUTO_LANE_BASE);
static SINK: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Virtual nanoseconds per clock read under [`ClockMode::Sim`].
const SIM_TICK_NS: u64 = 1_000;

/// Which clock stamps span and event timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real monotonic time ([`monotonic_ns`]), for profiling.
    #[default]
    Mono,
    /// Virtual time: each read advances the lane's tick counter by
    /// 1,000 ns, so timestamps are deterministic.
    Sim,
}

/// Collector configuration for [`install`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Time source for span/event timestamps.
    pub clock: ClockMode,
    /// Sampling stride: 1 = everything (default), 0 = nothing, N = 1-in-N.
    pub sample: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            clock: ClockMode::Mono,
            sample: 1,
        }
    }
}

impl TraceConfig {
    /// Deterministic preset: [`ClockMode::Sim`] timestamps, full recording.
    pub fn deterministic() -> Self {
        TraceConfig {
            clock: ClockMode::Sim,
            sample: 1,
        }
    }
}

/// Per-thread collector state. `records` only ever appends; it is flushed
/// into the global sink on [`drain`] and on thread exit.
struct Local {
    lane: Option<u64>,
    epoch: Option<u64>,
    seq: u64,
    ticks: u64,
    sample_tick: u32,
    stack: Vec<u64>,
    records: Vec<Record>,
}

impl Local {
    /// Auto-flush threshold: a thread's buffer spills to the global sink
    /// once it holds this many records, so a long-running traced thread
    /// (the serve dispatcher) uses bounded memory and pays one sink-mutex
    /// acquisition per chunk instead of unbounded `Vec` growth. Sized to
    /// keep the hot buffer around 100 KiB (records are ~112 bytes), well
    /// inside L2 — a larger chunk measurably evicts the serve engine's
    /// working set on small cores. Merge order is unaffected — [`drain`]
    /// sorts by `(epoch, lane, seq)`.
    const FLUSH_CHUNK: usize = 1024;

    const fn new() -> Self {
        Local {
            lane: None,
            epoch: None,
            seq: 0,
            ticks: 0,
            sample_tick: 0,
            stack: Vec::new(),
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.records.is_empty() {
            let mut sink = SINK.lock().expect("trace sink poisoned");
            sink.append(&mut self.records);
        }
    }

    #[inline]
    fn maybe_flush(&mut self) {
        if self.records.len() >= Self::FLUSH_CHUNK {
            self.flush();
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// Install the collector and start recording. Clears any previous records
/// and resets the epoch, auto-lane and current-thread counters, so traces
/// from consecutive `install`/[`drain`] cycles are independent.
pub fn install(cfg: TraceConfig) {
    VIRTUAL.store(cfg.clock == ClockMode::Sim, Ordering::SeqCst);
    SAMPLE.store(cfg.sample, Ordering::SeqCst);
    EPOCH.store(0, Ordering::SeqCst);
    AUTO_LANE.store(AUTO_LANE_BASE, Ordering::SeqCst);
    SINK.lock().expect("trace sink poisoned").clear();
    LOCAL.with(|l| *l.borrow_mut() = Local::new());
    ENABLED.store(true, Ordering::SeqCst);
}

/// True while recording. The `span!`/`event!` macros check this before
/// touching any thread-local state, so the disabled path is one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when the installed clock is virtual (deterministic timestamps).
pub fn clock_is_virtual() -> bool {
    VIRTUAL.load(Ordering::Relaxed)
}

/// Stop recording and return all records sorted by `(epoch, lane, seq)`.
///
/// Only flushes the calling thread's buffer plus everything worker threads
/// flushed when they exited — call after joining any traced workers.
pub fn drain() -> Vec<Record> {
    ENABLED.store(false, Ordering::SeqCst);
    VIRTUAL.store(false, Ordering::SeqCst);
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut records = std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"));
    records.sort_by_key(Record::sort_key);
    records
}

/// The installed clock's next timestamp for this thread's lane.
fn now(local: &mut Local) -> u64 {
    if VIRTUAL.load(Ordering::Relaxed) {
        local.ticks += 1;
        local.ticks * SIM_TICK_NS
    } else {
        monotonic_ns()
    }
}

/// Sampling decision, advanced per candidate record on this thread.
fn passes_sampling(local: &mut Local) -> bool {
    match SAMPLE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        n => {
            local.sample_tick = (local.sample_tick + 1) % n;
            local.sample_tick == 0
        }
    }
}

fn current_epoch(local: &Local) -> u64 {
    local.epoch.unwrap_or_else(|| EPOCH.load(Ordering::Relaxed))
}

fn current_lane(local: &mut Local) -> u64 {
    match local.lane {
        Some(lane) => lane,
        None => {
            // Lazy so worker threads that only ever emit inside lane guards
            // never consume an auto lane id (the fetch_add order of workers
            // racing here is the one nondeterministic thing in the design,
            // and it is confined to unguarded emissions).
            let lane = AUTO_LANE.fetch_add(1, Ordering::Relaxed);
            local.lane = Some(lane);
            lane
        }
    }
}

/// RAII guard for a parallel region: bumps the global epoch on entry and
/// exit so records before, inside and after the region occupy three
/// distinct epochs and can never interleave in the sorted trace.
#[must_use = "the region ends when this guard drops"]
pub struct RegionGuard {
    epoch: u64,
    live: bool,
}

impl RegionGuard {
    /// The epoch assigned to this region's tasks (pass to [`lane`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        if self.live {
            EPOCH.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Open a parallel region. When recording is disabled this is a no-op
/// guard with epoch 0.
///
/// A region opened *inside* an active lane (nested parallelism) does not
/// bump the global epoch — the global counter's value would depend on how
/// concurrent outer tasks interleaved. It reuses the enclosing task's
/// epoch instead, and the nested [`lane`]s compose their ids with
/// [`NESTED_LANE_STRIDE`](crate::record::NESTED_LANE_STRIDE).
pub fn region() -> RegionGuard {
    if !enabled() {
        return RegionGuard {
            epoch: 0,
            live: false,
        };
    }
    if let Some(outer) = LOCAL.with(|l| l.borrow().epoch) {
        return RegionGuard {
            epoch: outer,
            live: false,
        };
    }
    let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    RegionGuard { epoch, live: true }
}

/// Saved thread state while a lane guard is active.
struct LaneSave {
    lane: Option<u64>,
    epoch: Option<u64>,
    seq: u64,
    ticks: u64,
    sample_tick: u32,
    stack: Vec<u64>,
}

/// RAII guard binding the current thread to a logical `(epoch, lane)` for
/// one task activation. Sequence numbers, virtual-clock ticks and the span
/// stack all restart from zero, and the previous thread state is restored
/// on drop — so a task emits *identical* records whether it runs inline on
/// the caller's thread (serial path) or on a worker.
#[must_use = "the lane deactivates when this guard drops"]
pub struct LaneGuard {
    saved: Option<LaneSave>,
}

/// Activate logical lane `lane` under region epoch `epoch` on the current
/// thread. No-op when recording is disabled. When another lane is already
/// active (nested parallelism run inline), the ids compose via
/// [`NESTED_LANE_STRIDE`](crate::record::NESTED_LANE_STRIDE) so nested
/// tasks of different outer tasks stay on distinct deterministic lanes.
pub fn lane(epoch: u64, lane: u64) -> LaneGuard {
    if !enabled() {
        return LaneGuard { saved: None };
    }
    let saved = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let lane = match (l.epoch, l.lane) {
            (Some(_), Some(outer)) => {
                outer.saturating_mul(crate::record::NESTED_LANE_STRIDE) + lane
            }
            _ => lane,
        };
        let saved = LaneSave {
            lane: l.lane.take(),
            epoch: l.epoch.take(),
            seq: std::mem::take(&mut l.seq),
            ticks: std::mem::take(&mut l.ticks),
            sample_tick: std::mem::take(&mut l.sample_tick),
            stack: std::mem::take(&mut l.stack),
        };
        l.lane = Some(lane);
        l.epoch = Some(epoch);
        saved
    });
    LaneGuard { saved: Some(saved) }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.lane = saved.lane;
                l.epoch = saved.epoch;
                l.seq = saved.seq;
                l.ticks = saved.ticks;
                l.sample_tick = saved.sample_tick;
                l.stack = saved.stack;
                // Flush the finished task's records eagerly: scoped worker
                // threads can signal completion before their thread-local
                // destructors run, so a drain right after the join could
                // otherwise miss a worker's buffer.
                l.flush();
            });
        }
    }
}

/// RAII guard for an in-progress span; records on drop. Construct via the
/// [`span!`](crate::span) macro (or [`start_span`] directly).
pub struct SpanGuard {
    seq: u64,
    parent: Option<u64>,
    start_ns: u64,
    name: &'static str,
    fields: Fields,
    live: bool,
}

/// Begin a span. Callers should use the [`span!`](crate::span) macro, which
/// checks [`enabled`] first and builds the field vector lazily.
pub fn start_span(name: &'static str, fields: Fields) -> SpanGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !enabled() || !passes_sampling(&mut l) {
            return SpanGuard {
                seq: 0,
                parent: None,
                start_ns: 0,
                name,
                fields: Vec::new(),
                live: false,
            };
        }
        let seq = l.seq;
        l.seq += 1;
        let parent = l.stack.last().copied();
        l.stack.push(seq);
        let start_ns = now(&mut l);
        SpanGuard {
            seq,
            parent,
            start_ns,
            name,
            fields,
            live: true,
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let end_ns = now(&mut l);
            if l.stack.last() == Some(&self.seq) {
                l.stack.pop();
            } else {
                // Out-of-order guard drop: still close this span correctly.
                l.stack.retain(|&s| s != self.seq);
            }
            let epoch = current_epoch(&l);
            let lane = current_lane(&mut l);
            l.records.push(Record {
                epoch,
                lane,
                seq: self.seq,
                parent: self.parent,
                name: Cow::Borrowed(self.name),
                kind: RecordKind::Span {
                    start_ns: self.start_ns,
                    end_ns,
                },
                fields: std::mem::take(&mut self.fields),
            });
            l.maybe_flush();
        });
    }
}

/// Record a point event. Callers should use the [`event!`](crate::event)
/// macro, which checks [`enabled`] first.
pub fn record_event(name: &'static str, fields: Fields) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !enabled() || !passes_sampling(&mut l) {
            return;
        }
        let seq = l.seq;
        l.seq += 1;
        let parent = l.stack.last().copied();
        let at_ns = now(&mut l);
        let epoch = current_epoch(&l);
        let lane = current_lane(&mut l);
        l.records.push(Record {
            epoch,
            lane,
            seq,
            parent,
            name: Cow::Borrowed(name),
            kind: RecordKind::Event { at_ns },
            fields,
        });
    });
}

/// A span whose timestamps the caller supplies, for code that measures time
/// itself (the serve dispatcher builds request trees from queue/cache/solve
/// boundary timestamps it already collects for metrics).
///
/// The parent sequence number is reserved at construction, so the child
/// spans sort *after* their parent (tree preorder) even though
/// [`ManualSpan::finish_tree`] writes the parent record last.
pub struct ManualSpan {
    seq: u64,
    parent: Option<u64>,
    name: &'static str,
    live: bool,
}

/// Open a manual span (no-op when disabled; nothing is recorded until
/// [`ManualSpan::finish_tree`]).
pub fn manual_span(name: &'static str) -> ManualSpan {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !enabled() || !passes_sampling(&mut l) {
            return ManualSpan {
                seq: 0,
                parent: None,
                name,
                live: false,
            };
        }
        let seq = l.seq;
        l.seq += 1;
        let parent = l.stack.last().copied();
        ManualSpan {
            seq,
            parent,
            name,
            live: true,
        }
    })
}

impl ManualSpan {
    /// True when this span will actually record (sampling + enabled).
    pub fn live(&self) -> bool {
        self.live
    }

    /// Close the span and record `children` (name, start, end) under it,
    /// in one thread-local access and one reserve for the whole tree.
    pub fn finish_tree(
        self,
        start_ns: u64,
        end_ns: u64,
        fields: Fields,
        children: &[(&'static str, u64, u64)],
    ) {
        if !self.live || !enabled() {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let epoch = current_epoch(&l);
            let lane = current_lane(&mut l);
            l.records.reserve(children.len() + 1);
            for &(name, c_start, c_end) in children {
                let seq = l.seq;
                l.seq += 1;
                l.records.push(Record {
                    epoch,
                    lane,
                    seq,
                    parent: Some(self.seq),
                    name: Cow::Borrowed(name),
                    kind: RecordKind::Span {
                        start_ns: c_start,
                        end_ns: c_end,
                    },
                    fields: Vec::new(),
                });
            }
            l.records.push(Record {
                epoch,
                lane,
                seq: self.seq,
                parent: self.parent,
                name: Cow::Borrowed(self.name),
                kind: RecordKind::Span { start_ns, end_ns },
                fields,
            });
            l.maybe_flush();
        });
    }
}
