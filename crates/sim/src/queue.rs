//! The pending-event set.
//!
//! A time-ordered priority queue with stable FIFO ordering among events
//! scheduled for the same instant, plus cancellation through tombstones.
//! Determinism of the whole simulator reduces to determinism of this
//! queue, so ordering is defined purely by `(time, sequence number)` and
//! never by heap internals.
//!
//! Scheduling, peeking and popping cost one binary-heap operation and
//! nothing more while no event is cancelled: no set is hashed or grown
//! per event. The cost sits in cancellation, which scans the pending
//! events (O(n)) to tell a pending id from one that has fired, and then
//! keeps a tombstone in an ordered set until the event reaches the top
//! of the heap.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
///
/// Ids are unique within one [`EventQueue`] for its whole lifetime; they are
/// never reused, even after the event fires or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Scheduled<E> {
    at: SimTime,
    id: EventId,
    event: E,
}

// Order: earliest time first; ties broken by insertion sequence (id).
// `BinaryHeap` is a max-heap, so the comparison is reversed.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<E> Eq for Scheduled<E> {}

/// A deterministic time-ordered event queue.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances `now`
/// to the timestamp of the popped event. Scheduling into the past is a
/// programming error and panics.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Ids in the heap whose events must be silently discarded; every
    /// heap entry not in it is pending.
    cancelled: BTreeSet<EventId>,
    next_id: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            next_id: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Scheduled { at, id, event });
        id
    }

    /// Schedule `event` after a non-negative delay `dt` from now.
    ///
    /// # Panics
    /// Panics if `dt` is negative.
    pub fn schedule_in(&mut self, dt: SimDuration, event: E) -> EventId {
        assert!(!dt.is_negative(), "cannot schedule a negative delay: {dt}");
        self.schedule_at(self.now + dt, event)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (it will now never be
    /// delivered), `false` if it had already fired or been cancelled.
    /// Costs a scan of the pending events.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.heap.iter().any(|s| s.id == id) && self.cancelled.insert(id)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_cancelled();
        self.heap.peek().map(|s| s.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.drop_cancelled();
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Discard tombstoned events from the top of the heap; nothing to do
    /// while no event is cancelled.
    fn drop_cancelled(&mut self) {
        while !self.cancelled.is_empty() {
            match self.heap.peek() {
                Some(top) if self.cancelled.remove(&top.id) => {
                    self.heap.pop();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule_in(SimDuration::from_secs(1), ());
        q.schedule_in(SimDuration::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(4), ());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }
}
