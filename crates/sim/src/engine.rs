//! The simulation run loop.
//!
//! [`Simulation`] wraps an [`EventQueue`] and drives a user-supplied handler
//! until the queue drains, a time horizon is reached, or the handler stops
//! the run. The handler receives a [`Context`] through which it can read the
//! clock, schedule events, and request termination — this keeps
//! all mutation of engine state funnelled through one explicit interface.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Scheduling context handed to the event handler on every event.
pub struct Context<'a, E> {
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
    events_processed: u64,
}

impl<'a, E> Context<'a, E> {
    /// Current simulated time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedule an event at an absolute time (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule_at(at, event)
    }

    /// Schedule an event after a non-negative delay.
    pub fn schedule_in(&mut self, dt: SimDuration, event: E) {
        self.queue.schedule_in(dt, event)
    }

    /// Stop the run loop after this handler invocation returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Number of events processed so far in this run (including this one).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// Outcome of a [`Simulation::run`] family call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The handler called [`Context::stop`].
    Stopped,
}

/// A discrete-event simulation over events of type `E`.
///
/// The world state lives in the closure environment of the handler (or in a
/// struct the closure borrows), not in the engine; this keeps the engine
/// free of `dyn Any` downcasts while letting models own their state plainly.
pub struct Simulation<E> {
    queue: EventQueue<E>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Create an empty simulation with the clock at zero.
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an initial event at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule_at(at, event)
    }

    /// Schedule an initial event after a delay from the current time.
    pub fn schedule_in(&mut self, dt: SimDuration, event: E) {
        self.queue.schedule_in(dt, event)
    }

    /// Run until the queue drains or the handler stops the simulation.
    pub fn run<F>(&mut self, handler: F) -> RunOutcome
    where
        F: FnMut(&mut Context<'_, E>, E),
    {
        self.run_until(SimTime::MAX, handler)
    }

    /// Run until `horizon` (exclusive), the queue drains, or the handler
    /// stops the simulation. Events at exactly `horizon` are *not*
    /// delivered; the clock is left at the last delivered event.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Context<'_, E>, E),
    {
        let mut processed: u64 = 0;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t >= horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            let (_, event) = self.queue.pop().expect("peeked event must pop");
            processed += 1;
            let mut stop = false;
            let mut ctx = Context {
                queue: &mut self.queue,
                stop: &mut stop,
                events_processed: processed,
            };
            handler(&mut ctx, event);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn drains_and_reports() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        let mut seen = Vec::new();
        let outcome = sim.run(|ctx, Ev::Tick(n)| {
            seen.push((ctx.now(), n));
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(
            seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
    }

    #[test]
    fn handler_can_reschedule() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0;
        sim.run(|ctx, Ev::Tick(n)| {
            count += 1;
            if n < 4 {
                ctx.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
            }
        });
        assert_eq!(count, 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn horizon_excludes_boundary() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        let mut seen = 0;
        let outcome = sim.run_until(SimTime::from_secs(2), |_, _| seen += 1);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, 1);
        // The undelivered event is still pending and can run later.
        let outcome = sim.run(|_, _| seen += 1);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, 2);
    }

    #[test]
    fn stop_terminates_early() {
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut seen = 0;
        let outcome = sim.run(|ctx, Ev::Tick(n)| {
            seen += 1;
            if n == 3 {
                ctx.stop();
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(seen, 4);
        assert_eq!(sim.pending(), 6);
    }

    #[test]
    fn events_processed_counts() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::ZERO, Ev::Tick(0));
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        let mut last = 0;
        sim.run(|ctx, _| last = ctx.events_processed());
        assert_eq!(last, 2);
    }
}
