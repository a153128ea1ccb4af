//! Discrete-event scheduler.
//!
//! A classic calendar queue over a binary heap: events carry a fire time and
//! a monotonically increasing sequence number, so simultaneous events fire in
//! the order they were scheduled (deterministic tie-breaking).

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An event popped from the scheduler.
#[derive(Debug, PartialEq, Eq)]
pub struct Fired<E> {
    /// When the event fired (the scheduler's clock has advanced to this).
    pub at: SimTime,
    /// The scheduled payload.
    pub payload: E,
}

/// Deterministic discrete-event scheduler with a virtual clock.
///
/// `Clone` (for `E: Clone`) snapshots the entire pending-event state; the
/// parallel study executor uses this to give each shard an independent
/// world copy whose future events replay identically.
#[derive(Clone)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// A scheduler starting at the simulation epoch.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::EPOCH,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Schedule `payload` to fire `after` the current time.
    pub fn schedule(&mut self, after: SimDuration, payload: E) {
        self.schedule_at(self.now + after, payload);
    }

    /// Schedule `payload` at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is in the past: scheduling into the past would silently
    /// reorder causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pop the next event, advancing the clock to its fire time.
    // Deliberately named like `Iterator::next`: popping advances the clock,
    // which an `Iterator` impl would hide behind `for` desugaring.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Fired<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some(Fired {
            at: entry.at,
            payload: entry.payload,
        })
    }

    /// Pop the next event only if it fires at or before `deadline`.
    /// The clock advances to the event time if one is returned, otherwise to
    /// `deadline`.
    pub fn next_until(&mut self, deadline: SimTime) -> Option<Fired<E>> {
        if self.heap.peek().is_some_and(|entry| entry.at <= deadline) {
            return self.next();
        }
        if deadline > self.now {
            self.now = deadline;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimDuration::from_millis(30), "c");
        s.schedule(SimDuration::from_millis(10), "a");
        s.schedule(SimDuration::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.next().map(|f| f.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_millis(30));
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule(SimDuration::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.next().map(|f| f.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn next_until_respects_deadline() {
        let mut s = Scheduler::new();
        s.schedule(SimDuration::from_millis(10), 1u32);
        s.schedule(SimDuration::from_millis(100), 2u32);
        let deadline = SimTime::from_millis(50);
        assert_eq!(s.next_until(deadline).map(|f| f.payload), Some(1));
        assert_eq!(s.next_until(deadline), None);
        // Clock parked at the deadline, later event still pending.
        assert_eq!(s.now(), deadline);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule(SimDuration::from_millis(10), ());
        s.next();
        s.schedule_at(SimTime::from_millis(5), ());
    }
}
