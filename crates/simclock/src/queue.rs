//! A deterministic time-ordered event queue.
//!
//! Events scheduled at the same instant pop in insertion order (FIFO), which
//! keeps multi-subsystem simulations reproducible: two blocklists polling at
//! the same 10-minute boundary always observe the world in the same order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest time (then the
        // lowest sequence number) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of `(SimTime, T)` with FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the "current" simulated
    /// instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics: it would silently reorder history.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "c");
        q.schedule(SimTime::from_secs(10), "a");
        q.schedule(SimTime::from_secs(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for label in ["first", "second", "third"] {
            q.schedule(t, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), ());
        q.pop();
        q.schedule(SimTime::from_secs(50), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (SimTime::from_secs(10), 1));
        // Re-scheduling relative to now works like a timer.
        q.schedule(q.now() + SimDuration::from_secs(5), 2);
        q.schedule(q.now() + SimDuration::from_secs(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    /// Any interleaving of `schedule` (never in the past) and `pop` pops
    /// what a stable-sorted `Vec` model pops: time first, FIFO among equal
    /// times. Offsets of 0–3 s make ties common.
    #[test]
    fn interleavings_pop_like_a_stable_sorted_model() {
        crate::prop::check(256, |g| {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, usize)> = Vec::new();
            for id in 0..g.usize_in(0..64) {
                if g.bool() {
                    let at = q.now() + SimDuration::from_secs(g.u64_in(0..4));
                    q.schedule(at, id);
                    model.push((at, id));
                } else {
                    model.sort_by_key(|&(at, _)| at);
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop(), want, "op {id}");
                }
                assert_eq!(q.len(), model.len());
            }
            model.sort_by_key(|&(at, _)| at);
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(rest, model);
        });
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_secs(9), ());
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }
}
