//! A lock-free bounded MPMC injector queue for external task submission.
//!
//! Work-stealing deques are owner-push/owner-pop structures: nothing in
//! their contract lets a thread *outside* the pool hand work in. The
//! [`Injector`] is that front door — the queue a serving layer pushes
//! requests into from arbitrary producer threads, and every worker polls
//! between its local pop and its steal sweep.
//!
//! The implementation is Dmitry Vyukov's bounded MPMC queue: a
//! power-of-two ring of slots, each carrying a *sequence tag* that
//! arbitrates which round of the ring the slot belongs to. Producers
//! claim a ticket by CASing `enqueue_pos`, consumers by CASing
//! `dequeue_pos`; the per-slot tag is what makes the payload accesses
//! data-race-free (a claimed ticket owns its slot exclusively until the
//! tag is republished). Both paths are lock-free: a stalled producer or
//! consumer can delay only the slot it claimed, never the whole queue.
//!
//! Ordering guarantees:
//!
//! * **Exactly-once consumption** — each pushed value is returned by
//!   exactly one successful [`pop`](Injector::pop).
//! * **FIFO per producer** — two pushes by the same thread are dequeued
//!   in push order (tickets are claimed in program order and the ring is
//!   drained in ticket order). Cross-producer order is the linearization
//!   order of the ticket CASes.
//! * **Non-blocking failure** — a slot whose current party (a mid-push
//!   producer, a mid-pop consumer) is stalled makes the queue report
//!   `Empty`/full immediately rather than waiting the party out, so a
//!   preempted thread can never trap its peers in a spin.
//!
//! This module is one of the two `unsafe` islands in the crate (the
//! other is `lock_free`): the payload lives in `UnsafeCell<MaybeUninit>`
//! slots. Every access is justified inline; the `deque-concurrency` CI
//! lane interprets this file's tests under Miri's weak-memory data-race
//! detector.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One ring slot: the sequence tag plus the payload cell.
///
/// The tag protocol (all indices are absolute tickets, not ring
/// offsets): `seq == ticket` means "free for the push holding
/// `ticket`"; `seq == ticket + 1` means "filled, ready for the pop
/// holding `ticket`"; the pop republishes `seq = ticket + capacity`,
/// handing the slot to the next ring round's push.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Error returned when pushing into a full injector; carries the task
/// back so the producer can apply backpressure (retry, shed, or run
/// inline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectorFullError<T>(pub T);

impl<T> std::fmt::Display for InjectorFullError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injector is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for InjectorFullError<T> {}

/// A lock-free bounded multi-producer multi-consumer queue (Vyukov's
/// bounded MPMC) for injecting external tasks into a work-stealing pool.
///
/// ```
/// use hermes_deque::Injector;
/// let q = Injector::with_capacity(4);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert_eq!(q.pop(), Some(1)); // FIFO
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
pub struct Injector<T> {
    buffer: Box<[Slot<T>]>,
    /// `capacity - 1`; the capacity is rounded up to a power of two so
    /// ring offsets are a mask, not a modulo.
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: the queue transfers `T` values between threads by value; the
// slot protocol (documented on `Slot`) gives each ticket holder
// exclusive access to its payload cell, so `T: Send` is the only
// requirement.
unsafe impl<T: Send> Send for Injector<T> {}
// SAFETY: same argument — shared access is mediated entirely by the
// atomic ticket counters and per-slot tags.
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Injector<T> {
    /// An injector holding at most `capacity` tasks (rounded up to the
    /// next power of two, minimum 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "injector capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        Injector {
            buffer: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Maximum number of tasks the injector can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Push a task at the back (any thread).
    ///
    /// # Errors
    ///
    /// Returns [`InjectorFullError`] with the task when the ring is
    /// full — the queue never blocks and never reallocates.
    pub fn push(&self, task: T) -> Result<(), InjectorFullError<T>> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[pos & self.mask];
            // Acquire pairs with the consumer's Release tag store: once
            // we see `seq == pos`, the previous round's payload read is
            // ordered before our overwrite.
            let seq = slot.seq.load(Ordering::Acquire);
            match seq.wrapping_sub(pos) as isize {
                0 => {
                    // Slot free for this ticket: claim it.
                    match self.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the successful CAS made `pos` our
                            // ticket; no other producer can claim it and
                            // no consumer touches the cell until the tag
                            // below publishes `pos + 1`. We hold the
                            // only reference to the cell.
                            unsafe { (*slot.value.get()).write(task) };
                            // Release publishes the payload to the
                            // consumer's Acquire tag load.
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => pos = current,
                    }
                }
                d if d < 0 => {
                    // The slot has not been handed back to this ring
                    // round: either it still holds a value from one
                    // round ago (the queue is full) or a consumer
                    // claimed it and has not yet republished the tag
                    // (mid-pop). Report "full" immediately in both
                    // cases — waiting out a stalled consumer here would
                    // make push blocking, not lock-free; callers own
                    // the backpressure policy and may simply retry.
                    return Err(InjectorFullError(task));
                }
                _ => {
                    // Another producer claimed this ticket first; chase
                    // the head.
                    pos = self.enqueue_pos.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// Pop the oldest task (any thread). Returns `None` when the queue
    /// is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[pos & self.mask];
            // Acquire pairs with the producer's Release tag store,
            // publishing the payload write.
            let seq = slot.seq.load(Ordering::Acquire);
            match seq.wrapping_sub(pos.wrapping_add(1)) as isize {
                0 => {
                    // Slot filled for this ticket: claim it.
                    match self.dequeue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the successful CAS made `pos` our
                            // ticket; the producer's Release/our Acquire
                            // ordered its write before this read, and no
                            // other party touches the cell until the tag
                            // below republishes it for the next round.
                            let task = unsafe { (*slot.value.get()).assume_init_read() };
                            // Release orders our payload read before the
                            // next round's overwrite.
                            slot.seq
                                .store(pos.wrapping_add(self.capacity()), Ordering::Release);
                            return Some(task);
                        }
                        Err(current) => pos = current,
                    }
                }
                d if d < 0 => {
                    // The slot is still free for the *push* of this
                    // ticket: either nothing has been enqueued here yet
                    // (empty) or a producer claimed the ticket and has
                    // not yet published the payload (mid-push). Report
                    // "empty" immediately in both cases — consumers
                    // drain in strict ticket order, so there is nothing
                    // earlier to take, and spinning until a stalled
                    // producer resumes would trap every polling worker
                    // behind one preempted submitter.
                    return None;
                }
                _ => {
                    // Another consumer claimed this ticket first.
                    pos = self.dequeue_pos.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of tasks currently queued. Racy by nature under
    /// concurrency; exact when no producer or consumer is mid-flight.
    #[must_use]
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Relaxed);
        let head = self.dequeue_pos.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// Whether the queue appears empty (same caveat as
    /// [`len`](Self::len)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Drain whatever is still queued so payloads are dropped. `&mut
        // self` means no concurrent access; plain pops are fine.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = Injector::with_capacity(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.push(99), Err(InjectorFullError(99)));
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Injector::<u8>::with_capacity(1).capacity(), 2);
        assert_eq!(Injector::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(Injector::<u8>::with_capacity(8).capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Injector::<u8>::with_capacity(0);
    }

    #[test]
    fn ring_reuse_across_many_rounds() {
        // Tickets wrap the ring repeatedly; every round must hand slots
        // back cleanly.
        let q = Injector::with_capacity(4);
        for round in 0u64..100 {
            for i in 0..4 {
                q.push(round * 10 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        let v = Arc::new(());
        {
            let q = Injector::with_capacity(4);
            q.push(Arc::clone(&v)).unwrap();
            q.push(Arc::clone(&v)).unwrap();
        }
        assert_eq!(Arc::strong_count(&v), 1, "drop drained the ring");
    }

    /// Small cross-thread exchange that stays tractable under Miri: two
    /// producers, two consumers, exactly-once delivery and per-producer
    /// FIFO. (The big interleaved proptests live in
    /// `tests/injector_proptests.rs` and are `#[cfg_attr(miri,
    /// ignore)]`d; this is Miri's concurrent coverage of the slot
    /// protocol.)
    #[test]
    fn small_concurrent_exchange_is_exact() {
        const PER_PRODUCER: u64 = if cfg!(miri) { 40 } else { 2_000 };
        const PRODUCERS: u64 = 2;
        let q = Arc::new(Injector::with_capacity(8));
        let producers_done = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut item = (p << 32) | i;
                        loop {
                            match q.push(item) {
                                Ok(()) => break,
                                Err(InjectorFullError(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let producers_done = Arc::clone(&producers_done);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut idle = 0u32;
                    // Drain until both producers are done and the ring
                    // reads empty repeatedly. Stopping on emptiness alone
                    // could leave a producer blocked on a full ring with
                    // no consumer left.
                    while !(producers_done.load(Ordering::SeqCst) && idle >= 200) {
                        match q.pop() {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        producers_done.store(true, Ordering::SeqCst);
        let mut all: Vec<u64> = Vec::new();
        let mut per_consumer: Vec<Vec<u64>> = Vec::new();
        for h in consumers {
            let got = h.join().unwrap();
            all.extend_from_slice(&got);
            per_consumer.push(got);
        }
        // Tail drain in case both consumers went idle early.
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p << 32) | i))
            .collect();
        assert_eq!(all, expect, "exactly-once, no loss, no duplication");
        // FIFO per producer within each consumer's observation order.
        for got in &per_consumer {
            for p in 0..PRODUCERS {
                let seqs: Vec<u64> = got
                    .iter()
                    .filter(|v| *v >> 32 == p)
                    .map(|v| v & 0xFFFF_FFFF)
                    .collect();
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "producer {p} order inverted: {seqs:?}"
                );
            }
        }
    }
}
