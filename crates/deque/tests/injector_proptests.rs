//! Model-based property tests for the MPMC [`Injector`]: driven
//! single-threaded it must behave exactly like a sequential FIFO queue,
//! and driven concurrently it must consume every pushed value exactly
//! once while preserving FIFO order per producer.

use hermes_deque::{Injector, InjectorFullError};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![any::<u32>().prop_map(Op::Push), Just(Op::Pop)],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequential model check: the injector against a `VecDeque` in
    /// lockstep. Push rejects exactly when the model is at the rounded
    /// capacity, pop is strict FIFO, and `len`/`is_empty` agree after
    /// every operation.
    #[test]
    fn injector_matches_sequential_fifo_model(ops in ops(), cap in 1usize..64) {
        let q = Injector::with_capacity(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in &ops {
            match op {
                Op::Push(v) => match q.push(*v) {
                    Ok(()) => model.push_back(*v),
                    Err(InjectorFullError(back)) => {
                        prop_assert_eq!(back, *v);
                        prop_assert_eq!(model.len(), q.capacity(), "rejects only when full");
                    }
                },
                Op::Pop => prop_assert_eq!(q.pop(), model.pop_front()),
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }

    /// Interleaved concurrent check: several producers push tagged
    /// sequences while several consumers drain, with the ring small
    /// enough that both full-queue backpressure and ring reuse are
    /// exercised. Every value must be consumed exactly once, and each
    /// producer's values must appear in push order within every
    /// consumer's observation sequence (FIFO per producer: dequeue
    /// tickets are claimed monotonically per consumer). (Skipped under
    /// Miri: hundreds of thread-spawning cases take hours interpreted;
    /// Miri's concurrent coverage is the in-crate
    /// `small_concurrent_exchange_is_exact`.)
    #[test]
    #[cfg_attr(miri, ignore = "thread-heavy; Miri covers the smaller in-crate exchange test")]
    fn injector_concurrent_exactly_once_fifo_per_producer(
        per_producer in 1usize..300,
        producers in 1usize..4,
        consumers in 1usize..4,
        cap in 1usize..32,
    ) {
        exchange(per_producer, producers, consumers, cap)?;
    }
}

/// `producers` × `per_producer` tagged pushes against `consumers`
/// concurrent drainers on a `cap`-slot ring.
fn exchange(
    per_producer: usize,
    producers: usize,
    consumers: usize,
    cap: usize,
) -> Result<(), TestCaseError> {
    let q = Arc::new(Injector::with_capacity(cap));
    let producers_done = Arc::new(AtomicBool::new(false));
    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    let mut item = ((p as u64) << 32) | i as u64;
                    // Full ring = backpressure: yield and retry with the
                    // same item so per-producer order is preserved.
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
    let consumer_handles: Vec<_> = (0..consumers)
        .map(|_| {
            let q = Arc::clone(&q);
            let producers_done = Arc::clone(&producers_done);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut idle = 0u32;
                // Stop only once every producer is done: a consumer that
                // stopped on emptiness alone could leave a producer
                // blocked on a full ring with no consumer left.
                while !(producers_done.load(Ordering::SeqCst) && idle >= 400) {
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
    for h in producer_handles {
        h.join().unwrap();
    }
    producers_done.store(true, Ordering::SeqCst);
    let mut all: Vec<u64> = Vec::new();
    let mut per_consumer = Vec::new();
    for h in consumer_handles {
        let got = h.join().unwrap();
        all.extend_from_slice(&got);
        per_consumer.push(got);
    }
    // Whatever the consumers left behind after going idle.
    while let Some(v) = q.pop() {
        all.push(v);
    }

    // Exactly-once: the multiset of consumed values is the multiset of
    // pushed values.
    all.sort_unstable();
    let expect: Vec<u64> = (0..producers)
        .flat_map(|p| (0..per_producer).map(move |i| ((p as u64) << 32) | i as u64))
        .collect();
    prop_assert_eq!(all, expect);

    // FIFO per producer, as observed by each consumer.
    for got in &per_consumer {
        for p in 0..producers as u64 {
            let seqs: Vec<u64> = got
                .iter()
                .filter(|v| *v >> 32 == p)
                .map(|v| v & 0xFFFF_FFFF)
                .collect();
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "producer {} order inverted: {:?}",
                p,
                seqs
            );
        }
    }
    Ok(())
}
