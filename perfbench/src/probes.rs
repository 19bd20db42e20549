//! Deque and injector probes through the public `hermes-deque` API, run
//! in the traced run after the workload's pool has stopped. One owner
//! and at most one thief: never more threads than the two cores.

use crate::common::Metrics;
use crate::stats::median;
use hermes_deque::{ClassInjector, Lane, TaskDeque, TheDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The pool's default deque capacity and front-door capacity (one
/// injector cell on a flat two-core topology).
const DEQUE_CAPACITY: usize = 8192;
const INJECTOR_CAPACITY: usize = 64 * 1024;
/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 7;
const PAIRS: u64 = 200_000;
const STEALS: u64 = 100_000;
/// The owner keeps its deque between these depths while the thief
/// steals, so steals neither starve nor overflow it.
const OWNER_LOW: usize = 64;
const OWNER_HIGH: usize = 1024;

/// The pool's default deque kind, behind the trait object the pool uses.
fn pool_deque() -> Box<dyn TaskDeque<u64>> {
    Box::new(TheDeque::with_capacity(DEQUE_CAPACITY))
}

/// Nanoseconds per owner-only push+pop pair.
fn push_pop_ns() -> f64 {
    let dq = pool_deque();
    let t0 = Instant::now();
    for i in 0..PAIRS {
        dq.push(black_box(i))
            .expect("an empty deque has room for one task");
        black_box(dq.pop());
    }
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// Nanoseconds per successful steal, one thief against one owner that
/// keeps pushing and popping its own end.
fn steal_ns() -> f64 {
    let dq = pool_deque();
    for i in 0..OWNER_HIGH as u64 {
        dq.push(i).expect("capacity exceeds the owner's high mark");
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let dq = &*dq;
        let done = &done;
        s.spawn(move || {
            let mut i = 0u64;
            while !done.load(Ordering::Relaxed) {
                if dq.len() < OWNER_HIGH {
                    for _ in 0..8 {
                        i += 1;
                        let _ = dq.push(i);
                    }
                }
                if dq.len() > OWNER_LOW {
                    black_box(dq.pop());
                }
            }
        });
        let thief = s.spawn(move || {
            let mut got = 0u64;
            let t0 = Instant::now();
            while got < STEALS {
                if dq.steal().is_success() {
                    got += 1;
                }
            }
            let ns = t0.elapsed().as_nanos() as f64 / STEALS as f64;
            done.store(true, Ordering::Relaxed);
            ns
        });
        thief.join().expect("the thief does not panic")
    })
}

/// Nanoseconds per push+pop pair on one injector cell's normal lane.
fn injector_push_pop_ns() -> f64 {
    let cell = ClassInjector::with_capacity(INJECTOR_CAPACITY);
    let t0 = Instant::now();
    for i in 0..PAIRS {
        cell.push(black_box(i), Lane::Normal)
            .expect("an empty cell has room for one task");
        black_box(cell.pop());
    }
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

pub fn run(m: &mut Metrics) {
    let batches = |f: fn() -> f64| median(&(0..BATCHES).map(|_| f()).collect::<Vec<_>>());
    m.set("deque.push_pop_ns", batches(push_pop_ns));
    m.set("deque.steal_ns", batches(steal_ns));
    m.set("deque.injector_push_pop_ns", batches(injector_push_pop_ns));
}
