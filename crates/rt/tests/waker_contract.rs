//! Waker-contract tests for `Pool::spawn_future` (ISSUE 6 satellite):
//! the four ways a waker can be misused or raced — wake before the next
//! poll, concurrent wakes from several threads, wake after completion,
//! and dropping a task without ever polling it to completion — must
//! never lose a poll, double-poll a scheduled task, resurrect a
//! completed one, or leak the future.
//!
//! The thread-heavy property tests are skipped under Miri; the
//! `miri_` tests at the bottom are sized for the interpreter and run
//! in the deque-concurrency CI lane's Miri step.

use hermes_rt::{Pool, WakerLatch};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Increments a shared counter when the owning future is dropped.
struct DropToken(Arc<AtomicU32>);

impl Drop for DropToken {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Shared observation point for one spawned [`Probe`].
struct Scope {
    polls: Arc<AtomicU32>,
    /// Polls that returned `Pending`.
    pending: Arc<AtomicU32>,
    completions: Arc<AtomicU32>,
    drops: Arc<AtomicU32>,
    fired: Arc<AtomicBool>,
    /// The waker of the most recent pending poll.
    slot: Arc<Mutex<Option<Waker>>>,
    done: Arc<WakerLatch>,
}

/// Completes once `fired` is observed true; otherwise parks its waker
/// in `slot` (with the register/re-check pattern, so firing and waking
/// between the load and the store is never lost).
struct Probe {
    scope: ProbeShared,
    _token: DropToken,
}

#[derive(Clone)]
struct ProbeShared {
    polls: Arc<AtomicU32>,
    pending: Arc<AtomicU32>,
    completions: Arc<AtomicU32>,
    fired: Arc<AtomicBool>,
    slot: Arc<Mutex<Option<Waker>>>,
    done: Arc<WakerLatch>,
}

impl Future for Probe {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let s = &self.scope;
        s.polls.fetch_add(1, Ordering::SeqCst);
        if s.fired.load(Ordering::SeqCst) {
            s.completions.fetch_add(1, Ordering::SeqCst);
            s.done.set();
            return Poll::Ready(());
        }
        *s.slot.lock() = Some(cx.waker().clone());
        if s.fired.load(Ordering::SeqCst) {
            s.completions.fetch_add(1, Ordering::SeqCst);
            s.done.set();
            return Poll::Ready(());
        }
        s.pending.fetch_add(1, Ordering::SeqCst);
        Poll::Pending
    }
}

fn spawn_probe(pool: &Pool) -> Scope {
    let scope = Scope {
        polls: Arc::new(AtomicU32::new(0)),
        pending: Arc::new(AtomicU32::new(0)),
        completions: Arc::new(AtomicU32::new(0)),
        drops: Arc::new(AtomicU32::new(0)),
        fired: Arc::new(AtomicBool::new(false)),
        slot: Arc::new(Mutex::new(None)),
        done: Arc::new(WakerLatch::new()),
    };
    pool.spawn_future(Probe {
        scope: ProbeShared {
            polls: Arc::clone(&scope.polls),
            pending: Arc::clone(&scope.pending),
            completions: Arc::clone(&scope.completions),
            fired: Arc::clone(&scope.fired),
            slot: Arc::clone(&scope.slot),
            done: Arc::clone(&scope.done),
        },
        _token: DropToken(Arc::clone(&scope.drops)),
    });
    scope
}

/// Spin until `counter` reaches `expect` (the completion latch is set
/// *inside* the final poll, slightly before the task drops the future,
/// so drop-count asserts need a grace window).
fn wait_for_count(counter: &AtomicU32, expect: u32, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter.load(Ordering::SeqCst) != expect {
        assert!(Instant::now() < deadline, "{what} never reached {expect}");
        std::thread::yield_now();
    }
}

/// Spin until the probe's first poll returned `Pending`, then take the
/// waker it parked. Waiting for the waker alone is not enough: firing
/// between the park and the poll's re-check lets that first poll
/// complete, and the round would test no wake at all.
fn wait_for_waker(scope: &Scope) -> Waker {
    wait_for_count(&scope.pending, 1, "pending polls");
    scope
        .slot
        .lock()
        .take()
        .expect("a pending poll parks its waker first")
}

/// Wake before the re-poll has happened: a second wake finding the task
/// still SCHEDULED must coalesce (no double poll), and the owed poll
/// must still happen.
fn wake_before_poll_round(pool: &Pool) {
    let scope = spawn_probe(pool);
    let waker = wait_for_waker(&scope);
    scope.fired.store(true, Ordering::SeqCst);
    // First wake schedules the task; the immediate second wake races
    // the worker's poll and must be a no-op whether it finds the task
    // scheduled, running, or complete.
    waker.wake_by_ref();
    waker.wake();
    scope.done.wait();
    assert_eq!(scope.completions.load(Ordering::SeqCst), 1);
    let polls = scope.polls.load(Ordering::SeqCst);
    // Poll 1 parked; the coalesced wakes buy at most one more poll,
    // plus at most one for a wake that lands mid-poll (NOTIFIED).
    assert!((2..=3).contains(&polls), "polls = {polls}");
}

/// `threads` concurrent wakers on one pending task: the task completes
/// exactly once, and the wakes coalesce into at most `threads` extra
/// polls.
fn concurrent_wake_round(pool: &Pool, threads: usize) {
    let scope = spawn_probe(pool);
    let waker = wait_for_waker(&scope);
    scope.fired.store(true, Ordering::SeqCst);
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let waker = waker.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                waker.wake();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    scope.done.wait();
    assert_eq!(scope.completions.load(Ordering::SeqCst), 1);
    let polls = scope.polls.load(Ordering::SeqCst) as usize;
    assert!(polls >= 2, "the wakes must buy a re-poll");
    assert!(
        polls <= 1 + threads,
        "polls = {polls} with {threads} wakers"
    );
}

/// Wakes delivered after the future completed are no-ops: no poll, no
/// resurrection, no crash.
fn wake_after_completion_round(pool: &Pool) {
    let scope = spawn_probe(pool);
    let waker = wait_for_waker(&scope);
    let stale = waker.clone();
    scope.fired.store(true, Ordering::SeqCst);
    waker.wake();
    scope.done.wait();
    let polls_at_completion = scope.polls.load(Ordering::SeqCst);
    wait_for_count(&scope.drops, 1, "future drop at completion");
    stale.wake_by_ref();
    stale.wake();
    std::thread::yield_now();
    assert_eq!(scope.polls.load(Ordering::SeqCst), polls_at_completion);
    assert_eq!(scope.completions.load(Ordering::SeqCst), 1);
}

#[test]
fn wake_before_poll_is_coalesced() {
    let pool = Pool::new(2);
    for _ in 0..50 {
        wake_before_poll_round(&pool);
    }
}

#[test]
fn wake_after_completion_is_noop() {
    let pool = Pool::new(2);
    for _ in 0..50 {
        wake_after_completion_round(&pool);
    }
}

#[test]
fn dropping_the_pool_frees_unfinished_tasks() {
    // Tasks parked IDLE when their pool dies are freed once the last
    // waker goes: nothing leaks, nothing is polled again.
    let pool = Pool::new(2);
    let scopes: Vec<Scope> = (0..16).map(|_| spawn_probe(&pool)).collect();
    let wakers: Vec<Waker> = scopes.iter().map(wait_for_waker).collect();
    drop(pool);
    for scope in &scopes {
        assert_eq!(scope.completions.load(Ordering::SeqCst), 0);
    }
    // Waking against the dead pool retires the tasks in place...
    for w in &wakers {
        w.wake_by_ref();
    }
    for scope in &scopes {
        assert_eq!(
            scope.drops.load(Ordering::SeqCst),
            1,
            "dead-pool wake must drop the future"
        );
        assert_eq!(scope.completions.load(Ordering::SeqCst), 0);
    }
    // ...and the remaining waker clones are inert.
    drop(wakers);
}

#[test]
fn stopped_pool_releases_tasks_submitted_afterwards() {
    let mut pool = Pool::new(1);
    pool.stop();
    let scope = spawn_probe(&pool);
    assert_eq!(
        scope.drops.load(Ordering::SeqCst),
        1,
        "released, not queued"
    );
    assert_eq!(scope.polls.load(Ordering::SeqCst), 0, "never polled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent wakes from 2..=4 threads against pools of 1..=4
    /// workers: exactly one completion, bounded polls.
    #[test]
    #[cfg_attr(miri, ignore = "thread-heavy; miri_concurrent_wake_smoke covers this")]
    fn concurrent_wakes_complete_exactly_once(
        workers in 1usize..4,
        threads in 2usize..5,
        rounds in 1usize..4,
    ) {
        let pool = Pool::new(workers);
        for _ in 0..rounds {
            concurrent_wake_round(&pool, threads);
        }
    }

    /// Interleaving wake-before-poll rounds with plain completions on a
    /// single worker keeps the 1-worker pool live (no lost wakeups even
    /// when every poll competes with the waker for the only worker).
    #[test]
    #[cfg_attr(miri, ignore = "thread-heavy; miri_wake_smoke covers this")]
    fn single_worker_pool_never_loses_wakeups(rounds in 1usize..8) {
        let pool = Pool::new(1);
        for _ in 0..rounds {
            wake_before_poll_round(&pool);
        }
    }
}

// ---------------------------------------------------------------------
// Miri-sized variants: one round each, small pools, no proptest driver.
// The deque-concurrency CI lane runs these under Miri.

#[test]
fn miri_wake_smoke() {
    let pool = Pool::new(1);
    wake_before_poll_round(&pool);
    wake_after_completion_round(&pool);
}

#[test]
fn miri_concurrent_wake_smoke() {
    let pool = Pool::new(1);
    concurrent_wake_round(&pool, 2);
}

// ---------------------------------------------------------------------
// Full-length stress: #[ignore]d so local `cargo test -q` stays fast;
// the deque-concurrency CI lane runs it in release via `-- --ignored`.

#[test]
#[ignore = "long-running wake storm; the concurrency CI lane runs it"]
fn stress_wake_storm() {
    for workers in [1, 2, 4] {
        let pool = Pool::new(workers);
        for round in 0..400 {
            match round % 3 {
                0 => wake_before_poll_round(&pool),
                1 => concurrent_wake_round(&pool, 4),
                _ => wake_after_completion_round(&pool),
            }
        }
    }
}
