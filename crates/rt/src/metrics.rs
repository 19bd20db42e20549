//! The pool's counter plane: one cache-line-aligned counter block per
//! worker, always on, whether or not a telemetry sink is attached.
//!
//! Every counter view the pool offers is a sum over these blocks:
//! [`Pool::stats`](crate::Pool::stats),
//! [`Pool::injector_cell_pops`](crate::Pool::injector_cell_pops),
//! [`Pool::metrics`](crate::Pool::metrics), and the windowed busy share
//! that elastic scaling and admission control read
//! ([`Pool::busy_share_permille`](crate::Pool::busy_share_permille)).
//! So the controllers see the same inputs on a traced and an untraced
//! pool.
//!
//! Writer contract, per field: one writer (the owning worker), which
//! updates it with a relaxed load plus a relaxed store; every field is
//! monotone; a reader gets no consistency across fields — two fields
//! read in one snapshot may straddle an update. The one exception is
//! the shared off-pool slot: waker calls from threads outside the pool
//! bump its `future_wakes` and `future_repushes` with `fetch_add`.

use hermes_telemetry::WorkerMetricsSample;
use std::sync::atomic::{AtomicU64, Ordering};

/// Refresh period of the windowed busy share — two elastic cooldowns,
/// so consecutive scale decisions never act on the same stale sample.
const BUSY_WINDOW_NS: u64 = 4_000_000;

/// Scheduler counters of a running [`Pool`](crate::Pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Tasks pushed onto worker deques.
    pub pushes: u64,
    /// Tasks popped by their owner.
    pub pops: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts that found an empty deque (starvation).
    pub empty_steals: u64,
    /// Steal attempts that lost a race for present work to the owner or
    /// another thief (contention) — the signal the deque ablation needs
    /// to separate lock/CAS pressure from plain work shortage.
    pub lost_race_steals: u64,
    /// Tasks executed inline because a deque was full.
    pub inline_fallbacks: u64,
    /// Tasks taken from the external-submission injector.
    pub injector_pops: u64,
    /// Completed park episodes (a worker exhausted its spin budget and
    /// slept on the pool's condvar until work or termination).
    pub parks: u64,
    /// Total nanoseconds workers spent parked.
    pub parked_ns: u64,
    /// Completed elastic-sleep episodes (the pool scaled a worker out;
    /// see [`PoolBuilder::elastic`](crate::PoolBuilder::elastic)).
    /// Unlike a park, a sleep ends only on an explicit wake signal,
    /// never on a timed re-check.
    pub sleeps: u64,
    /// Total nanoseconds workers spent in elastic sleep.
    pub slept_ns: u64,
    /// Elastic wake signals that ended a sleep episode (== `sleeps`
    /// once the pool is quiescent).
    pub wakes: u64,
    /// Future-task polls executed (each is one `Future::poll` of a task
    /// spawned via [`Pool::spawn_future`](crate::Pool::spawn_future)).
    pub future_polls: u64,
    /// Future-task waker invocations, including no-op wakes of tasks
    /// that were already scheduled or complete.
    pub future_wakes: u64,
    /// Future tasks re-queued by a wake (idle → scheduled transitions;
    /// at most one per wake, at least one fewer than `future_polls`
    /// per task).
    pub future_repushes: u64,
}

impl RtStats {
    /// All unsuccessful steal attempts (empty + lost races).
    #[must_use]
    pub fn failed_steals(&self) -> u64 {
        self.empty_steals + self.lost_race_steals
    }
}

/// One worker's counters, padded to a cache line so no worker's update
/// invalidates another worker's line. Fields mirror [`RtStats`] plus
/// the live-metrics columns.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct WorkerCounters {
    pub(crate) pushes: AtomicU64,
    pub(crate) pops: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) empty_steals: AtomicU64,
    pub(crate) lost_race_steals: AtomicU64,
    pub(crate) inline_fallbacks: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) parked_ns: AtomicU64,
    pub(crate) sleeps: AtomicU64,
    pub(crate) slept_ns: AtomicU64,
    pub(crate) wakes: AtomicU64,
    pub(crate) future_polls: AtomicU64,
    pub(crate) future_wakes: AtomicU64,
    pub(crate) future_repushes: AtomicU64,
    /// Nanoseconds spent executing jobs.
    pub(crate) busy_ns: AtomicU64,
    /// Nanoseconds spent in steal sweeps (victim selection + attempts).
    pub(crate) steal_ns: AtomicU64,
    /// Jobs executed (popped, injected or stolen, and run).
    pub(crate) tasks: AtomicU64,
    /// Injector pops, indexed by cell; their sum is this worker's share
    /// of [`RtStats::injector_pops`].
    pub(crate) injector_pops: Box<[AtomicU64]>,
}

/// Add `delta` to a single-writer counter: a relaxed load plus a
/// relaxed store, no read-modify-write. Call only from the counter's
/// owning worker.
#[inline]
pub(crate) fn add(counter: &AtomicU64, delta: u64) {
    counter.store(counter.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
}

/// The windowed busy-share estimator: the epoch-ns of the last refresh,
/// the total busy-ns sampled at it, and the permille it yielded (served
/// until the window rolls).
#[derive(Debug, Default)]
struct BusyWindow {
    at_ns: AtomicU64,
    busy_ns: AtomicU64,
    permille: AtomicU64,
}

/// Every worker's counter block, plus the shared off-pool slot.
#[derive(Debug)]
pub(crate) struct Counters {
    workers: Box<[WorkerCounters]>,
    /// Future-task counts from threads outside the pool land here, with
    /// `fetch_add` since any thread may write it. Only waker calls
    /// (`future_wakes`, `future_repushes`) arrive off-pool; polls run on
    /// workers.
    off_pool: WorkerCounters,
    window: BusyWindow,
}

impl Counters {
    /// Zeroed blocks for `workers` workers over `cells` injector cells.
    pub(crate) fn new(workers: usize, cells: usize) -> Self {
        Counters {
            workers: (0..workers)
                .map(|_| WorkerCounters {
                    injector_pops: (0..cells).map(|_| AtomicU64::new(0)).collect(),
                    ..WorkerCounters::default()
                })
                .collect(),
            off_pool: WorkerCounters::default(),
            window: BusyWindow::default(),
        }
    }

    /// Worker `w`'s block (its owner's to write).
    #[inline]
    pub(crate) fn worker(&self, w: usize) -> &WorkerCounters {
        &self.workers[w]
    }

    /// Count one event on a counter any thread may reach: worker `w`'s
    /// own block when the caller is that worker, the shared off-pool
    /// slot (`fetch_add`) when `w` is `None`.
    #[inline]
    pub(crate) fn add_from(&self, w: Option<usize>, field: fn(&WorkerCounters) -> &AtomicU64) {
        match w {
            Some(w) => add(field(&self.workers[w]), 1),
            None => {
                field(&self.off_pool).fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn sum(&self, field: fn(&WorkerCounters) -> &AtomicU64) -> u64 {
        self.workers
            .iter()
            .chain(std::iter::once(&self.off_pool))
            .map(|c| field(c).load(Ordering::Relaxed))
            .sum()
    }

    /// The merged scheduler counters.
    pub(crate) fn stats(&self) -> RtStats {
        RtStats {
            pushes: self.sum(|c| &c.pushes),
            pops: self.sum(|c| &c.pops),
            steals: self.sum(|c| &c.steals),
            empty_steals: self.sum(|c| &c.empty_steals),
            lost_race_steals: self.sum(|c| &c.lost_race_steals),
            inline_fallbacks: self.sum(|c| &c.inline_fallbacks),
            injector_pops: self.cell_pops().iter().sum(),
            parks: self.sum(|c| &c.parks),
            parked_ns: self.sum(|c| &c.parked_ns),
            sleeps: self.sum(|c| &c.sleeps),
            slept_ns: self.sum(|c| &c.slept_ns),
            wakes: self.sum(|c| &c.wakes),
            future_polls: self.sum(|c| &c.future_polls),
            future_wakes: self.sum(|c| &c.future_wakes),
            future_repushes: self.sum(|c| &c.future_repushes),
        }
    }

    /// Injector pops per cell, summed over workers.
    pub(crate) fn cell_pops(&self) -> Vec<u64> {
        let cells = self.workers.first().map_or(0, |c| c.injector_pops.len());
        (0..cells)
            .map(|cell| {
                self.workers
                    .iter()
                    .map(|c| c.injector_pops[cell].load(Ordering::Relaxed))
                    .sum()
            })
            .collect()
    }

    /// Per-worker live-metrics samples. `parked_ns` covers both parks
    /// and elastic sleeps; `energy_uj` is left for the caller to fill.
    pub(crate) fn samples(&self) -> Vec<WorkerMetricsSample> {
        self.workers
            .iter()
            .map(|c| WorkerMetricsSample {
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
                steal_ns: c.steal_ns.load(Ordering::Relaxed),
                parked_ns: c.parked_ns.load(Ordering::Relaxed) + c.slept_ns.load(Ordering::Relaxed),
                tasks: c.tasks.load(Ordering::Relaxed),
                energy_uj: 0,
            })
            .collect()
    }

    /// Busy share of the pool in permille over the current window,
    /// refreshed at most once per [`BUSY_WINDOW_NS`] by whoever crosses
    /// the boundary first (everyone else reads the cached value).
    /// `now_ns` is the caller's reading of the pool clock.
    pub(crate) fn busy_share_permille(&self, now_ns: u64) -> u32 {
        let window = &self.window;
        let last = window.at_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < BUSY_WINDOW_NS
            || window
                .at_ns
                .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return window.permille.load(Ordering::Relaxed) as u32;
        }
        let total = self.sum(|c| &c.busy_ns);
        let prev = window.busy_ns.swap(total, Ordering::Relaxed);
        let wall = (now_ns - last) * self.workers.len().max(1) as u64;
        let permille = (total.saturating_sub(prev).saturating_mul(1000) / wall).min(1000);
        window.permille.store(permille, Ordering::Relaxed);
        permille as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_per_worker() {
        let c = Counters::new(3, 2);
        add(&c.worker(0).busy_ns, 100);
        add(&c.worker(0).busy_ns, 50);
        add(&c.worker(1).steal_ns, 7);
        add(&c.worker(2).parked_ns, 1_000);
        add(&c.worker(2).slept_ns, 24);
        add(&c.worker(0).tasks, 2);
        add(&c.worker(0).injector_pops[1], 3);
        add(&c.worker(2).injector_pops[1], 1);
        add(&c.worker(1).injector_pops[0], 5);
        c.add_from(Some(1), |c| &c.future_wakes);
        c.add_from(None, |c| &c.future_wakes);
        let s = c.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].busy_ns, 150);
        assert_eq!(s[0].tasks, 2);
        assert_eq!(s[1].steal_ns, 7);
        assert_eq!(s[2].parked_ns, 1_024, "parks and sleeps both count");
        assert_eq!(s[1].busy_ns, 0);
        assert_eq!(c.cell_pops(), vec![5, 4]);
        let stats = c.stats();
        assert_eq!(stats.injector_pops, 9, "the merged view sums the cells");
        assert_eq!(stats.future_wakes, 2, "off-pool wakes are counted too");
        assert_eq!(stats.parked_ns, 1_000);
        assert_eq!(stats.slept_ns, 24);
    }

    #[test]
    fn concurrent_readers_see_monotone_counters() {
        // One writer bumping its block, readers summing concurrently:
        // every observed total must be monotone non-decreasing per
        // reader (a relaxed single-writer counter never rolls back).
        let c = Arc::new(Counters::new(1, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (mut last_busy, mut last_pushes) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let busy = c.samples()[0].busy_ns;
                        let pushes = c.stats().pushes;
                        assert!(busy >= last_busy, "{busy} rolled back past {last_busy}");
                        assert!(pushes >= last_pushes, "{pushes} rolled back");
                        (last_busy, last_pushes) = (busy, pushes);
                    }
                })
            })
            .collect();
        for _ in 0..100_000 {
            add(&c.worker(0).busy_ns, 1);
            add(&c.worker(0).pushes, 1);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(c.samples()[0].busy_ns, 100_000);
        assert_eq!(c.stats().pushes, 100_000);
    }

    #[test]
    fn busy_share_is_windowed() {
        let c = Counters::new(2, 1);
        // Inside the first window nothing is computed yet.
        assert_eq!(c.busy_share_permille(1_000), 0);
        // 4 ms on 2 workers is 8 ms of worker time; 2 ms busy is 250 ‰.
        add(&c.worker(0).busy_ns, 2_000_000);
        assert_eq!(c.busy_share_permille(BUSY_WINDOW_NS), 250);
        // Cached until the window rolls, then only the new busy counts.
        add(&c.worker(1).busy_ns, 20_000_000);
        assert_eq!(c.busy_share_permille(BUSY_WINDOW_NS + 1), 250);
        assert_eq!(c.busy_share_permille(3 * BUSY_WINDOW_NS), 1000, "clamped");
        assert_eq!(c.busy_share_permille(5 * BUSY_WINDOW_NS), 0, "idle window");
    }
}
