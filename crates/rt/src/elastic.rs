//! Elastic worker-count scaling (`hermes-elastic`).
//!
//! The tempo controller scales *frequency*; this module scales the
//! *worker count*. Each worker moves through an explicit lifecycle —
//! [`WorkerState::Busy`] (executing a task), [`WorkerState::Stealing`]
//! (sweeping for work), [`WorkerState::Sleeping`] (taken out of the
//! pool) — and a [`ScaleController`] consumes the pool's existing load
//! signals (merged injector-cell depth, the failed-steal rate, and the
//! windowed busy-share the serving layer already computes for
//! admission) to decide wake-one / sleep-one transitions.
//!
//! Two invariants, both enforced here rather than trusted to callers:
//!
//! * **Sentinel** — at least [`ElasticConfig::min_awake`] workers
//!   (≥ 1) are awake at all times. [`ElasticState::try_begin_sleep`]
//!   refuses the transition that would violate it, so there is always
//!   a worker spinning/stealing to pick up arriving work immediately.
//! * **Hysteresis** — the wake thresholds sit strictly above the sleep
//!   thresholds and every committed transition starts a cooldown
//!   ([`ElasticConfig::cooldown_ns`]), so a load level near either
//!   threshold cannot thrash the pool through sleep/wake cycles.
//!
//! Unlike a *parked* worker (PR 5), which re-checks for work every
//! millisecond, a *sleeping* worker waits indefinitely on its own
//! per-worker channel and is woken only by an explicit signal: a load
//! decision ([`WakeReason::Signal`]), a sentinel rotation
//! ([`WakeReason::SentinelRotation`]), or pool shutdown
//! ([`WakeReason::Shutdown`]). Its deque stays stealable and the
//! injector cells stay drainable by everyone still awake — sleeping
//! removes a *thief and a pair of hands*, never work.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use hermes_telemetry::WakeReason;
use parking_lot::{Condvar, Mutex};

/// Lifecycle of a worker under the elastic policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Executing a task.
    Busy,
    /// Awake but out of local work: polling the injector and sweeping
    /// victims (this is also the sentinel's resting state).
    Stealing,
    /// Taken out of the pool: waiting indefinitely for a wake signal.
    Sleeping,
}

const STATE_BUSY: u8 = 0;
const STATE_STEALING: u8 = 1;
const STATE_SLEEPING: u8 = 2;

impl WorkerState {
    fn code(self) -> u8 {
        match self {
            WorkerState::Busy => STATE_BUSY,
            WorkerState::Stealing => STATE_STEALING,
            WorkerState::Sleeping => STATE_SLEEPING,
        }
    }

    fn from_code(code: u8) -> WorkerState {
        match code {
            STATE_BUSY => WorkerState::Busy,
            STATE_SLEEPING => WorkerState::Sleeping,
            _ => WorkerState::Stealing,
        }
    }
}

/// Tuning knobs of the elastic policy. [`Default`] gives the constants
/// documented in DESIGN.md §Elastic; every threshold pair must keep the
/// wake side strictly above the sleep side (checked at pool build).
#[derive(Debug, Clone, Copy)]
pub struct ElasticConfig {
    /// Sentinel floor: how many workers must stay awake (clamped ≥ 1).
    pub min_awake: usize,
    /// Wake a sleeper when the merged injector depth exceeds this many
    /// queued tasks *per awake worker* (backlog the awake set cannot
    /// absorb).
    pub wake_depth_per_worker: usize,
    /// Allow sleeping only when the merged injector depth is at or
    /// below this absolute count. Must sit below
    /// `wake_depth_per_worker × 1` for hysteresis.
    pub sleep_depth: usize,
    /// Wake a sleeper when the windowed busy-share reaches this
    /// many permille.
    pub wake_busy_permille: u32,
    /// Allow sleeping only when the windowed busy-share is at or below
    /// this many permille. Must sit below `wake_busy_permille`.
    pub sleep_busy_permille: u32,
    /// Minimum nanoseconds between committed scale transitions (shared
    /// by wakes and sleeps, so the pool cannot ping-pong).
    pub cooldown_ns: u64,
    /// Sentinel fairness: at most every this many nanoseconds, the
    /// sentinel may wake a sleeper ([`WakeReason::SentinelRotation`])
    /// and retire itself at the next opportunity, so one worker does
    /// not spin forever while its peers sleep. `0` disables rotation
    /// (the default: deterministic benches keep a fixed sentinel).
    pub rotation_period_ns: u64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            min_awake: 1,
            wake_depth_per_worker: 4,
            sleep_depth: 1,
            wake_busy_permille: 900,
            sleep_busy_permille: 400,
            cooldown_ns: 2_000_000,
            rotation_period_ns: 0,
        }
    }
}

impl ElasticConfig {
    /// Panic unless the wake thresholds sit strictly above the sleep
    /// thresholds (the hysteresis band exists) and the sentinel floor
    /// is at least one.
    fn validate(self) -> Self {
        assert!(self.min_awake >= 1, "elastic min_awake must be >= 1");
        assert!(
            self.wake_depth_per_worker > self.sleep_depth,
            "elastic hysteresis: wake depth {} must exceed sleep depth {}",
            self.wake_depth_per_worker,
            self.sleep_depth
        );
        assert!(
            self.wake_busy_permille > self.sleep_busy_permille,
            "elastic hysteresis: wake busy-share {} must exceed sleep busy-share {}",
            self.wake_busy_permille,
            self.sleep_busy_permille
        );
        self
    }
}

/// One observation of the pool's load, fed to [`ScaleController::decide`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSignal {
    /// Merged depth of the injector cells (tasks admitted but not yet
    /// picked up).
    pub queue_depth: usize,
    /// Windowed busy share of the pool's workers, in permille (see
    /// [`Pool::busy_share_permille`](crate::Pool::busy_share_permille)).
    pub busy_permille: u32,
    /// Failed steal sweeps observed since the last consultation — the
    /// caller's evidence that awake workers are idling. A sleep is only
    /// ever proposed on this evidence, so a saturated pool (whose
    /// sweeps succeed) never sheds workers on a depth blip.
    pub failed_sweeps: u64,
}

/// What the pool should do with the worker count right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Wake one sleeping worker.
    WakeOne,
    /// Put one awake worker to sleep.
    SleepOne,
    /// Leave the pool as it is.
    Hold,
}

/// The decision core: pure threshold logic over a [`LoadSignal`] plus
/// the shared scale cooldown. Separate from [`ElasticState`] so the
/// hysteresis behaviour is unit-testable without threads.
#[derive(Debug)]
pub struct ScaleController {
    cfg: ElasticConfig,
    /// Nanosecond timestamp (pool epoch) of the last committed scale
    /// transition; 0 before the first.
    last_scale_ns: AtomicU64,
}

impl ScaleController {
    /// A controller over `cfg` (validated).
    #[must_use]
    pub fn new(cfg: ElasticConfig) -> Self {
        ScaleController {
            cfg: cfg.validate(),
            last_scale_ns: AtomicU64::new(0),
        }
    }

    /// Threshold logic: wake when the backlog per awake worker or the
    /// busy-share crosses the wake line; sleep when depth *and*
    /// busy-share sit under the sleep lines and the caller brings
    /// failed-sweep evidence; hold in the hysteresis band between.
    /// Wake outranks sleep, and neither fires outside
    /// `min_awake..=total`. Pure — cooldown is [`Self::try_commit`]'s
    /// business, so tests can probe the bands directly.
    #[must_use]
    pub fn decide(&self, sig: LoadSignal, awake: usize, total: usize) -> ScaleDecision {
        if awake < total
            && (sig.queue_depth > self.cfg.wake_depth_per_worker * awake.max(1)
                || sig.busy_permille >= self.cfg.wake_busy_permille)
        {
            return ScaleDecision::WakeOne;
        }
        if awake > self.cfg.min_awake
            && sig.failed_sweeps > 0
            && sig.queue_depth <= self.cfg.sleep_depth
            && sig.busy_permille <= self.cfg.sleep_busy_permille
        {
            return ScaleDecision::SleepOne;
        }
        ScaleDecision::Hold
    }

    /// Claim the shared cooldown for a transition at `now_ns`. Returns
    /// `false` (decision dropped) while a previous transition's
    /// cooldown is still running or another thread claims this instant
    /// first.
    pub fn try_commit(&self, now_ns: u64) -> bool {
        let last = self.last_scale_ns.load(Ordering::Relaxed);
        now_ns.saturating_sub(last) >= self.cfg.cooldown_ns
            && self
                .last_scale_ns
                .compare_exchange(last, now_ns, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
    }
}

/// Outcome of an idle worker consulting the policy before blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepVerdict {
    /// The sleep slot is reserved (awake count already decremented):
    /// the worker must proceed into its sleep bracket.
    Sleep,
    /// The worker is (one of) the sentinel(s): it must never take the
    /// indefinite sleep. It keeps spinning/stealing, or falls back to
    /// the shallow 1 ms-recheck park where producer notifies still
    /// reach it.
    Sentinel,
    /// No transition right now (cooldown, load in the hysteresis band,
    /// or a racing worker took the slot): fall back to ordinary
    /// parking.
    Hold,
}

/// Per-worker wake channel. A sleeping worker waits here indefinitely;
/// a wake stores its reason and notifies. Keeping the channel separate
/// from the pool's park condvar means producer notifies never land on
/// (and are never swallowed by) sleepers.
#[derive(Debug, Default)]
struct WakeCell {
    pending: Mutex<Option<WakeReason>>,
    cond: Condvar,
}

/// Shared elastic state of one pool: the per-worker lifecycle flags,
/// the awake count (sentinel accounting), the wake channels, and the
/// embedded [`ScaleController`].
#[derive(Debug)]
pub struct ElasticState {
    cfg: ElasticConfig,
    controller: ScaleController,
    /// Workers not currently sleeping. Decremented (under the sentinel
    /// floor check) *before* a worker starts its sleep bracket,
    /// incremented after it ends, so the invariant holds through the
    /// transition itself.
    awake: AtomicUsize,
    /// Per-worker lifecycle, for observability (racy reads by design).
    states: Vec<AtomicU8>,
    /// `sleeping[w]` is set for the whole sleep bracket of worker `w`;
    /// wake targeting scans it.
    sleeping: Vec<AtomicBool>,
    cells: Vec<WakeCell>,
    /// Timestamp of the last sentinel rotation (cooldown separate from
    /// the scale cooldown: rotation is fairness, not scaling).
    rotation_last_ns: AtomicU64,
}

impl ElasticState {
    /// Elastic state for a pool of `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the hysteresis invariants (wake
    /// thresholds must sit strictly above sleep thresholds) or
    /// `min_awake` is zero.
    #[must_use]
    pub fn new(cfg: ElasticConfig, workers: usize) -> Self {
        let cfg = cfg.validate();
        ElasticState {
            cfg,
            controller: ScaleController::new(cfg),
            awake: AtomicUsize::new(workers),
            states: (0..workers)
                .map(|_| AtomicU8::new(STATE_STEALING))
                .collect(),
            sleeping: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            cells: (0..workers).map(|_| WakeCell::default()).collect(),
            rotation_last_ns: AtomicU64::new(0),
        }
    }

    /// The configuration this state was built with.
    #[must_use]
    pub fn config(&self) -> ElasticConfig {
        self.cfg
    }

    /// Total workers (sleeping or not).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Workers currently awake (not inside a sleep bracket).
    #[must_use]
    pub fn awake_workers(&self) -> usize {
        self.awake.load(Ordering::SeqCst)
    }

    /// Whether worker `w` is inside a sleep bracket right now.
    #[must_use]
    pub fn is_sleeping(&self, w: usize) -> bool {
        self.sleeping[w].load(Ordering::SeqCst)
    }

    /// Worker `w`'s current lifecycle state (racy by nature).
    #[must_use]
    pub fn worker_state(&self, w: usize) -> WorkerState {
        WorkerState::from_code(self.states[w].load(Ordering::Relaxed))
    }

    /// Publish worker `w`'s lifecycle transition (one relaxed store).
    pub fn set_state(&self, w: usize, state: WorkerState) {
        self.states[w].store(state.code(), Ordering::Relaxed);
    }

    /// Idle worker `w` (fresh off `failed_sweeps` empty sweeps) asks
    /// what to do before blocking. On [`SleepVerdict::Sleep`] the slot
    /// is already reserved — the caller must run its sleep bracket and
    /// end it with [`Self::finish_sleep`].
    #[must_use]
    pub fn consult(&self, w: usize, sig: LoadSignal, now_ns: u64) -> SleepVerdict {
        let awake = self.awake.load(Ordering::SeqCst);
        if let ScaleDecision::SleepOne = self.controller.decide(sig, awake, self.workers()) {
            if self.controller.try_commit(now_ns) && self.try_begin_sleep(w) {
                return SleepVerdict::Sleep;
            }
            return SleepVerdict::Hold;
        }
        if awake <= self.cfg.min_awake {
            return SleepVerdict::Sentinel;
        }
        SleepVerdict::Hold
    }

    /// Reserve a sleep slot for worker `w`: decrement the awake count
    /// unless that would break the sentinel floor. On success the
    /// worker is marked sleeping and **must** eventually call
    /// [`Self::finish_sleep`].
    pub fn try_begin_sleep(&self, w: usize) -> bool {
        let floor = self.cfg.min_awake;
        let reserved = self
            .awake
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n > floor).then(|| n - 1)
            })
            .is_ok();
        if reserved {
            self.sleeping[w].store(true, Ordering::SeqCst);
            self.set_state(w, WorkerState::Sleeping);
        }
        reserved
    }

    /// Block worker `w` until a wake signal arrives; returns the
    /// reason. No timed re-check: this wait is indefinite by design
    /// (the whole point of sleeping over parking). A wake requested
    /// *before* this call (the scale-down race window) is consumed
    /// immediately — the pending slot under the cell mutex is what
    /// makes the handshake lose no wakeups. `terminate` is re-checked
    /// after every wakeup so a shutdown that raced the transition is
    /// never slept through.
    pub fn sleep_wait(&self, w: usize, terminate: &AtomicBool) -> WakeReason {
        let cell = &self.cells[w];
        let mut pending = cell.pending.lock();
        loop {
            if let Some(reason) = pending.take() {
                return reason;
            }
            if terminate.load(Ordering::SeqCst) {
                return WakeReason::Shutdown;
            }
            cell.cond.wait(&mut pending);
        }
    }

    /// End worker `w`'s sleep bracket: back awake, stale pending wake
    /// (if any) dropped, lifecycle back to stealing.
    pub fn finish_sleep(&self, w: usize) {
        self.sleeping[w].store(false, Ordering::SeqCst);
        *self.cells[w].pending.lock() = None;
        self.awake.fetch_add(1, Ordering::SeqCst);
        self.set_state(w, WorkerState::Stealing);
    }

    /// Deliver a wake to worker `w`'s channel. Safe to call whether or
    /// not `w` is actually sleeping: a stale pending wake is cleared by
    /// the next [`Self::finish_sleep`] and at worst causes one
    /// spurious (instantly re-evaluated) wakeup.
    fn request_wake(&self, w: usize, reason: WakeReason) {
        let mut pending = self.cells[w].pending.lock();
        if pending.is_none() {
            *pending = Some(reason);
        }
        self.cells[w].cond.notify_one();
    }

    /// Wake one sleeping worker (lowest index first) with `reason`.
    /// Returns the woken worker, or `None` when nobody sleeps.
    pub fn wake_one(&self, reason: WakeReason) -> Option<usize> {
        let w = (0..self.workers()).find(|&w| self.sleeping[w].load(Ordering::SeqCst))?;
        self.request_wake(w, reason);
        Some(w)
    }

    /// Producer-side scale-up check: if the signal crosses the wake
    /// thresholds and the cooldown allows it, wake one sleeper with
    /// [`WakeReason::Signal`]. Cheap when fully awake (one atomic
    /// load).
    pub fn try_wake_for_load(&self, sig: LoadSignal, now_ns: u64) -> Option<usize> {
        let awake = self.awake.load(Ordering::SeqCst);
        if awake >= self.workers() {
            return None;
        }
        if !matches!(
            self.controller.decide(sig, awake, self.workers()),
            ScaleDecision::WakeOne
        ) {
            return None;
        }
        if !self.controller.try_commit(now_ns) {
            return None;
        }
        self.wake_one(WakeReason::Signal)
    }

    /// Sentinel fairness: at most once per
    /// [`ElasticConfig::rotation_period_ns`], wake a sleeper with
    /// [`WakeReason::SentinelRotation`] so the caller (the sentinel)
    /// can retire at its next consultation. Returns the woken worker.
    pub fn try_rotate(&self, now_ns: u64) -> Option<usize> {
        if self.cfg.rotation_period_ns == 0 {
            return None;
        }
        let last = self.rotation_last_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.cfg.rotation_period_ns {
            return None;
        }
        if self
            .rotation_last_ns
            .compare_exchange(last, now_ns, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        self.wake_one(WakeReason::SentinelRotation)
    }

    /// Shutdown path: deliver [`WakeReason::Shutdown`] to every
    /// worker's channel (sleeping or about to sleep), so indefinite
    /// waits end. The caller must have stored `terminate` first — the
    /// channel covers workers already waiting, the terminate re-check
    /// in [`Self::sleep_wait`] covers those still transitioning.
    pub fn wake_all_for_shutdown(&self) {
        for w in 0..self.workers() {
            self.request_wake(w, WakeReason::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg() -> ElasticConfig {
        ElasticConfig {
            min_awake: 1,
            wake_depth_per_worker: 4,
            sleep_depth: 1,
            wake_busy_permille: 900,
            sleep_busy_permille: 400,
            cooldown_ns: 1_000,
            rotation_period_ns: 0,
        }
    }

    #[test]
    fn decide_covers_the_three_bands() {
        let ctl = ScaleController::new(cfg());
        let idle = LoadSignal {
            queue_depth: 0,
            busy_permille: 0,
            failed_sweeps: 3,
        };
        let mid = LoadSignal {
            queue_depth: 3,
            busy_permille: 600,
            failed_sweeps: 1,
        };
        let hot = LoadSignal {
            queue_depth: 40,
            busy_permille: 950,
            failed_sweeps: 0,
        };
        assert_eq!(ctl.decide(idle, 4, 4), ScaleDecision::SleepOne);
        // The hysteresis band: neither threshold crossed.
        assert_eq!(ctl.decide(mid, 4, 4), ScaleDecision::Hold);
        // Backlog or busy-share over the wake line wakes — but only if
        // someone is actually asleep.
        assert_eq!(ctl.decide(hot, 2, 4), ScaleDecision::WakeOne);
        assert_eq!(ctl.decide(hot, 4, 4), ScaleDecision::Hold);
        // The sentinel floor blocks the last sleep.
        assert_eq!(ctl.decide(idle, 1, 4), ScaleDecision::Hold);
        // No failed-sweep evidence, no sleep: a quiet depth reading
        // alone must not shed a worker.
        let quiet_no_evidence = LoadSignal {
            failed_sweeps: 0,
            ..idle
        };
        assert_eq!(ctl.decide(quiet_no_evidence, 4, 4), ScaleDecision::Hold);
        // Wake outranks sleep evidence: depth past the wake line with
        // failed sweeps still wakes.
        let deep = LoadSignal {
            queue_depth: 100,
            busy_permille: 0,
            failed_sweeps: 5,
        };
        assert_eq!(ctl.decide(deep, 2, 4), ScaleDecision::WakeOne);
    }

    #[test]
    fn wake_depth_scales_with_awake_workers() {
        let ctl = ScaleController::new(cfg());
        let sig = LoadSignal {
            queue_depth: 6,
            busy_permille: 0,
            failed_sweeps: 0,
        };
        // 6 queued > 4×1: one awake worker is overwhelmed…
        assert_eq!(ctl.decide(sig, 1, 4), ScaleDecision::WakeOne);
        // …but 6 ≤ 4×2: two awake workers absorb the same backlog.
        assert_eq!(ctl.decide(sig, 2, 4), ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_blocks_back_to_back_transitions() {
        let ctl = ScaleController::new(cfg());
        // A fresh controller holds for one full cooldown from the pool
        // epoch: no scale transition in the very first instants.
        assert!(!ctl.try_commit(500));
        assert!(ctl.try_commit(5_000));
        assert!(!ctl.try_commit(5_500), "inside the cooldown window");
        assert!(ctl.try_commit(6_000), "cooldown elapsed");
        assert!(!ctl.try_commit(6_999));
        assert!(ctl.try_commit(7_500));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_are_rejected() {
        let _ = ScaleController::new(ElasticConfig {
            wake_busy_permille: 300,
            sleep_busy_permille: 400,
            ..cfg()
        });
    }

    #[test]
    fn sentinel_floor_survives_concurrent_sleep_claims() {
        let el = ElasticState::new(cfg(), 3);
        assert_eq!(el.awake_workers(), 3);
        assert!(el.try_begin_sleep(0));
        assert!(el.try_begin_sleep(1));
        // Worker 2 is the sentinel: the claim that would empty the
        // pool is refused.
        assert!(!el.try_begin_sleep(2));
        assert_eq!(el.awake_workers(), 1);
        assert!(el.is_sleeping(0) && el.is_sleeping(1) && !el.is_sleeping(2));
        el.finish_sleep(1);
        assert_eq!(el.awake_workers(), 2);
        assert!(el.try_begin_sleep(2), "a freed slot is claimable again");
    }

    #[test]
    fn consult_maps_decisions_to_verdicts() {
        let el = ElasticState::new(cfg(), 2);
        let idle = LoadSignal {
            queue_depth: 0,
            busy_permille: 0,
            failed_sweeps: 1,
        };
        // First consultation sleeps (the epoch cooldown has elapsed),
        // second hits the sentinel floor.
        assert_eq!(el.consult(0, idle, 10_000), SleepVerdict::Sleep);
        assert_eq!(el.consult(1, idle, 10_100), SleepVerdict::Sentinel);
        el.finish_sleep(0);
        // Inside the cooldown the verdict is Hold, not Sleep…
        assert_eq!(el.consult(0, idle, 10_500), SleepVerdict::Hold);
        // …and past it the slot is claimable again.
        assert_eq!(el.consult(0, idle, 12_000), SleepVerdict::Sleep);
    }

    #[test]
    fn wake_delivered_before_wait_is_not_lost() {
        // The scale-down race in miniature: the wake lands between the
        // sleep reservation and the wait. The pending slot holds it.
        let el = ElasticState::new(cfg(), 2);
        let terminate = AtomicBool::new(false);
        assert!(el.try_begin_sleep(1));
        assert_eq!(el.wake_one(WakeReason::Signal), Some(1));
        // The "sleeping" worker arrives late and must return instantly.
        assert_eq!(el.sleep_wait(1, &terminate), WakeReason::Signal);
        el.finish_sleep(1);
        assert_eq!(el.awake_workers(), 2);
    }

    #[test]
    fn sleep_wait_blocks_until_signalled_across_threads() {
        let el = Arc::new(ElasticState::new(cfg(), 2));
        let terminate = Arc::new(AtomicBool::new(false));
        assert!(el.try_begin_sleep(0));
        let sleeper = {
            let el = Arc::clone(&el);
            let terminate = Arc::clone(&terminate);
            std::thread::spawn(move || {
                let reason = el.sleep_wait(0, &terminate);
                el.finish_sleep(0);
                reason
            })
        };
        // Wait until the sleeper is visible, then wake it by load.
        while el.wake_one(WakeReason::Signal).is_none() {
            std::thread::yield_now();
        }
        assert_eq!(sleeper.join().unwrap(), WakeReason::Signal);
        assert_eq!(el.awake_workers(), 2);
        assert!(!el.is_sleeping(0));
    }

    #[test]
    fn shutdown_wakes_every_sleeper() {
        let el = Arc::new(ElasticState::new(cfg(), 3));
        let terminate = Arc::new(AtomicBool::new(false));
        let sleepers: Vec<_> = (0..2)
            .map(|w| {
                assert!(el.try_begin_sleep(w));
                let el = Arc::clone(&el);
                let terminate = Arc::clone(&terminate);
                std::thread::spawn(move || {
                    let reason = el.sleep_wait(w, &terminate);
                    el.finish_sleep(w);
                    reason
                })
            })
            .collect();
        terminate.store(true, Ordering::SeqCst);
        el.wake_all_for_shutdown();
        for s in sleepers {
            assert_eq!(s.join().unwrap(), WakeReason::Shutdown);
        }
        assert_eq!(el.awake_workers(), 3);
    }

    #[test]
    fn try_wake_for_load_respects_thresholds_and_cooldown() {
        let el = ElasticState::new(cfg(), 2);
        assert!(el.try_begin_sleep(1));
        let quiet = LoadSignal::default();
        let deep = LoadSignal {
            queue_depth: 50,
            ..LoadSignal::default()
        };
        assert_eq!(el.try_wake_for_load(quiet, 10_000), None);
        assert_eq!(el.try_wake_for_load(deep, 10_000), Some(1));
        el.finish_sleep(1);
        assert!(el.try_begin_sleep(1));
        // Immediately after: cooldown blocks the next wake.
        assert_eq!(el.try_wake_for_load(deep, 10_100), None);
        assert_eq!(el.try_wake_for_load(deep, 20_000), Some(1));
        el.finish_sleep(1);
        // Fully awake pools take the one-load fast path out.
        assert_eq!(el.try_wake_for_load(deep, 90_000), None);
    }

    #[test]
    fn rotation_is_periodic_and_optional() {
        let off = ElasticState::new(cfg(), 2);
        assert!(off.try_begin_sleep(1));
        assert_eq!(off.try_rotate(1_000_000), None, "rotation disabled");
        let el = ElasticState::new(
            ElasticConfig {
                rotation_period_ns: 1_000,
                ..cfg()
            },
            2,
        );
        assert!(el.try_begin_sleep(1));
        assert_eq!(el.try_rotate(2_000), Some(1));
        el.finish_sleep(1);
        assert!(el.try_begin_sleep(1));
        assert_eq!(el.try_rotate(2_500), None, "inside the rotation period");
        assert_eq!(el.try_rotate(3_000), Some(1));
    }

    #[test]
    fn lifecycle_states_round_trip() {
        let el = ElasticState::new(cfg(), 1);
        assert_eq!(el.worker_state(0), WorkerState::Stealing);
        el.set_state(0, WorkerState::Busy);
        assert_eq!(el.worker_state(0), WorkerState::Busy);
        el.set_state(0, WorkerState::Sleeping);
        assert_eq!(el.worker_state(0), WorkerState::Sleeping);
    }
}
