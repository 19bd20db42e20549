//! The work-stealing thread pool with HERMES tempo control.

use crate::driver::{EmulatedDvfs, FrequencyDriver, NullDriver, PowerCharge};
use crate::elastic::{ElasticConfig, ElasticState, LoadSignal, SleepVerdict, WorkerState};
use crate::job::{HeapJob, JobRef, Priority, StackJob};
use crate::metrics::{add, Counters, RtStats};
use crate::task::FutureTask;
use hermes_core::{
    Frequency, FrequencyActuator, HookWindow, Policy, TempoChange, TempoConfig, TempoController,
    TempoStats, WorkerId,
};
use hermes_deque::{ClassInjector, Lane, LockFreeDeque, Steal, TaskDeque, TheDeque};
use hermes_telemetry::{
    Event, MetricsSnapshot, PowerKind, SpanPhase, StealOutcome, TelemetrySink, MACHINE_STREAM,
};
use hermes_topology::{CoreId, Topology, VictimPolicy, VictimSelector};
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle-spin iterations before a worker parks, unless overridden by
/// [`PoolBuilder::spin_budget`]. Short enough that an idle worker stops
/// burning its core within microseconds, long enough that a worker
/// whose next task is one push away never touches the condvar.
const DEFAULT_SPIN_BUDGET: u32 = 16;

/// Default total capacity of the pool's sharded injection front door
/// (external submission queues); [`PoolBuilder::injector_capacity`]
/// overrides. The budget is divided evenly across the per-clock-domain
/// injector cells (per lane).
const DEFAULT_INJECTOR_CAPACITY: usize = 64 * 1024;

/// Options for class-aware submission ([`Pool::spawn_with`],
/// [`Pool::spawn_future_traced_with`]): the request class, an optional
/// deadline, and an optional injector-cell hint. `Default` is exactly
/// the legacy behaviour — normal class, no deadline, automatic cell
/// selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnOptions {
    /// Request class (default [`Priority::Normal`]); picks the drain
    /// lane inside the chosen injector cell.
    pub priority: Priority,
    /// Absolute deadline in pool-epoch nanoseconds, 0 = none. A
    /// deadline on normal-class work routes it into the deadline lane,
    /// which drains before plain normal work (but never before the
    /// high class).
    pub deadline_ns: u64,
    /// Preferred injector cell, as a topology clock-domain index
    /// (taken modulo the cell count). `None` picks the submitting
    /// worker's own cell for worker-originated submits and the
    /// least-loaded cell for external threads.
    pub domain_hint: Option<usize>,
}

impl SpawnOptions {
    /// Set the request class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set an absolute deadline in pool-epoch nanoseconds (0 = none).
    #[must_use]
    pub fn deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    /// Prefer the injector cell of the given topology clock domain.
    #[must_use]
    pub fn domain_hint(mut self, domain: usize) -> Self {
        self.domain_hint = Some(domain);
        self
    }
}

/// The drain lane a job's class maps to inside an injector cell.
fn lane_for(job: &JobRef) -> Lane {
    match job.priority() {
        Priority::High => Lane::High,
        Priority::Normal if job.deadline_ns() > 0 => Lane::Deadline,
        Priority::Normal => Lane::Normal,
        Priority::Background => Lane::Background,
    }
}

/// Injector-cell polling order for a worker placed on `core`: its own
/// clock domain's cell first, then every other cell in steal-distance
/// order (distance from `core` to the domain's first populated core;
/// domains no core belongs to sort last), ties broken by domain index
/// so the order is deterministic.
fn injector_cell_order(topology: &Topology, core: CoreId) -> Vec<usize> {
    let own = topology.domain_of(core);
    let mut order: Vec<usize> = (0..topology.domains()).collect();
    order.sort_by_key(|&d| {
        if d == own {
            (0u32, d)
        } else {
            let dist = topology
                .cores_in_domain(d)
                .first()
                .map_or(u32::MAX, |&rep| topology.distance(core, rep));
            // Same-core distance is 0 only within the own domain, which
            // is pinned first above; clamp so no foreign cell can tie it.
            (dist.max(1), d)
        }
    });
    order
}

/// Parked workers re-check for work at this interval even without a
/// wakeup — a safety net against (theoretical, see DESIGN.md §Serve)
/// lost notifies on weakly-ordered hardware, cheap enough (an O(workers)
/// scan per tick) to be invisible in both energy and latency.
const PARK_RECHECK: Duration = Duration::from_millis(1);

/// Which deque implementation the pool's workers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DequeKind {
    /// The paper's THE-protocol deque (locked steals).
    #[default]
    The,
    /// Atomics-only Chase–Lev deque (steals race on a CAS; no lock on
    /// any path); for the `sweep --ablate-deque` comparison.
    LockFree,
}

/// Builder for [`Pool`].
///
/// ```
/// use hermes_rt::Pool;
/// let pool = Pool::builder().workers(2).build();
/// let sum = pool.install(|| (1..=100).sum::<u32>());
/// assert_eq!(sum, 5050);
/// pool.shutdown();
/// ```
#[derive(Default)]
pub struct PoolBuilder {
    workers: Option<usize>,
    tempo: Option<TempoConfig>,
    deque: DequeKind,
    deque_capacity: Option<usize>,
    driver: Option<Arc<dyn FrequencyDriver>>,
    emulated: Option<(Frequency, f64)>,
    telemetry: Option<Arc<dyn TelemetrySink>>,
    topology: Option<Topology>,
    victim: VictimPolicy,
    spin_budget: Option<u32>,
    parking: Option<bool>,
    injector_capacity: Option<usize>,
    elastic: Option<ElasticConfig>,
}

impl std::fmt::Debug for PoolBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("workers", &self.workers)
            .field("deque", &self.deque)
            .field("victim", &self.victim)
            .finish()
    }
}

impl PoolBuilder {
    /// Number of worker threads (default: available parallelism).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Tempo-control configuration; its worker count must match the
    /// pool's. Defaults to the baseline policy (no tempo control).
    #[must_use]
    pub fn tempo(mut self, config: TempoConfig) -> Self {
        self.tempo = Some(config);
        self
    }

    /// Deque implementation (default: [`DequeKind::The`]).
    #[must_use]
    pub fn deque(mut self, kind: DequeKind) -> Self {
        self.deque = kind;
        self
    }

    /// Per-worker deque capacity (default 8192).
    #[must_use]
    pub fn deque_capacity(mut self, cap: usize) -> Self {
        self.deque_capacity = Some(cap);
        self
    }

    /// Use a custom frequency driver.
    #[must_use]
    pub fn driver(mut self, driver: Arc<dyn FrequencyDriver>) -> Self {
        self.driver = Some(driver);
        self
    }

    /// Use [`EmulatedDvfs`]: timing dilation plus a `busy_watts_fast`-watt
    /// power model anchored at `fastest`.
    #[must_use]
    pub fn emulated_dvfs(mut self, fastest: Frequency, busy_watts_fast: f64) -> Self {
        self.emulated = Some((fastest, busy_watts_fast));
        self
    }

    /// Attach a telemetry sink (e.g. [`hermes_telemetry::RingSink`]).
    ///
    /// The pool then emits steal attempts (with per-victim outcome),
    /// tempo transitions, and DVFS actuations as they happen; energy
    /// totals are emitted by [`Pool::flush_energy_telemetry`]. Without a
    /// sink the event paths are skipped entirely (not even a timestamp
    /// is read). The counters behind [`Pool::stats`], [`Pool::metrics`]
    /// and [`Pool::busy_share_permille`] are always on, sink or not.
    #[must_use]
    pub fn telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Describe the machine the pool runs on (default:
    /// [`Topology::flat`], where every worker is its own clock domain in
    /// one package). Workers are placed on distinct clock domains when
    /// the topology has enough of them — the paper's placement — and
    /// densely over cores `0..workers` otherwise.
    ///
    /// Combine with [`victim_policy`](Self::victim_policy): the topology
    /// defines steal distances, the policy decides how they bias victim
    /// selection. Use [`hermes_topology::discover`] to describe the real
    /// host.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Victim-selection policy for the steal path (default
    /// [`VictimPolicy::UniformRandom`], the classic random ring sweep).
    #[must_use]
    pub fn victim_policy(mut self, victim: VictimPolicy) -> Self {
        self.victim = victim;
        self
    }

    /// Idle-spin iterations (yielding sweeps over pop → injector →
    /// steal) a worker performs before parking (default 16, the
    /// previously hard-wired constant). Larger budgets trade idle
    /// energy for wakeup latency; `0` parks on the first empty sweep.
    /// Ignored when [`parking`](Self::parking) is disabled — the worker
    /// then spins indefinitely.
    #[must_use]
    pub fn spin_budget(mut self, budget: u32) -> Self {
        self.spin_budget = Some(budget);
        self
    }

    /// Enable or disable worker parking (default: enabled). With
    /// parking off, idle workers yield-spin until work appears — the
    /// paper's original idle behaviour, kept as the energy-hungry arm
    /// of the `sweep --serve` ablation.
    #[must_use]
    pub fn parking(mut self, on: bool) -> Self {
        self.parking = Some(on);
        self
    }

    /// Enable elastic worker-count scaling (default: off).
    ///
    /// With a policy attached, an idle worker that exhausts its spin
    /// budget consults the embedded
    /// [`ScaleController`](crate::ScaleController) before blocking:
    /// when the load signals (injector depth, failed-steal evidence,
    /// busy-share) sit under the sleep thresholds and the cooldown
    /// allows it, the worker *sleeps* — an indefinite wait on its own
    /// wake channel, ended only by a load signal, a sentinel rotation,
    /// or shutdown — instead of parking on the 1 ms re-check condvar.
    /// At least [`ElasticConfig::min_awake`] workers never take that
    /// indefinite sleep (the sentinel invariant — the sentinel keeps
    /// spinning/stealing, or parks on the shallow 1 ms re-check condvar
    /// where producer notifies still reach it), and a sleeping worker's
    /// deque stays stealable while the injector cells stay drainable,
    /// so no work is ever stranded. Sleeping time is accounted at
    /// [`crate::SLEEP_WATTS_FRACTION`] — deeper than park watts, since
    /// no re-check timer is armed — and the core is pinned at its
    /// slowest frequency for the duration (the tempo `on_park` hook —
    /// see DESIGN.md §Elastic for the precedence rule between the two
    /// levers). Without this call the subsystem is entirely absent:
    /// closed-model runs and the `sweep --smoke` figures are
    /// byte-identical to a pre-elastic pool.
    #[must_use]
    pub fn elastic(mut self, cfg: ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Total capacity budget of the external-submission front door
    /// (default 65536), divided evenly across the per-clock-domain
    /// injector cells and rounded up to a power of two per lane.
    /// Producers pushing into a full cell back off and retry, so this
    /// bounds memory, not correctness.
    #[must_use]
    pub fn injector_capacity(mut self, capacity: usize) -> Self {
        self.injector_capacity = Some(capacity);
        self
    }

    /// Build and start the pool.
    ///
    /// # Panics
    ///
    /// Panics if the tempo configuration's worker count disagrees with the
    /// pool's worker count, if the topology has fewer cores than the pool
    /// has workers, or if a worker thread cannot be spawned.
    #[must_use]
    pub fn build(self) -> Pool {
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
        let tempo = self.tempo.unwrap_or_else(|| {
            TempoConfig::builder()
                .policy(Policy::Baseline)
                .frequencies(vec![Frequency::from_mhz(1000)])
                .workers(workers)
                .build()
        });
        assert_eq!(
            tempo.num_workers, workers,
            "tempo config is for {} workers but the pool has {}",
            tempo.num_workers, workers
        );
        let emu = self
            .emulated
            .map(|(fastest, watts)| Arc::new(EmulatedDvfs::new(workers, fastest, watts)));
        let driver: Arc<dyn FrequencyDriver> = match (&self.driver, &emu) {
            (Some(d), _) => Arc::clone(d),
            (None, Some(e)) => Arc::clone(e) as Arc<dyn FrequencyDriver>,
            (None, None) => Arc::new(NullDriver),
        };
        let cap = self.deque_capacity.unwrap_or(8192);
        let deques: Vec<Arc<dyn TaskDeque<JobRef>>> = (0..workers)
            .map(|_| match self.deque {
                DequeKind::The => {
                    Arc::new(TheDeque::with_capacity(cap)) as Arc<dyn TaskDeque<JobRef>>
                }
                DequeKind::LockFree => {
                    Arc::new(LockFreeDeque::with_capacity(cap)) as Arc<dyn TaskDeque<JobRef>>
                }
            })
            .collect();

        // Place workers on the topology (distinct clock domains when
        // possible, the paper's protocol) and instantiate the victim
        // selector over the resulting steal-distance matrix.
        let topology = self.topology.unwrap_or_else(|| Topology::flat(workers));
        if let Err(e) = topology.validate() {
            panic!("invalid pool topology: {e}");
        }
        assert!(
            topology.cores() >= workers,
            "topology has {} cores but the pool has {workers} workers",
            topology.cores()
        );
        // Gate on *populated* domains, not the declared domain count: a
        // hand-built topology may declare domains no core belongs to.
        let distinct = topology.distinct_domain_cores();
        let placement: Vec<CoreId> = if distinct.len() >= workers {
            distinct[..workers].to_vec()
        } else {
            (0..workers).map(CoreId).collect()
        };
        let distances = topology.worker_distances(&placement);
        let selector = self.victim.selector(&distances);

        // Shard the front door: one class-aware injector cell per
        // topology clock domain, the configured capacity split evenly
        // across them. Each worker knows its home cell (its core's
        // domain) and a full polling order over the others, nearest
        // first — computed once here so the worker loop's fallback is
        // a plain indexed walk.
        let domains = topology.domains();
        let cell_capacity = self
            .injector_capacity
            .unwrap_or(DEFAULT_INJECTOR_CAPACITY)
            .div_ceil(domains)
            .max(2);
        let cells: Vec<ClassInjector<JobRef>> = (0..domains)
            .map(|_| ClassInjector::with_capacity(cell_capacity))
            .collect();
        let worker_cell: Vec<usize> = placement.iter().map(|&c| topology.domain_of(c)).collect();
        let cell_order: Vec<Vec<usize>> = placement
            .iter()
            .map(|&core| injector_cell_order(&topology, core))
            .collect();

        let profile_period_ns = tempo.profiler.period_ns;
        // A NullSink is equivalent to no sink: drop it here so the event
        // paths (timestamps, controller tracing) stay fully dormant.
        let telemetry = self.telemetry.filter(|s| !s.is_null());
        let mut controller = TempoController::new(tempo);
        if telemetry.is_some() {
            controller.set_tracing(true);
        }
        let inner = Arc::new(PoolInner {
            deques,
            cells,
            worker_cell,
            cell_order,
            controller: Mutex::new(controller),
            windows: (0..workers).map(|_| PublishedWindow::default()).collect(),
            driver,
            emu,
            terminate: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cond: Condvar::new(),
            parked_workers: AtomicUsize::new(0),
            spin_budget: self.spin_budget.unwrap_or(DEFAULT_SPIN_BUDGET),
            parking: self.parking.unwrap_or(true),
            elastic: self.elastic.map(|cfg| ElasticState::new(cfg, workers)),
            counters: Counters::new(workers, domains),
            epoch: Instant::now(),
            last_profile_ns: AtomicU64::new(0),
            profile_period_ns,
            sink: telemetry,
            selector,
            distances,
        });

        // Bootstrap tempo: everyone at the fastest frequency. This also
        // publishes the first hook windows, before any worker reads them.
        inner.with_controller(|ctl, act| ctl.initialize(act));

        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hermes-worker-{index}"))
                    // Generous stacks: the join resolution loop executes
                    // other tasks while waiting (leapfrogging), so worker
                    // stacks nest several task recursions, like Cilk's
                    // cactus-stack workers.
                    .stack_size(8 << 20)
                    .spawn(move || worker_main(&inner, index))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        Pool {
            inner,
            handles: Some(handles),
        }
    }
}

/// A HERMES work-stealing thread pool.
///
/// Tasks enter through [`install`](Pool::install) (blocking) or
/// [`spawn`](Pool::spawn) (fire-and-forget); inside the pool, use
/// [`join`](crate::join) and [`parallel_for`](crate::parallel_for) for
/// fork-join parallelism. Tempo control runs transparently underneath
/// according to the configured [`TempoConfig`].
pub struct Pool {
    inner: Arc<PoolInner>,
    handles: Option<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.inner.deques.len())
            .field("driver", &self.inner.driver.name())
            .finish()
    }
}

impl Pool {
    /// Start configuring a pool.
    #[must_use]
    pub fn builder() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// A pool with default settings (baseline policy).
    #[must_use]
    pub fn new(workers: usize) -> Pool {
        Pool::builder().workers(workers).build()
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.deques.len()
    }

    /// Run `f` inside the pool, blocking until it completes.
    ///
    /// If called from a worker of this pool, runs `f` directly.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.inner.local_index().is_some() {
            return f();
        }
        let job = StackJob::new(f);
        // SAFETY: we block on the latch below, so the stack frame outlives
        // the job; the injected ref is executed exactly once.
        let job_ref = unsafe { job.as_job_ref() };
        self.inner.inject(job_ref);
        job.latch.wait();
        // SAFETY: latch set implies the result was written.
        unsafe { job.take_result() }
    }

    /// Fire-and-forget a `'static` task into the pool (normal class,
    /// automatic cell selection — [`SpawnOptions::default`]).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_with(f, SpawnOptions::default());
    }

    /// [`spawn`](Self::spawn) with a request class, optional deadline,
    /// and optional injector-cell hint (see [`SpawnOptions`]). The
    /// class picks the drain lane inside the chosen cell — high before
    /// deadline-bearing before normal before background — and the hint
    /// (or, absent one, least-loaded/nearest selection) picks the cell.
    pub fn spawn_with<F>(&self, f: F, opts: SpawnOptions)
    where
        F: FnOnce() + Send + 'static,
    {
        let job = HeapJob::new(Box::new(f))
            .into_job_ref()
            .with_class(opts.priority, opts.deadline_ns);
        self.inner.inject_hinted(job, opts.domain_hint);
    }

    /// Spawn a future onto the pool, fire-and-forget.
    ///
    /// The future is polled on a worker thread; between polls it costs
    /// nothing — no worker is pinned waiting on it. Its waker re-queues
    /// the task onto the waking worker's own deque (when woken from
    /// inside this pool) or through the external-submission injector,
    /// and both paths drive the parked-worker handshake, so a wake
    /// aimed at a fully parked pool always restarts a worker
    /// (DESIGN.md §Async).
    ///
    /// Completion signalling is the future's own business — resolve a
    /// [`WakerLatch`](crate::WakerLatch), a serving ticket, a channel.
    /// A future that panics is dropped at the offending poll and the
    /// panic resumes on the worker thread, like a panicking
    /// [`spawn`](Self::spawn) closure; callers needing isolation catch
    /// panics inside the future (the serving layer does).
    pub fn spawn_future<F>(&self, future: F)
    where
        F: std::future::Future<Output = ()> + Send + 'static,
    {
        FutureTask::spawn(&self.inner, future, 0, SpawnOptions::default());
    }

    /// [`spawn_future`](Self::spawn_future) with a causal-span id.
    ///
    /// When a telemetry sink is attached, every lifecycle edge of the
    /// task — queued, polled, parked between polls, woken, re-queued —
    /// is recorded as [`Event::SpanBegin`]/[`Event::SpanEnd`] pairs
    /// carrying `span`, so the request's full journey (including
    /// cross-worker wake→re-push hops) can be stitched back together
    /// from the event stream. `span` must be nonzero (0 means untraced,
    /// the `spawn_future` default); ids wider than 56 bits are clamped
    /// by the event encoding. Without a sink this is identical to
    /// `spawn_future`.
    pub fn spawn_future_traced<F>(&self, future: F, span: u64)
    where
        F: std::future::Future<Output = ()> + Send + 'static,
    {
        FutureTask::spawn(&self.inner, future, span, SpawnOptions::default());
    }

    /// [`spawn_future_traced`](Self::spawn_future_traced) with a
    /// request class, optional deadline, and optional injector-cell
    /// hint (see [`SpawnOptions`]). The task keeps its class across
    /// waker re-queues: every re-push lands in the same drain lane the
    /// original submission used.
    pub fn spawn_future_traced_with<F>(&self, future: F, span: u64, opts: SpawnOptions)
    where
        F: std::future::Future<Output = ()> + Send + 'static,
    {
        FutureTask::spawn(&self.inner, future, span, opts);
    }

    /// Controller statistics so far.
    #[must_use]
    pub fn tempo_stats(&self) -> TempoStats {
        self.inner.controller.lock().stats()
    }

    /// Scheduler counters so far.
    #[must_use]
    pub fn stats(&self) -> RtStats {
        self.inner.counters.stats()
    }

    /// Number of injector cells the front door is sharded into — one
    /// per clock domain of the pool's topology.
    #[must_use]
    pub fn injector_cells(&self) -> usize {
        self.inner.cells.len()
    }

    /// Per-cell injector pop counters, indexed by clock domain. Their
    /// sum is exactly [`RtStats::injector_pops`] (the merged counter is
    /// their sum), which is the merged-view back-compat contract for
    /// pre-sharding consumers.
    #[must_use]
    pub fn injector_cell_pops(&self) -> Vec<u64> {
        self.inner.counters.cell_pops()
    }

    /// Current per-cell injector depths, indexed by clock domain (racy
    /// by nature, like any queue length read under concurrency).
    #[must_use]
    pub fn injector_cell_depths(&self) -> Vec<usize> {
        self.inner.cells.iter().map(ClassInjector::len).collect()
    }

    /// A live [`MetricsSnapshot`] — per-worker busy/steal/park time and
    /// task counts read from the workers' counter blocks, plus the
    /// current injector depth — without quiescing the pool, traced or
    /// not. A worker's `parked_ns` covers both parks and elastic sleeps.
    /// Each field has a single writer and is monotone; fields are not
    /// read as one consistent cut (see DESIGN.md §Observability).
    /// Serving layers wrap this and fill in the request-level fields
    /// (`in_flight`, latency quantiles).
    ///
    /// ```
    /// use hermes_rt::{parallel_for, Pool};
    /// let mut pool = Pool::new(2);
    /// let mut v: Vec<u64> = (0..10_000).collect();
    /// pool.install(|| parallel_for(&mut v, 64, |x| *x += 1));
    /// let live = pool.metrics(); // mid-run, no sink needed
    /// assert_eq!(live.workers.len(), 2);
    /// // A worker counts a job just after running it, so stop the pool
    /// // before relying on exact totals.
    /// pool.stop();
    /// assert!(pool.metrics().tasks() >= live.tasks().max(1));
    /// ```
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut workers = self.inner.counters.samples();
        // The counter blocks hold scheduler counters only; the energy
        // model lives pool-side, so fill the per-worker joule column here.
        if let Some(emu) = self.inner.emu.as_ref() {
            for (sample, joules) in workers.iter_mut().zip(emu.energy_by_worker()) {
                sample.energy_uj = (joules * 1e6) as u64;
            }
        }
        MetricsSnapshot {
            at_ns: self.elapsed_ns(),
            workers,
            injector_depth: self.inner.cells.iter().map(ClassInjector::len).sum(),
            injector_cell_depths: self.inner.cells.iter().map(ClassInjector::len).collect(),
            in_flight: 0,
            active_workers: self.active_workers(),
            latency_p50_ns: None,
            latency_p99_ns: None,
            energy_p50_uj: None,
            energy_p99_uj: None,
            dropped_events: self
                .inner
                .sink
                .as_deref()
                .map_or(0, TelemetrySink::dropped_events),
        }
    }

    /// The pool's busy share in permille: executed-job time over worker
    /// time across a window of a few milliseconds, refreshed by whoever
    /// reads it after the window rolls. This is the one busy-share
    /// signal the elastic scale controller and the serving layer's
    /// admission control both read.
    #[must_use]
    pub fn busy_share_permille(&self) -> u32 {
        self.inner.counters.busy_share_permille(self.elapsed_ns())
    }

    /// Workers currently awake — the full worker count minus those
    /// inside an elastic-sleep bracket; simply the full count when
    /// elastic scaling is off (see [`PoolBuilder::elastic`]).
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.inner
            .elastic
            .as_ref()
            .map_or(self.workers(), ElasticState::awake_workers)
    }

    /// Per-worker elastic lifecycle states (Busy / Stealing /
    /// Sleeping), `None` when elastic scaling is off. Racy by nature,
    /// like any live state read under concurrency.
    #[must_use]
    pub fn worker_states(&self) -> Option<Vec<WorkerState>> {
        self.inner
            .elastic
            .as_ref()
            .map(|el| (0..self.workers()).map(|w| el.worker_state(w)).collect())
    }

    /// Virtual energy consumed per worker, if the pool runs emulated DVFS.
    #[must_use]
    pub fn energy_by_worker(&self) -> Option<Vec<f64>> {
        self.inner.emu.as_ref().map(|e| e.energy_by_worker())
    }

    /// Total virtual energy, if the pool runs emulated DVFS.
    #[must_use]
    pub fn total_energy(&self) -> Option<f64> {
        self.inner.emu.as_ref().map(|e| e.total_energy())
    }

    /// Emit one [`Event::EnergySample`] per worker carrying its emulated
    /// energy total so far. Call once, after the measured region and
    /// before folding the sink into a
    /// [`RunReport`](hermes_telemetry::RunReport); sinks accumulate
    /// samples, so calling this repeatedly would double-count. No-op
    /// without a telemetry sink or without emulated DVFS.
    pub fn flush_energy_telemetry(&self) {
        if let (Some(sink), Some(emu)) = (self.inner.sink.as_deref(), self.inner.emu.as_ref()) {
            let at_ns = self.inner.epoch.elapsed().as_nanos() as u64;
            for (w, &joules) in emu.energy_by_worker().iter().enumerate() {
                // Split rather than clamp: a single sample saturates at
                // the 60-bit payload (~1.15e6 J), and the total must
                // survive the fold exactly for the closure cross-check.
                for ev in Event::energy_samples_from_joules(joules) {
                    sink.record(w, at_ns, ev);
                }
            }
        }
    }

    /// Emulated energy consumed so far by the worker running the
    /// calling thread, in nanojoules — `None` off-pool or without
    /// emulated DVFS. One relaxed atomic load: cheap enough to bracket
    /// every future poll, which is how the serving layer attributes
    /// joules to individual requests (the delta across a poll is energy
    /// this worker spent inside that request's span).
    #[must_use]
    pub fn current_worker_energy_nj(&self) -> Option<u64> {
        let emu = self.inner.emu.as_ref()?;
        Some(emu.worker_energy_nj(self.inner.local_index()?))
    }

    /// Nanoseconds since the pool started — the timestamp base of every
    /// event this pool records.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// The active frequency driver's name.
    #[must_use]
    pub fn driver_name(&self) -> &'static str {
        self.inner.driver.name()
    }

    /// The active victim-selection policy's name.
    #[must_use]
    pub fn victim_policy_name(&self) -> &'static str {
        self.inner.selector.name()
    }

    /// The worker-to-worker steal-distance matrix induced by the pool's
    /// topology and placement — feed it to
    /// [`RunReport::with_steal_distances`](hermes_telemetry::RunReport::with_steal_distances)
    /// to bucket this pool's steal matrix by distance.
    #[must_use]
    pub fn worker_distances(&self) -> Vec<Vec<u32>> {
        self.inner.distances.clone()
    }

    /// Stop the workers and join their threads.
    ///
    /// Dropping the pool does the same; this explicit form exists so
    /// teardown is visible and non-blocking destructors stay achievable
    /// for callers who care.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Stop and join the workers but keep the pool object alive for
    /// post-run inspection. After this returns no worker is running, so
    /// [`stats`](Self::stats), energy totals, and any attached telemetry
    /// sink are frozen — the way to get exact (not racy-by-a-sweep)
    /// agreement between counters and a folded
    /// [`RunReport`](hermes_telemetry::RunReport), since idle workers
    /// otherwise keep recording empty steal sweeps. Terminal: tasks
    /// submitted afterwards will never run.
    pub fn stop(&mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.terminate.store(true, Ordering::SeqCst);
        // Lock bridge (see PoolInner::notify_parked): a worker between
        // its pre-park terminate check and its wait either sees the
        // store above or receives this notify.
        drop(self.inner.sleep_lock.lock());
        self.inner.sleep_cond.notify_all();
        // Elastic sleepers wait indefinitely on their own channels:
        // deliver the shutdown wake there too (the terminate re-check
        // inside `sleep_wait` covers workers still transitioning).
        if let Some(el) = self.inner.elastic.as_ref() {
            el.wake_all_for_shutdown();
        }
        if let Some(handles) = self.handles.take() {
            for h in handles {
                let _ = h.join();
            }
        }
        // With the workers gone, anything still queued will never run —
        // the documented `stop()` contract. Release it so heap closures
        // and future tasks are freed rather than leaked (stack jobs
        // release to a no-op; their owning frames hold the payload).
        // This also catches tasks injected between `stop()` and drop:
        // both calls drain, and the queues are empty the second time.
        for cell in &self.inner.cells {
            while let Some(job) = cell.pop() {
                // SAFETY: the injector hands each job to exactly one
                // popper, and a released job is never executed.
                unsafe { job.release() };
            }
        }
        for dq in &self.inner.deques {
            // Drain via `steal`, not `pop`: this thread is not the
            // deque's owner, and `steal` is the one entry point a
            // foreign thread may use.
            loop {
                match dq.steal() {
                    Steal::Success { task, .. } => {
                        // SAFETY: a successful steal transfers sole
                        // ownership of the job to this thread.
                        unsafe { task.release() };
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------

pub(crate) struct PoolInner {
    deques: Vec<Arc<dyn TaskDeque<JobRef>>>,
    /// Sharded external-submission front door: one class-aware injector
    /// cell (lock-free bounded MPMC per lane) per topology clock
    /// domain. `install`, `spawn`, and the serving layer push here;
    /// workers poll their own domain's cell between the local pop and
    /// the steal sweep, falling back cross-domain in steal-distance
    /// order.
    cells: Vec<ClassInjector<JobRef>>,
    /// Each worker's home cell: the clock domain its placed core
    /// belongs to.
    worker_cell: Vec<usize>,
    /// Per-worker cell polling order (own cell first, then by steal
    /// distance; see `injector_cell_order`).
    cell_order: Vec<Vec<usize>>,
    controller: Mutex<TempoController>,
    /// Each worker's [`HookWindow`] as of the controller's latest locked
    /// hook: the owner-local hooks read it to skip the lock when the
    /// controller would ignore them (see `PublishedWindow`).
    windows: Box<[PublishedWindow]>,
    driver: Arc<dyn FrequencyDriver>,
    emu: Option<Arc<EmulatedDvfs>>,
    terminate: AtomicBool,
    sleep_lock: Mutex<()>,
    sleep_cond: Condvar,
    /// Workers currently inside a park episode. Producers skip the
    /// notify path entirely while this is zero (the common saturated
    /// case); see `notify_parked` for the lost-wakeup argument.
    parked_workers: AtomicUsize,
    /// Idle-spin iterations before parking (see
    /// [`PoolBuilder::spin_budget`]).
    spin_budget: u32,
    /// Whether idle workers park at all (see [`PoolBuilder::parking`]).
    parking: bool,
    /// Elastic worker-count scaling state; `None` (the default) keeps
    /// the subsystem entirely absent (see [`PoolBuilder::elastic`]).
    elastic: Option<ElasticState>,
    /// The counter plane: one always-on block per worker (see
    /// [`crate::metrics`]).
    counters: Counters,
    /// Pool start time and nanoseconds of the last profiler tick since
    /// then; any worker on the steal path advances it.
    epoch: Instant,
    last_profile_ns: AtomicU64,
    profile_period_ns: u64,
    /// Telemetry destination; `None` keeps every event path dormant.
    sink: Option<Arc<dyn TelemetrySink>>,
    /// Victim-selection policy instantiated for this pool's placement.
    selector: Box<dyn VictimSelector>,
    /// Worker-to-worker steal distances under the configured topology.
    distances: Vec<Vec<u32>>,
}

/// One worker's published [`HookWindow`], padded to a cache line so a
/// republish for one worker never invalidates another worker's line.
///
/// Written only under the controller lock, at the end of every locked
/// hook, and only the fields that changed; read by the owner's push, pop
/// and steal sweep, each of which needs just one field. Relaxed is
/// enough: a window publishes no other data, and a reader that acts on
/// it takes the lock.
///
/// A stale read is harmless: every foreign write to a worker's band,
/// link or thresholds is a locked hook of another worker (a thief's
/// `on_steal`, a neighbour's `on_out_of_work`, a profiler recompute),
/// and skipping on the window from just before that hook is the same as
/// running the owner's hook just before it — an order the lock already
/// allows. The owner's own locked hooks republish before it reads
/// again, so it never reads a window older than its last hook.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PublishedWindow {
    push_max: AtomicUsize,
    pop_min: AtomicUsize,
    linked: AtomicBool,
}

impl PublishedWindow {
    fn publish(&self, window: HookWindow) {
        store_if_changed(&self.push_max, window.push_max);
        store_if_changed(&self.pop_min, window.pop_min);
        if self.linked.load(Ordering::Relaxed) != window.linked {
            self.linked.store(window.linked, Ordering::Relaxed);
        }
    }
}

/// Store `value` unless `slot` already holds it, so an unchanged window
/// leaves its owner's cache line clean.
fn store_if_changed(slot: &AtomicUsize, value: usize) {
    if slot.load(Ordering::Relaxed) != value {
        slot.store(value, Ordering::Relaxed);
    }
}

/// Forwards controller actuations to the frequency driver; failures are
/// ignored after the first (tempo control is best-effort). When a
/// telemetry sink is attached, every actuation is also recorded on the
/// target worker's stream.
struct DriverActuator<'a> {
    driver: &'a dyn FrequencyDriver,
    sink: Option<&'a dyn TelemetrySink>,
    epoch: &'a Instant,
}

impl FrequencyActuator for DriverActuator<'_> {
    fn apply(&mut self, change: TempoChange) {
        let _ = self.driver.set_frequency(change.worker.0, change.frequency);
        if let Some(sink) = self.sink {
            sink.record(
                change.worker.0,
                self.epoch.elapsed().as_nanos() as u64,
                Event::DvfsActuation {
                    freq_khz: change.frequency.khz(),
                },
            );
        }
    }
}

impl PoolInner {
    pub(crate) fn inject(self: &Arc<Self>, job: JobRef) {
        self.inject_hinted(job, None);
    }

    /// Route `job` into an injector cell and lane. The lane comes from
    /// the job's class; the cell is the hinted clock domain's when
    /// `domain_hint` is given (modulo the cell count), the submitting
    /// worker's own (nearest) cell for worker-originated submits, and
    /// the least-loaded cell for external threads.
    pub(crate) fn inject_hinted(self: &Arc<Self>, job: JobRef, domain_hint: Option<usize>) {
        // A terminated pool never runs submitted tasks (the documented
        // `stop()` contract): free the job now rather than queueing it
        // until drop. (A terminate racing in after this check just means
        // the job waits in the ring for the drop-time drain.)
        if self.terminate.load(Ordering::SeqCst) {
            // SAFETY: we hold the sole ref; released jobs never execute.
            unsafe { job.release() };
            return;
        }
        let lane = lane_for(&job);
        let cell = match domain_hint {
            Some(d) => d % self.cells.len(),
            None => match self.local_index() {
                Some(w) => self.worker_cell[w],
                None => self.least_loaded_cell(),
            },
        };
        // The cells are bounded: on overflow, back off and retry.
        // Workers drain every cell on every idle sweep, so space frees
        // as long as the pool is alive; this is backpressure on the
        // producer, by design (an unbounded queue under open-loop
        // overload grows without limit and hides the overload in
        // queueing latency instead).
        let mut job = job;
        loop {
            match self.cells[cell].push(job, lane) {
                Ok(()) => break,
                Err(e) => {
                    job = e.0;
                    // A terminated pool never runs submitted tasks (the
                    // documented `stop()` contract) and has no workers
                    // to drain the ring: retrying would spin forever.
                    // Release the job so it is freed, not leaked.
                    if self.terminate.load(Ordering::SeqCst) {
                        // SAFETY: the push failed, so we still hold the
                        // sole ref; a released job is never executed.
                        unsafe { job.release() };
                        return;
                    }
                    // A worker of THIS pool must not wait for space: if
                    // every worker were in here (tasks fanning out via
                    // `spawn` onto a small injector), nobody would be
                    // left to drain the ring — deadlock. Make progress
                    // ourselves instead: run one injected job inline
                    // (the overflow fallback the deques handle with
                    // inline execution). Draining the *target* cell in
                    // priority order eventually frees the full lane —
                    // higher lanes empty first, then the pop reaches
                    // ours.
                    if let Some(w) = self.local_index() {
                        if let Some(stolen) = self.cells[cell].pop() {
                            add(&self.counters.worker(w).injector_pops[cell], 1);
                            // SAFETY: the injector hands each job to
                            // exactly one popper.
                            unsafe { self.execute(w, stolen) };
                        }
                        continue;
                    }
                    std::thread::yield_now();
                }
            }
        }
        self.notify_parked();
    }

    /// The cell with the fewest queued tasks right now (ties to the
    /// lowest index). Racy by nature — the loads are relaxed ring
    /// indices — but mis-picks only cost balance, never correctness:
    /// every worker polls every cell.
    fn least_loaded_cell(&self) -> usize {
        let mut best = 0;
        let mut best_len = usize::MAX;
        for (i, cell) in self.cells.iter().enumerate() {
            let len = cell.len();
            if len < best_len {
                best = i;
                best_len = len;
                if len == 0 {
                    break;
                }
            }
        }
        best
    }

    /// Poll the injector cells in worker `w`'s polling order: its own
    /// domain's cell first, then cross-domain in steal-distance order.
    fn pop_injected(&self, w: usize) -> Option<JobRef> {
        for &c in &self.cell_order[w] {
            if let Some(job) = self.cells[c].pop() {
                add(&self.counters.worker(w).injector_pops[c], 1);
                return Some(job);
            }
        }
        None
    }

    /// Wake a parked worker after making work visible.
    ///
    /// No-lost-wakeup argument (DESIGN.md §Serve). Producer: (1) make
    /// work visible, (2) `SeqCst` fence, (3) read `parked_workers`.
    /// Parker, under `sleep_lock`: (1) increment `parked_workers`, (2)
    /// `SeqCst` fence, (3) re-check for work, and only then wait. The
    /// fences resolve the store-buffering race ([atomics.fences]): one
    /// of them is first in the total fence order, so either the
    /// producer's work write is visible to the parker's re-check (it
    /// never sleeps), or the parker's increment is visible to the
    /// producer's read — which then routes through the lock bridge
    /// below, landing by mutual exclusion either before the parker's
    /// re-check (which then sees the work) or after the parker
    /// released the lock into its wait (which the notify wakes).
    /// Parked waits are additionally timed (`PARK_RECHECK`) as
    /// defense in depth.
    fn notify_parked(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.parked_workers.load(Ordering::SeqCst) > 0 {
            drop(self.sleep_lock.lock());
            self.sleep_cond.notify_one();
        }
        self.maybe_scale_up();
    }

    /// Producer-side elastic scale-up: when the pool is scaled down and
    /// the just-made-visible work pushes the load signal over the wake
    /// thresholds, wake one sleeper ([`WakeReason::Signal`]). Rides
    /// every `notify_parked` — a no-op branch without an elastic policy
    /// and one atomic load while fully awake, so the closed-model hot
    /// paths keep their shape.
    fn maybe_scale_up(&self) {
        let Some(el) = self.elastic.as_ref() else {
            return;
        };
        if el.awake_workers() >= el.workers() {
            return;
        }
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let _ = el.try_wake_for_load(self.load_signal(now_ns, 0), now_ns);
    }

    /// One observation of the pool's load for the scale controller at
    /// pool-clock `now_ns`: merged injector depth, the windowed busy
    /// share, and the caller's failed-sweep evidence.
    fn load_signal(&self, now_ns: u64, failed_sweeps: u64) -> LoadSignal {
        LoadSignal {
            queue_depth: self.cells.iter().map(ClassInjector::len).sum(),
            busy_permille: self.counters.busy_share_permille(now_ns),
            failed_sweeps,
        }
    }

    /// An idle worker's spin budget ran out: decide between elastic
    /// sleep, ordinary parking, and staying awake. `failed_sweeps` is
    /// the worker's own just-observed evidence (empty sweeps since it
    /// last held work).
    fn idle_block(&self, w: usize, failed_sweeps: u64) {
        if let Some(el) = self.elastic.as_ref() {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            match el.consult(w, self.load_signal(now_ns, failed_sweeps), now_ns) {
                SleepVerdict::Sleep => return self.elastic_sleep(w, el),
                SleepVerdict::Sentinel => {
                    // The sentinel is the pool's wake latency: it may
                    // take the shallow 1 ms-recheck park below (a
                    // producer notify still reaches it there), but
                    // never the indefinite elastic sleep — someone must
                    // answer a wake signal the moment load returns. At
                    // most once per rotation period it taps a sleeper
                    // to take over, so the on-call role circulates.
                    el.try_rotate(now_ns);
                }
                // Cooldown or hysteresis band: fall through to an
                // ordinary (bounded, see `park`) park so the worker
                // re-consults once the cooldown expires.
                SleepVerdict::Hold => {}
            }
            if !self.parking {
                return;
            }
        }
        self.park(w);
    }

    /// Worker `w`'s elastic-sleep bracket. The slot was already
    /// reserved by [`ElasticState::consult`]; this re-checks for work
    /// and shutdown (undoing the reservation instead of sleeping on
    /// visible work), then waits **indefinitely** on the worker's wake
    /// channel — no timed re-check; only a load signal, a sentinel
    /// rotation, or shutdown ends it. With no timer armed the emulated
    /// core reaches the deepest sleep state, so the episode is charged
    /// at [`crate::SLEEP_WATTS_FRACTION`] (an order below park watts;
    /// the tempo `on_park` hook still pins the slowest frequency),
    /// bracketed by [`Event::WorkerSleep`] / [`Event::WorkerWake`].
    fn elastic_sleep(&self, w: usize, el: &ElasticState) {
        if self.terminate.load(Ordering::SeqCst) || self.has_claimable_work() {
            el.finish_sleep(w);
            return;
        }
        let t0 = Instant::now();
        if let Some(sink) = self.sink.as_deref() {
            sink.record(
                w,
                self.epoch.elapsed().as_nanos() as u64,
                Event::WorkerSleep,
            );
        }
        self.with_controller(|ctl, act| ctl.on_park(WorkerId(w), act));
        let reason = el.sleep_wait(w, &self.terminate);
        let slept = t0.elapsed();
        let slept_ns = slept.as_nanos() as u64;
        let counters = self.counters.worker(w);
        add(&counters.sleeps, 1);
        add(&counters.slept_ns, slept_ns);
        add(&counters.wakes, 1);
        if let Some(emu) = &self.emu {
            let charge = emu.account_slept(w, slept);
            self.record_power(w, PowerKind::Parked, charge);
        }
        if let Some(sink) = self.sink.as_deref() {
            sink.record(
                w,
                self.epoch.elapsed().as_nanos() as u64,
                Event::WorkerWake { reason, slept_ns },
            );
        }
        self.with_controller(|ctl, act| ctl.on_unpark(WorkerId(w), act));
        el.finish_sleep(w);
    }

    /// Work a parked worker could acquire: injected tasks or anything
    /// stealable. (Its own deque cannot fill while it sleeps — only the
    /// owner pushes there.)
    fn has_claimable_work(&self) -> bool {
        self.cells.iter().any(|c| !c.is_empty()) || self.deques.iter().any(|d| !d.is_empty())
    }

    /// Record a causal-span edge for task `span` on the calling
    /// thread's stream. No-op for untraced tasks (`span == 0`) and
    /// sinkless pools, so the branch is the entire untraced cost.
    pub(crate) fn record_span(self: &Arc<Self>, span: u64, begin: bool, phase: SpanPhase) {
        if span == 0 {
            return;
        }
        self.record_task_event(if begin {
            Event::SpanBegin { id: span, phase }
        } else {
            Event::SpanEnd { id: span, phase }
        });
    }

    /// Record a task-lifecycle event on the calling thread's stream: the
    /// worker's own stream when the caller is a worker of this pool, the
    /// machine stream otherwise (wakes arriving from external threads).
    fn record_task_event(&self, event: Event) {
        if let Some(sink) = self.sink.as_deref() {
            let stream = self.local_index().unwrap_or(MACHINE_STREAM);
            sink.record(stream, self.epoch.elapsed().as_nanos() as u64, event);
        }
    }

    /// The calling thread's worker index if it is a worker of this
    /// pool. Compares pointers only: no reference-count traffic.
    fn local_index(&self) -> Option<usize> {
        with_current_worker(|cur| {
            cur.filter(|&(pool, _)| std::ptr::eq(pool, self))
                .map(|(_, w)| w)
        })
    }

    /// Emit the [`Event::PowerInterval`] for a charge the emulated-DVFS
    /// accountant just billed. Recorded at the interval's end (now), the
    /// event-encoding convention. The meter was already charged, so
    /// without a sink this is a no-op — not even a timestamp read —
    /// and zero-length slices (sub-ns task blips) are skipped: they
    /// carry no energy.
    fn record_power(&self, w: usize, kind: PowerKind, charge: PowerCharge) {
        if charge.duration_ns == 0 {
            return;
        }
        if let Some(sink) = self.sink.as_deref() {
            sink.record(
                w,
                self.epoch.elapsed().as_nanos() as u64,
                Event::PowerInterval {
                    kind,
                    duration_ns: charge.duration_ns,
                    milliwatts: charge.milliwatts,
                },
            );
        }
    }

    /// Count one future-task poll (see [`RtStats::future_polls`]).
    pub(crate) fn task_polled(&self) {
        self.counters
            .add_from(self.local_index(), |c| &c.future_polls);
        self.record_task_event(Event::TaskPoll);
    }

    /// Count one future-task wake (see [`RtStats::future_wakes`]); the
    /// waker may fire on any thread.
    pub(crate) fn task_woken(&self) {
        self.counters
            .add_from(self.local_index(), |c| &c.future_wakes);
        self.record_task_event(Event::TaskWake);
    }

    /// Re-queue a woken future task: onto the waking worker's own deque
    /// when the waker fired on a worker of this pool (the wake usually
    /// happens where the readiness was produced, so the task stays
    /// local), through the injector otherwise. Both paths end in
    /// `notify_parked`, so the no-lost-wakeup argument on that method
    /// covers re-pushes exactly as it covers fresh submissions.
    pub(crate) fn repush(self: &Arc<Self>, job: JobRef) {
        let local = self.local_index();
        self.counters.add_from(local, |c| &c.future_repushes);
        self.record_task_event(Event::TaskRepush);
        let job = match local {
            Some(w) => match self.push_job(w, job) {
                Ok(()) => return,
                // Deque full: overflow to the injector rather than
                // executing inline — a wake must not nest a poll inside
                // whatever job is currently running.
                Err(job) => job,
            },
            None => job,
        };
        self.inject(job);
    }

    /// Park worker `w` until work may be available or the pool shuts
    /// down. Records the park/unpark telemetry bracket, attributes the
    /// parked time to the energy model, and runs the controller's
    /// park hooks (which pin the core at the slowest frequency for the
    /// duration).
    fn park(&self, w: usize) {
        // Lock-free pre-check: the common abort case (work appeared
        // during the last spin) never touches the lock or the
        // controller.
        if self.terminate.load(Ordering::SeqCst) || self.has_claimable_work() {
            return;
        }
        // Record the park bracket and pin the frequency BEFORE taking
        // `sleep_lock`: producers' `notify_parked` serializes on that
        // lock, so nothing slow (controller mutex, a DVFS write in
        // `on_park`'s actuation, sink records) may happen under it —
        // only the parked_workers handshake, the final re-check, and
        // the wait itself.
        let t0 = Instant::now();
        if let Some(sink) = self.sink.as_deref() {
            sink.record(w, self.epoch.elapsed().as_nanos() as u64, Event::WorkerPark);
        }
        self.with_controller(|ctl, act| ctl.on_park(WorkerId(w), act));
        {
            let mut guard = self.sleep_lock.lock();
            // Declare the park *before* the under-lock work re-check,
            // with a SeqCst fence between increment and re-check: see
            // `notify_parked` for why this order (fence against fence)
            // closes the sleep/notify race.
            self.parked_workers.fetch_add(1, Ordering::SeqCst);
            std::sync::atomic::fence(Ordering::SeqCst);
            // Under an elastic policy the park is *bounded*: one timed
            // recheck, then back to the worker loop so the idle worker
            // re-consults the scale controller (whose cooldown may now
            // allow it to sleep for real). Without one, the loop keeps
            // the legacy shape — park until work or termination.
            let bounded = self.elastic.is_some();
            while !(self.terminate.load(Ordering::SeqCst) || self.has_claimable_work()) {
                let timed_out = self
                    .sleep_cond
                    .wait_for(&mut guard, PARK_RECHECK)
                    .timed_out();
                if bounded && timed_out {
                    break;
                }
            }
            self.parked_workers.fetch_sub(1, Ordering::SeqCst);
        }
        let parked = t0.elapsed();
        let parked_ns = parked.as_nanos() as u64;
        let counters = self.counters.worker(w);
        add(&counters.parks, 1);
        add(&counters.parked_ns, parked_ns);
        if let Some(emu) = &self.emu {
            let charge = emu.account_parked(w, parked);
            self.record_power(w, PowerKind::Parked, charge);
        }
        if let Some(sink) = self.sink.as_deref() {
            sink.record(
                w,
                self.epoch.elapsed().as_nanos() as u64,
                Event::WorkerUnpark { parked_ns },
            );
        }
        self.with_controller(|ctl, act| ctl.on_unpark(WorkerId(w), act));
    }

    fn with_controller(&self, f: impl FnOnce(&mut TempoController, &mut DriverActuator<'_>)) {
        let mut ctl = self.controller.lock();
        let mut act = DriverActuator {
            driver: self.driver.as_ref(),
            sink: self.sink.as_deref(),
            epoch: &self.epoch,
        };
        f(&mut ctl, &mut act);
        // Forward the tempo transitions this hook produced (possibly for
        // other workers — relays) while still holding the controller
        // lock, so transition order matches controller order.
        if let Some(sink) = self.sink.as_deref() {
            let at_ns = self.epoch.elapsed().as_nanos() as u64;
            ctl.drain_transitions(|t| sink.record_transition(at_ns, t));
        }
        // A hook may move any worker's window (steals and relays relink
        // chains, a recompute moves every threshold): republish them all.
        for (w, window) in self.windows.iter().enumerate() {
            window.publish(ctl.hook_window(WorkerId(w)));
        }
    }

    /// Push a job onto worker `w`'s deque, running the workload hook
    /// unless the published window says it is a no-op. Returns the job
    /// back if the deque is full.
    fn push_job(&self, w: usize, job: JobRef) -> Result<(), JobRef> {
        self.deques[w].push(job).map_err(|e| e.0)?;
        add(&self.counters.worker(w).pushes, 1);
        let len = self.deques[w].len();
        if len > self.windows[w].push_max.load(Ordering::Relaxed) {
            self.with_controller(|ctl, act| ctl.on_push(WorkerId(w), len, act));
        }
        self.notify_parked();
        Ok(())
    }

    /// Pop from worker `w`'s own deque, running the workload hook unless
    /// the published window says it is a no-op.
    fn pop_job(&self, w: usize) -> Option<JobRef> {
        let job = self.deques[w].pop()?;
        add(&self.counters.worker(w).pops, 1);
        let len = self.deques[w].len();
        if len < self.windows[w].pop_min.load(Ordering::Relaxed) {
            self.with_controller(|ctl, act| ctl.on_pop(WorkerId(w), len, act));
        }
        Some(job)
    }

    /// One full steal sweep over random-ordered victims; runs the
    /// out-of-work hook first (Fig. 5 lines 5-14), then the steal hook on
    /// success.
    /// The online profiler (paper §3.2), driven from the steal path so it
    /// runs even while workers sit inside join resolution loops: whoever
    /// crosses the period boundary first samples every deque and
    /// recomputes the thresholds.
    fn maybe_profile(&self) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let last = self.last_profile_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.profile_period_ns {
            return;
        }
        if self
            .last_profile_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another worker took this tick
        }
        self.with_controller(|ctl, _| {
            for dq in &self.deques {
                ctl.record_deque_sample(dq.len());
            }
            ctl.recompute_thresholds();
        });
    }

    /// `order` is the caller's reusable sweep buffer (each worker loop
    /// owns one, so the hot path never allocates).
    fn steal_job(&self, w: usize, rng: &mut SmallRng, order: &mut Vec<usize>) -> Option<JobRef> {
        let t0 = Instant::now();
        let job = self.steal_job_inner(w, rng, order);
        add(
            &self.counters.worker(w).steal_ns,
            t0.elapsed().as_nanos() as u64,
        );
        job
    }

    fn steal_job_inner(
        &self,
        w: usize,
        rng: &mut SmallRng,
        order: &mut Vec<usize>,
    ) -> Option<JobRef> {
        self.maybe_profile();
        // Immediacy Relay only acts on a worker linked into a chain.
        if self.windows[w].linked.load(Ordering::Relaxed) {
            self.with_controller(|ctl, act| ctl.on_out_of_work(WorkerId(w), act));
        }
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        self.selector.sweep(w, rng, order);
        for &v in order.iter() {
            let outcome = self.deques[v].steal();
            if let Some(sink) = self.sink.as_deref() {
                let telemetry_outcome = match &outcome {
                    Steal::Success { .. } => StealOutcome::Success,
                    Steal::Empty => StealOutcome::Empty,
                    Steal::Retry => StealOutcome::LostRace,
                };
                sink.record(
                    w,
                    self.epoch.elapsed().as_nanos() as u64,
                    Event::StealAttempt {
                        victim: v as u32,
                        outcome: telemetry_outcome,
                    },
                );
            }
            match outcome {
                Steal::Success {
                    task: job,
                    victim_len,
                } => {
                    add(&self.counters.worker(w).steals, 1);
                    // The controller sees the victim length captured at
                    // the steal's commit point. Re-reading the deque here
                    // would race: another thief (or the owner) may have
                    // moved the indices in between, feeding the workload
                    // algorithm a length the victim never had when this
                    // steal happened.
                    self.with_controller(|ctl, act| {
                        ctl.on_steal(WorkerId(w), WorkerId(v), victim_len, act);
                    });
                    return Some(job);
                }
                Steal::Empty => {
                    add(&self.counters.worker(w).empty_steals, 1);
                }
                Steal::Retry => {
                    // Contention, not starvation: the victim had work but
                    // this thief lost the race for it. Move on to the
                    // next victim; the sweep will come back around.
                    add(&self.counters.worker(w).lost_race_steals, 1);
                }
            }
        }
        None
    }

    /// Execute a job with timing, feeding the emulated-DVFS accountant.
    ///
    /// # Safety
    ///
    /// `job` must be executed exactly once across all threads.
    unsafe fn execute(&self, w: usize, job: JobRef) {
        // Publish the Busy/Stealing lifecycle edges (one relaxed store
        // each) only when an elastic policy is watching them.
        if let Some(el) = &self.elastic {
            el.set_state(w, WorkerState::Busy);
        }
        if let Some(emu) = &self.emu {
            emu.begin_busy(w);
        }
        let t0 = Instant::now();
        // SAFETY: single-execution obligation forwarded to the caller.
        unsafe { job.execute() };
        let elapsed = t0.elapsed();
        if let Some(emu) = &self.emu {
            let charge = emu.account_and_dilate(w, elapsed);
            self.record_power(w, PowerKind::Busy, charge);
        }
        let counters = self.counters.worker(w);
        add(&counters.busy_ns, elapsed.as_nanos() as u64);
        add(&counters.tasks, 1);
        if let Some(el) = &self.elastic {
            el.set_state(w, WorkerState::Stealing);
        }
    }

    /// The join resolution loop: keep the worker useful until `latch`.
    fn join_on<A, B, RA, RB>(&self, w: usize, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b);
        // SAFETY: this frame blocks (while helping) until job_b's latch is
        // set, so the pointer stays valid; the ref is executed once —
        // either by a thief, or inline below after popping it back.
        let ref_b = unsafe { job_b.as_job_ref() };
        if self.push_job(w, ref_b).is_err() {
            // Deque full: degrade to sequential execution.
            add(&self.counters.worker(w).inline_fallbacks, 1);
            // SAFETY: run_inline consumes the closure; ref_b was never
            // made visible to other workers.
            let rb = unsafe { job_b.run_inline() };
            let ra = a();
            return (ra, rb);
        }
        let ra = a();
        // Resolve b: pop back (fast path), help with other work, or steal.
        let mut rng = SmallRng::seed_from_u64(w as u64 ^ 0x9e37_79b9);
        let mut order = Vec::new();
        loop {
            if job_b.latch.probe() {
                // SAFETY: latch set implies the thief wrote the result.
                let rb = unsafe { job_b.take_result() };
                return (ra, rb);
            }
            if let Some(job) = self.pop_job(w) {
                if job == ref_b {
                    // SAFETY: we popped the unique ref; nobody else has it.
                    let rb = unsafe { job_b.run_inline() };
                    return (ra, rb);
                }
                // Another pending task (e.g. a scope spawn): help.
                // SAFETY: popped jobs are executed exactly once.
                unsafe { self.execute(w, job) };
                continue;
            }
            // Own deque empty: leapfrog by stealing.
            if let Some(job) = self.steal_job(w, &mut rng, &mut order) {
                // SAFETY: stolen jobs are executed exactly once.
                unsafe { self.execute(w, job) };
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Coalesced spin-power accounting for one idle segment. Per-iteration
/// slices are billed to the nanojoule meter as they happen (so a tempo
/// actuation moves the billed power within one sweep+yield), but
/// emitting a [`Event::PowerInterval`] per slice would flood the rings
/// with microsecond-scale events; the slices accumulate here and flush
/// as a single average-power interval when the segment closes (work
/// arrives, the worker parks, or the pool shuts down).
#[derive(Default)]
struct SpinAccum {
    ns: u64,
    /// Picojoules (Σ slice mW × ns), so the flushed interval's energy
    /// matches the meter charges it coalesces.
    pj: u64,
}

/// Flush an open spin segment past this span so the emitted interval
/// never saturates the event encoding's 38-bit duration field.
const SPIN_FLUSH_NS: u64 = 1 << 37; // ~137 s

impl SpinAccum {
    fn add(&mut self, charge: PowerCharge) {
        self.ns += charge.duration_ns;
        self.pj += charge.duration_ns * charge.milliwatts;
    }

    fn flush(&mut self, inner: &PoolInner, index: usize) {
        if self.ns == 0 {
            return;
        }
        let milliwatts = (self.pj + self.ns / 2) / self.ns;
        inner.record_power(
            index,
            PowerKind::Spin,
            PowerCharge {
                duration_ns: self.ns,
                milliwatts,
            },
        );
        *self = SpinAccum::default();
    }
}

/// Close an idle-spin accounting segment: charge the span since
/// `idle_since` to the energy model as spinning time and flush the
/// segment's coalesced power interval.
fn charge_idle_spin(
    inner: &PoolInner,
    index: usize,
    idle_since: &mut Option<Instant>,
    spin: &mut SpinAccum,
) {
    if let (Some(t0), Some(emu)) = (idle_since.take(), inner.emu.as_ref()) {
        spin.add(emu.account_idle_spin(index, t0.elapsed()));
    }
    spin.flush(inner, index);
}

fn worker_main(inner: &Arc<PoolInner>, index: usize) {
    set_current_worker(inner, index);
    let mut rng = SmallRng::seed_from_u64(index as u64 ^ 0x5851_f42d);
    let mut order = Vec::new();
    let mut idle_spins = 0u32;
    // Start of the current idle-spin segment, for energy attribution
    // (tracked only when the pool runs the emulated power model).
    let mut idle_since: Option<Instant> = None;
    let mut spin = SpinAccum::default();
    loop {
        // Local work first — the work-first discipline of §2.
        if let Some(job) = inner.pop_job(index) {
            charge_idle_spin(inner, index, &mut idle_since, &mut spin);
            // SAFETY: popped jobs execute exactly once.
            unsafe { inner.execute(index, job) };
            idle_spins = 0;
            continue;
        }
        // External admission next: the injector cells sit between the
        // local pop and the steal sweep, so a worker prefers fresh
        // requests over raiding a peer's deque (stealing moves work
        // that a busy worker would have run anyway; an injected task
        // has no other path in) while never starving its own subtree.
        // Cells are polled nearest-first — the worker's own clock
        // domain's cell, then cross-domain in steal-distance order —
        // so locality-hinted work stays local while nothing anywhere
        // is stranded.
        if let Some(job) = inner.pop_injected(index) {
            charge_idle_spin(inner, index, &mut idle_since, &mut spin);
            // SAFETY: the injector hands each job to exactly one popper.
            unsafe { inner.execute(index, job) };
            idle_spins = 0;
            continue;
        }
        if let Some(job) = inner.steal_job(index, &mut rng, &mut order) {
            charge_idle_spin(inner, index, &mut idle_since, &mut spin);
            // SAFETY: stolen jobs execute exactly once.
            unsafe { inner.execute(index, job) };
            idle_spins = 0;
            continue;
        }
        if inner.terminate.load(Ordering::SeqCst) {
            break;
        }
        // Close the previous idle slice and open a new one every
        // iteration: tempo actuations (relays, procrastinations) move
        // this worker's frequency *while it spins*, and spin power
        // follows the frequency in force during the slice, not the one
        // sampled when work finally arrives. Per-iteration slices bound
        // the attribution error to a single sweep+yield; the slices
        // coalesce into `spin` and surface as one interval per segment.
        if let Some(emu) = inner.emu.as_ref() {
            let now = Instant::now();
            if let Some(t0) = idle_since.replace(now) {
                spin.add(emu.account_idle_spin(index, now.duration_since(t0)));
                if spin.ns >= SPIN_FLUSH_NS {
                    spin.flush(inner, index);
                }
            }
        }
        // Saturate: with parking disabled the counter is never reset
        // while idle, and a long-idle debug build must not overflow.
        idle_spins = idle_spins.saturating_add(1);
        // An elastic policy can block a worker (by sleeping it) even
        // with parking disabled; without one, parking-off keeps the
        // legacy spin-forever shape.
        let can_block = inner.parking || inner.elastic.is_some();
        if !can_block || idle_spins < inner.spin_budget.max(1) {
            std::thread::yield_now();
        } else {
            // Spin budget exhausted: account the spin segment, then
            // block — elastic sleep, or a park until work or
            // termination (parked/slept time is accounted separately,
            // at park watts). The spent spin budget doubles as the
            // failed-sweep evidence the scale controller wants.
            charge_idle_spin(inner, index, &mut idle_since, &mut spin);
            inner.idle_block(index, u64::from(idle_spins));
            idle_spins = 0;
        }
    }
    charge_idle_spin(inner, index, &mut idle_since, &mut spin);
    clear_current_worker();
}

// ---------------------------------------------------------------------
// Thread-local worker context

thread_local! {
    /// The calling worker's pool and index, set for the whole of
    /// `worker_main` (whose own `Arc` it mirrors) and `None` elsewhere.
    static CURRENT: RefCell<Option<(Arc<PoolInner>, usize)>> = const { RefCell::new(None) };
}

fn set_current_worker(inner: &Arc<PoolInner>, index: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(inner), index)));
}

fn clear_current_worker() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Run `f` on the calling worker's pool and index (`None` off-pool),
/// borrowed from the thread-local: `join` runs on every fork, and a
/// borrow keeps it off the pool's shared reference count, a contended
/// read-modify-write per clone and per drop.
fn with_current_worker<R>(f: impl FnOnce(Option<(&PoolInner, usize)>) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some((pool, w)) => f(Some((pool, *w))),
        None => f(None),
    })
}

/// Index of the calling thread within its pool, if the caller is a
/// worker thread. Serving layers use this to attribute per-request
/// telemetry (e.g. completion latencies) to the worker stream that ran
/// the request; non-worker threads get `None` and attribute to the
/// machine stream.
#[must_use]
pub fn current_worker_index() -> Option<usize> {
    with_current_worker(|cur| cur.map(|(_, w)| w))
}

/// Emulated energy consumed so far by the worker running the calling
/// thread, in nanojoules — `None` off-pool or when the worker's pool
/// has no emulated DVFS. The free-function sibling of
/// [`Pool::current_worker_energy_nj`] for code (like a request closure)
/// that executes on a worker without holding the pool handle: read once
/// on entry, once on exit, and the difference is the energy this worker
/// spent inside the bracket.
#[must_use]
pub fn current_worker_energy_nj() -> Option<u64> {
    with_current_worker(|cur| {
        let (inner, index) = cur?;
        inner.emu.as_ref().map(|emu| emu.worker_energy_nj(index))
    })
}

// ---------------------------------------------------------------------
// Free functions usable inside `Pool::install`

/// Run two closures, potentially in parallel, returning both results.
///
/// Inside a pool, `b` is pushed onto the calling worker's deque (where a
/// thief may steal it) while the caller runs `a` — the work-first
/// discipline of §2. Outside any pool, runs sequentially.
///
/// ```
/// use hermes_rt::{join, Pool};
/// let pool = Pool::new(2);
/// let (a, b) = pool.install(|| join(|| 2 + 2, || 3 * 3));
/// assert_eq!((a, b), (4, 9));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    with_current_worker(|cur| match cur {
        Some((pool, w)) => pool.join_on(w, a, b),
        None => (a(), b()),
    })
}

/// Apply `f` to every element of `data` in parallel, recursively splitting
/// down to `grain`-sized chunks via [`join`].
///
/// ```
/// use hermes_rt::{parallel_for, Pool};
/// let pool = Pool::new(2);
/// let mut v: Vec<u64> = (0..1000).collect();
/// pool.install(|| parallel_for(&mut v, 64, |x| *x *= 2));
/// assert_eq!(v[10], 20);
/// ```
pub fn parallel_for<T, F>(data: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    parallel_chunks(data, grain, &|chunk| {
        for item in chunk {
            f(item);
        }
    });
}

/// Apply `f` to disjoint chunks of `data` (each at most `grain` long) in
/// parallel. The chunk-level sibling of [`parallel_for`].
pub fn parallel_chunks<T, F>(data: &mut [T], grain: usize, f: &F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    let grain = grain.max(1);
    if data.len() <= grain {
        f(data);
        return;
    }
    let mid = data.len() / 2;
    let (left, right) = data.split_at_mut(mid);
    join(
        || parallel_chunks(left, grain, f),
        || parallel_chunks(right, grain, f),
    );
}

/// Compute `f(i)` for `i` in `0..n` in parallel and reduce the results
/// with `reduce`, returning `identity` for an empty range.
pub fn parallel_map_reduce<R, F, G>(n: usize, grain: usize, identity: R, f: &F, reduce: &G) -> R
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    G: Fn(R, R) -> R + Sync,
{
    fn go<R, F, G>(lo: usize, hi: usize, grain: usize, f: &F, reduce: &G) -> Option<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        G: Fn(R, R) -> R + Sync,
    {
        if hi - lo <= grain {
            let mut acc: Option<R> = None;
            for i in lo..hi {
                let v = f(i);
                acc = Some(match acc {
                    None => v,
                    Some(a) => reduce(a, v),
                });
            }
            return acc;
        }
        let mid = lo + (hi - lo) / 2;
        let (l, r) = join(
            || go(lo, mid, grain, f, reduce),
            || go(mid, hi, grain, f, reduce),
        );
        match (l, r) {
            (Some(a), Some(b)) => Some(reduce(a, b)),
            (x, None) => x,
            (None, y) => y,
        }
    }
    let grain = grain.max(1);
    go(0, n, grain, f, reduce).unwrap_or(identity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_and_returns() {
        let pool = Pool::new(2);
        assert_eq!(pool.install(|| 21 * 2), 42);
        pool.shutdown();
    }

    #[test]
    fn join_computes_both_sides() {
        let pool = Pool::new(4);
        let (a, b) = pool.install(|| join(|| 1 + 1, || 2 + 2));
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn join_outside_pool_is_sequential() {
        let (a, b) = join(|| 5, || 6);
        assert_eq!((a, b), (5, 6));
    }

    #[test]
    fn nested_joins_compute_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = Pool::new(4);
        assert_eq!(pool.install(|| fib(18)), 2584);
        assert!(pool.stats().pushes > 0);
    }

    #[test]
    fn parallel_for_touches_every_element() {
        let pool = Pool::new(4);
        let mut v = vec![1u64; 10_000];
        pool.install(|| parallel_for(&mut v, 128, |x| *x += 1));
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn parallel_map_reduce_sums() {
        let pool = Pool::new(4);
        let total =
            pool.install(|| parallel_map_reduce(1001, 32, 0u64, &|i| i as u64, &|a, b| a + b));
        assert_eq!(total, 500_500);
    }

    #[test]
    fn parallel_map_reduce_empty_range_yields_identity() {
        let pool = Pool::new(2);
        let total = pool.install(|| parallel_map_reduce(0, 8, 7u64, &|i| i as u64, &|a, b| a + b));
        assert_eq!(total, 7);
    }

    #[test]
    fn spawn_runs_static_tasks() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::new(2);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::SeqCst) != 16 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    use crate::latch::WakerLatch;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll, Waker};

    /// Self-wakes on its first `yields` polls (exercising the
    /// RUNNING→NOTIFIED→re-queue path), then completes `latch`.
    struct YieldThenSet {
        yields: u32,
        latch: Arc<WakerLatch>,
    }

    impl Future for YieldThenSet {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yields > 0 {
                self.yields -= 1;
                cx.waker().wake_by_ref();
                return Poll::Pending;
            }
            self.latch.set();
            Poll::Ready(())
        }
    }

    #[test]
    fn spawn_future_completes_ready_future() {
        let pool = Pool::new(2);
        let latch = Arc::new(WakerLatch::new());
        pool.spawn_future(YieldThenSet {
            yields: 0,
            latch: Arc::clone(&latch),
        });
        latch.wait();
        assert_eq!(pool.stats().future_polls, 1);
    }

    #[test]
    fn self_waking_futures_are_repolled_not_lost() {
        let pool = Pool::new(2);
        let latches: Vec<_> = (0..64).map(|_| Arc::new(WakerLatch::new())).collect();
        for l in &latches {
            pool.spawn_future(YieldThenSet {
                yields: 3,
                latch: Arc::clone(l),
            });
        }
        for l in &latches {
            l.wait();
        }
        let stats = pool.stats();
        // Each task: 4 polls (3 yields + completion), and each yield is
        // a wake that re-queues.
        assert_eq!(stats.future_polls, 64 * 4, "{stats:?}");
        assert_eq!(stats.future_repushes, 64 * 3, "{stats:?}");
        assert_eq!(stats.future_wakes, 64 * 3, "{stats:?}");
    }

    /// Parks its waker in a shared slot on the first poll; completes on
    /// the second.
    struct ExternalEvent {
        slot: Arc<parking_lot::Mutex<Option<Waker>>>,
        fired: Arc<AtomicBool>,
        latch: Arc<WakerLatch>,
    }

    impl Future for ExternalEvent {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.fired.load(Ordering::SeqCst) {
                self.latch.set();
                return Poll::Ready(());
            }
            *self.slot.lock() = Some(cx.waker().clone());
            // Decide-then-re-check: the event may have fired between the
            // load above and the waker store (the standard register/
            // re-probe pattern); without this, that wake is lost.
            if self.fired.load(Ordering::SeqCst) {
                self.latch.set();
                return Poll::Ready(());
            }
            Poll::Pending
        }
    }

    #[test]
    fn external_wake_restarts_a_parked_pool() {
        let pool = Pool::new(2);
        let slot = Arc::new(parking_lot::Mutex::new(None));
        let fired = Arc::new(AtomicBool::new(false));
        let latch = Arc::new(WakerLatch::new());
        pool.spawn_future(ExternalEvent {
            slot: Arc::clone(&slot),
            fired: Arc::clone(&fired),
            latch: Arc::clone(&latch),
        });
        // Wait until the first poll parked the waker, then let the pool
        // go fully idle (everyone parked) before firing the event from
        // this external thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while slot.lock().is_none() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        fired.store(true, Ordering::SeqCst);
        slot.lock()
            .take()
            .expect("first poll parked a waker")
            .wake();
        latch.wait();
        let stats = pool.stats();
        assert_eq!(stats.future_polls, 2, "{stats:?}");
        assert_eq!(stats.future_repushes, 1, "{stats:?}");
    }

    #[test]
    fn spawn_future_on_stopped_pool_releases_the_task() {
        struct DropFlag(Arc<AtomicBool>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let mut pool = Pool::new(1);
        pool.stop();
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = DropFlag(Arc::clone(&dropped));
        let polled = Arc::new(AtomicBool::new(false));
        let polled2 = Arc::clone(&polled);
        pool.spawn_future(async move {
            let _keep = &flag;
            polled2.store(true, Ordering::SeqCst);
        });
        assert!(dropped.load(Ordering::SeqCst), "task freed, not leaked");
        assert!(
            !polled.load(Ordering::SeqCst),
            "stopped pools never run tasks"
        );
    }

    #[test]
    fn future_telemetry_agrees_with_counters() {
        use hermes_telemetry::RingSink;
        let sink = Arc::new(RingSink::new(2));
        let mut pool = Pool::builder()
            .workers(2)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        let latches: Vec<_> = (0..32).map(|_| Arc::new(WakerLatch::new())).collect();
        for l in &latches {
            pool.spawn_future(YieldThenSet {
                yields: 2,
                latch: Arc::clone(l),
            });
        }
        for l in &latches {
            l.wait();
        }
        pool.stop();
        let stats = pool.stats();
        let report = sink.report("rt-async-unit", "rt", 0.0, 0.0);
        let totals = report.totals();
        // Self-wakes all happen on worker threads, so every event lands
        // on a worker stream and the report must agree exactly.
        assert_eq!(totals.future_polls, stats.future_polls, "{stats:?}");
        assert_eq!(totals.future_wakes, stats.future_wakes, "{stats:?}");
        assert_eq!(totals.future_repushes, stats.future_repushes, "{stats:?}");
        assert_eq!(stats.future_polls, 32 * 3);
    }

    #[test]
    fn traced_futures_emit_balanced_spans() {
        use hermes_telemetry::RingSink;
        // Roomy rings: idle workers also record steal sweeps, and the
        // zero-drop assert below needs the whole timeline retained.
        let sink = Arc::new(RingSink::with_ring_capacity(2, 1 << 16));
        let mut pool = Pool::builder()
            .workers(2)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        let latches: Vec<_> = (0..16).map(|_| Arc::new(WakerLatch::new())).collect();
        for (i, l) in latches.iter().enumerate() {
            pool.spawn_future_traced(
                YieldThenSet {
                    yields: 2,
                    latch: Arc::clone(l),
                },
                i as u64 + 1,
            );
        }
        for l in &latches {
            l.wait();
        }
        pool.stop();
        let report = sink.report("span-unit", "rt", 0.0, 0.0);
        let totals = report.totals();
        // Per task: Queued begin/end per episode (3 episodes), Poll
        // begin/end per poll (3), ParkWait begin/end per self-wake race
        // (2) — every begin has exactly one end. The spawn-time Queued
        // begin is recorded on the submitting thread, which is not a
        // worker here, so it lands on the machine stream and is missing
        // from the per-worker totals.
        assert_eq!(totals.span_ends, 16 * (3 + 3 + 2), "{totals:?}");
        assert_eq!(totals.span_begins, totals.span_ends - 16, "{totals:?}");
        let machine_begins = sink
            .ring(hermes_telemetry::MACHINE_STREAM)
            .snapshot()
            .iter()
            .filter(|(_, e)| matches!(e, Event::SpanBegin { .. }))
            .count();
        assert_eq!(machine_begins, 16, "one spawn-time Queued begin per task");
        assert_eq!(totals.dropped_events, 0, "ring kept the whole trace");
        // Untraced spawns add no spans at all.
        let quiet = Arc::new(RingSink::new(2));
        let mut pool = Pool::builder()
            .workers(2)
            .telemetry(Arc::clone(&quiet) as Arc<dyn TelemetrySink>)
            .build();
        let latch = Arc::new(WakerLatch::new());
        pool.spawn_future(YieldThenSet {
            yields: 1,
            latch: Arc::clone(&latch),
        });
        latch.wait();
        pool.stop();
        assert_eq!(quiet.report("q", "rt", 0.0, 0.0).totals().span_begins, 0);
    }

    #[test]
    fn metrics_snapshot_is_live_on_an_untraced_pool() {
        // No telemetry sink: the counter blocks are always on.
        let mut pool = Pool::builder()
            .workers(2)
            .spin_budget(1)
            .elastic(ElasticConfig {
                cooldown_ns: 100_000,
                ..ElasticConfig::default()
            })
            .build();
        pool.install(|| {
            let mut v: Vec<u64> = (0..20_000).collect();
            parallel_for(&mut v, 64, spin_work);
        });
        // Mid-run (the pool is NOT stopped): counters become visible. A
        // worker counts a job just after running it, so `install` may
        // return a moment before its own job is counted.
        let deadline = Instant::now() + Duration::from_secs(10);
        let snap = loop {
            let snap = pool.metrics();
            if snap.tasks() > 0 && snap.busy_ns() > 0 {
                break snap;
            }
            assert!(Instant::now() < deadline, "counters never showed: {snap:?}");
            std::thread::yield_now();
        };
        assert_eq!(snap.workers.len(), 2);
        assert!(snap.at_ns > 0);
        let util = snap.utilization();
        assert!((0.0..=1.0).contains(&util), "{util}");
        // Counters are monotone across snapshots.
        pool.install(|| {
            let mut v: Vec<u64> = (0..20_000).collect();
            parallel_for(&mut v, 64, spin_work);
        });
        let later = pool.metrics();
        assert!(later.tasks() >= snap.tasks());
        assert!(later.busy_ns() >= snap.busy_ns());
        assert!(later.at_ns > snap.at_ns);
        // Idle long enough for parks or elastic sleeps to close, then
        // quiesce: a worker's parked time is its parks plus its sleeps.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().parked_ns + pool.stats().slept_ns == 0 {
            assert!(Instant::now() < deadline, "workers never blocked");
            std::thread::sleep(Duration::from_millis(5));
            pool.install(|| ());
        }
        pool.stop();
        let stats = pool.stats();
        let settled = pool.metrics();
        assert_eq!(settled.parked_ns(), stats.parked_ns + stats.slept_ns);
        assert!(settled.tasks() >= later.tasks());
    }

    #[test]
    fn untraced_elastic_pool_sees_busy_share_and_counts_like_a_traced_one() {
        use hermes_telemetry::RingSink;
        // A fixed workload: ROUNDS installs of one parallel_for each.
        // Joins per install are fixed by the data size and grain, so
        // pushes do not depend on the schedule; every pushed job leaves
        // its deque by one pop or one steal, and every install is one
        // injector pop. Only the pop/steal split is scheduling noise.
        const ROUNDS: usize = 10;
        let run = |sink: Option<Arc<dyn TelemetrySink>>| {
            let mut builder = Pool::builder().workers(2).elastic(ElasticConfig::default());
            if let Some(sink) = sink {
                builder = builder.telemetry(sink);
            }
            let mut pool = builder.build();
            let mut busy_share = 0;
            for _ in 0..ROUNDS {
                let mut v: Vec<u64> = (0..20_000).collect();
                pool.install(|| parallel_for(&mut v, 64, spin_work));
                busy_share = busy_share.max(pool.busy_share_permille());
            }
            pool.stop();
            (busy_share, pool.stats())
        };
        let (busy_share, untraced) = run(None);
        // The elastic controller and admission read this same window;
        // untraced, it is live, not 0.
        assert!(busy_share > 0, "{untraced:?}");
        let (_, traced) = run(Some(Arc::new(RingSink::new(2))));
        assert_eq!(untraced.pushes, traced.pushes);
        let taken = |s: RtStats| s.pops + s.steals + s.injector_pops;
        assert_eq!(taken(untraced), taken(traced));
        assert_eq!(taken(untraced), untraced.pushes + ROUNDS as u64);
        assert_eq!(untraced.inline_fallbacks, traced.inline_fallbacks);
    }

    /// Per-element work slow enough that a parallel region spans many OS
    /// scheduler ticks: on single-core hosts thieves only run when the
    /// victim is preempted mid-region, so fast regions finish steal-free.
    fn spin_work(x: &mut u64) {
        let mut acc = *x;
        for _ in 0..2_000 {
            acc = std::hint::black_box(acc.wrapping_mul(2654435761).rotate_left(7));
        }
        *x = acc;
    }

    #[test]
    fn steals_happen_under_load() {
        let pool = Pool::new(4);
        // Retry a few regions: with one core, whether a thief wins a chunk
        // depends on preemption timing within each region.
        for _ in 0..20 {
            let mut v: Vec<u64> = (0..20_000).collect();
            pool.install(|| parallel_for(&mut v, 64, spin_work));
            if pool.stats().steals > 0 {
                break;
            }
        }
        assert!(
            pool.stats().steals > 0,
            "4 workers over 300+ slow chunks should steal: {:?}",
            pool.stats()
        );
    }

    #[test]
    fn tempo_controller_sees_scheduler_events() {
        let tempo = TempoConfig::builder()
            .policy(Policy::Unified)
            .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
            .workers(4)
            .build();
        let pool = Pool::builder()
            .workers(4)
            .tempo(tempo)
            .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
            .build();
        for _ in 0..20 {
            let mut v: Vec<u64> = (0..20_000).collect();
            pool.install(|| parallel_for(&mut v, 64, spin_work));
            if pool.tempo_stats().steals > 0 {
                break;
            }
        }
        let stats = pool.tempo_stats();
        assert!(stats.steals > 0, "steals observed: {stats}");
        assert!(stats.path_downs > 0, "thief procrastination fired: {stats}");
        assert!(pool.total_energy().unwrap() > 0.0);
    }

    /// The published hook windows lose no workload transition: with one
    /// worker (no steals, so the push/pop length sequence of a join tree
    /// is deterministic) and the profiler frozen, the pool's controller
    /// must count exactly what a fresh controller counts when every hook
    /// of that sequence runs under it.
    #[test]
    fn skipped_hooks_lose_no_transition() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        // join(fib(n-1), fib(n-2)) on one worker: push b, run a, pop b
        // back, run b inline. `len` is the deque length.
        fn replay(ctl: &mut TempoController, n: u64, len: &mut usize) {
            if n < 2 {
                return;
            }
            let mut act = hermes_core::NullActuator;
            *len += 1;
            ctl.on_push(WorkerId(0), *len, &mut act);
            replay(ctl, n - 1, len);
            *len -= 1;
            ctl.on_pop(WorkerId(0), *len, &mut act);
            replay(ctl, n - 2, len);
        }
        let tempo = TempoConfig::builder()
            .policy(Policy::Unified)
            .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
            .workers(1)
            .profiler(hermes_core::ProfilerConfig {
                period_ns: u64::MAX,
                ..hermes_core::ProfilerConfig::default()
            })
            .build();
        let mut model = TempoController::new(tempo.clone());
        let pool = Pool::builder().workers(1).tempo(tempo).build();
        let mut len = 0;
        for _ in 0..4 {
            assert_eq!(pool.install(|| fib(15)), 610);
            replay(&mut model, 15, &mut len);
            assert_eq!(len, 0);
        }
        let (got, want) = (pool.tempo_stats(), model.stats());
        assert!(want.workload_ups > 0 && want.workload_downs > 0, "{want}");
        assert_eq!(got.workload_ups, want.workload_ups, "{got} vs {want}");
        assert_eq!(got.workload_downs, want.workload_downs, "{got} vs {want}");
        assert_eq!(got.guard_suppressions, want.guard_suppressions);
    }

    #[test]
    fn telemetry_report_agrees_with_scheduler_counters() {
        use hermes_telemetry::RingSink;
        let sink = Arc::new(RingSink::new(4));
        let tempo = TempoConfig::builder()
            .policy(Policy::Unified)
            .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
            .workers(4)
            .build();
        let mut pool = Pool::builder()
            .workers(4)
            .tempo(tempo)
            .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        for _ in 0..20 {
            let mut v: Vec<u64> = (0..20_000).collect();
            pool.install(|| parallel_for(&mut v, 64, spin_work));
            if pool.stats().steals > 0 {
                break;
            }
        }
        // Freeze the world: without this, idle workers keep recording
        // empty steal sweeps between the stats snapshot and the report
        // fold, and the equality asserts below would race.
        pool.stop();
        pool.flush_energy_telemetry();
        let stats = pool.stats();
        let elapsed = pool.elapsed_ns() as f64 / 1e9;
        let energy = pool.total_energy().unwrap();
        let report = sink.report("rt-unit", "rt", elapsed, energy);
        let totals = report.totals();
        assert_eq!(totals.steals, stats.steals, "steal events == counters");
        assert_eq!(totals.empty_steals, stats.empty_steals);
        assert_eq!(totals.lost_race_steals, stats.lost_race_steals);
        assert!(totals.steals > 0, "the workload steals: {stats:?}");
        // Every steal procrastinates the thief under the unified policy.
        assert_eq!(report.transition_mix().path_downs, totals.steals);
        // The steal matrix partitions the successful steals by victim.
        let matrix_total: u64 = report.steal_matrix.iter().flatten().sum();
        assert_eq!(matrix_total, totals.steals);
        for w in 0..4 {
            assert_eq!(report.steal_matrix[w][w], 0, "no self-steals");
            let row: u64 = report.steal_matrix[w].iter().sum();
            assert_eq!(row, report.per_worker[w].steals);
        }
        // Energy flushed once: per-worker samples sum to the pool total.
        assert!((totals.energy_j - energy).abs() <= energy * 0.01 + 1e-6);
        // Actuation events mirror the controller's actuation counter.
        assert_eq!(
            totals.actuations,
            pool.tempo_stats().actuations + 4,
            "one bootstrap actuation per worker plus level changes"
        );
        // And the report survives its own JSON codec.
        let parsed = hermes_telemetry::RunReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn power_intervals_close_against_the_meter() {
        use hermes_telemetry::RingSink;
        let sink = Arc::new(RingSink::with_ring_capacity(2, 1 << 14));
        // Budget 8: slices span several yields, so spin segments are
        // microseconds (a budget of 1 can quantize to 0 ns on coarse
        // clocks) while parks still happen well inside the sleep below.
        let mut pool = Pool::builder()
            .workers(2)
            .spin_budget(8)
            .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        let mut v: Vec<u64> = (0..20_000).collect();
        pool.install(|| parallel_for(&mut v, 64, spin_work));
        // Idle long enough to cross spin *and* park accounting. The
        // workers' dilation spins can outlive `install` returning (the
        // dilation runs after the job body), and a parked worker bumps
        // the park counter only when *woken* — so sleep, wake with a
        // trivial install, and repeat until a full park episode landed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().parks == 0 {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::sleep(Duration::from_millis(20));
            pool.install(|| ());
        }
        pool.stop();
        pool.flush_energy_telemetry();
        let meter = pool.total_energy().unwrap();
        let report = sink.report("power-unit", "rt", pool.elapsed_ns() as f64 / 1e9, meter);
        let totals = report.totals();
        // Worker attribution is live while a frozen pool still answers
        // its own meter; off-pool threads see None.
        assert_eq!(pool.current_worker_energy_nj(), None);
        // Every watts-class saw time: tasks ran, workers spun between
        // sweeps, and the sleep above forced park episodes.
        assert!(totals.power_busy_ns > 0, "{totals:?}");
        assert!(totals.power_spin_ns > 0, "{totals:?}");
        assert!(totals.power_parked_ns > 0, "{totals:?}");
        // Closure: the per-kind interval integrals rebuild the meter.
        // Tolerance covers mW rounding (~1e-3) plus one spin slice per
        // worker whose segment was still open when `stop()` tore down
        // the loop (flushed by the final charge, so it is tighter in
        // practice).
        let intervals = totals.power_busy_j + totals.power_spin_j + totals.power_parked_j;
        assert!(meter > 0.0);
        assert!(
            (intervals - meter).abs() <= meter * 0.01,
            "interval sum {intervals} vs meter {meter}"
        );
        // Nothing was dropped at this capacity, so the fold is exact.
        assert_eq!(sink.dropped_events(), 0);
    }

    #[test]
    fn pool_without_sink_records_nothing_and_flush_is_noop() {
        let pool = Pool::new(2);
        pool.install(|| ());
        pool.flush_energy_telemetry(); // no sink, no emu: must not panic
        assert!(pool.stats().pushes == 0 || pool.stats().pops > 0);
    }

    #[test]
    fn lock_free_deque_pool_works() {
        let pool = Pool::builder()
            .workers(4)
            .deque(DequeKind::LockFree)
            .build();
        let mut v = vec![0u8; 50_000];
        pool.install(|| parallel_for(&mut v, 64, |x| *x = 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn tiny_deque_falls_back_inline() {
        let pool = Pool::builder().workers(2).deque_capacity(2).build();
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(pool.install(|| fib(15)), 610);
        assert!(
            pool.stats().inline_fallbacks > 0,
            "capacity-2 deques must overflow on fib(15): {:?}",
            pool.stats()
        );
    }

    #[test]
    fn install_from_worker_runs_directly() {
        let pool = Pool::new(2);
        let out = pool.install(|| 1 + 1);
        assert_eq!(out, 2);
        // Nested install through the public API would need a second pool;
        // the same-pool fast path is exercised via join + install inside.
    }

    #[test]
    fn topology_and_victim_policy_are_configurable() {
        for victim in VictimPolicy::all() {
            let pool = Pool::builder()
                .workers(4)
                .topology(Topology::system_b())
                .victim_policy(victim)
                .build();
            assert_eq!(pool.victim_policy_name(), victim.label());
            // 4 workers on System B sit on distinct clock domains: the
            // distance matrix is 0 on the diagonal, 2 elsewhere.
            let d = pool.worker_distances();
            for (i, row) in d.iter().enumerate() {
                for (j, &dist) in row.iter().enumerate() {
                    assert_eq!(dist, if i == j { 0 } else { 2 });
                }
            }
            let mut v = vec![1u64; 20_000];
            pool.install(|| parallel_for(&mut v, 64, |x| *x += 1));
            assert!(v.iter().all(|&x| x == 2), "{victim} pool computes");
        }
        // 8 workers exceed System B's 4 domains: dense placement, domain
        // siblings at distance 1.
        let pool = Pool::builder()
            .workers(8)
            .topology(Topology::system_b())
            .build();
        assert_eq!(pool.worker_distances()[0][1], 1);
        assert_eq!(pool.worker_distances()[0][2], 2);
    }

    #[test]
    #[should_panic(expected = "topology has 2 cores")]
    fn too_small_topology_panics() {
        let _ = Pool::builder()
            .workers(4)
            .topology(Topology::flat(2))
            .build();
    }

    #[test]
    fn spin_budget_controls_time_to_park() {
        // A tiny spin budget parks an idle worker almost immediately…
        let mut eager = Pool::builder().workers(2).spin_budget(1).build();
        std::thread::sleep(Duration::from_millis(40));
        eager.stop();
        assert!(eager.stats().parks > 0, "{:?}", eager.stats());
        assert!(eager.stats().parked_ns > 0);
        // …while an effectively unbounded budget never parks within the
        // same window (4 billion yields do not fit in 40 ms).
        let mut reluctant = Pool::builder().workers(2).spin_budget(u32::MAX).build();
        std::thread::sleep(Duration::from_millis(40));
        reluctant.stop();
        assert_eq!(reluctant.stats().parks, 0, "{:?}", reluctant.stats());
    }

    #[test]
    fn parking_disabled_spins_forever() {
        let mut pool = Pool::builder()
            .workers(2)
            .parking(false)
            .spin_budget(1)
            .build();
        std::thread::sleep(Duration::from_millis(40));
        pool.stop();
        assert_eq!(pool.stats().parks, 0);
        assert_eq!(pool.stats().parked_ns, 0);
    }

    #[test]
    fn parked_workers_wake_for_submitted_work() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::builder().workers(2).spin_budget(1).build();
        // Let both workers park.
        std::thread::sleep(Duration::from_millis(30));
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::SeqCst) != 8 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 8, "parked pool must wake");
        // And a blocking install still round-trips through the injector.
        assert_eq!(pool.install(|| 6 * 7), 42);
    }

    #[test]
    fn tiny_injector_applies_backpressure_without_loss() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::builder()
            .workers(2)
            .spin_budget(1)
            .injector_capacity(2)
            .build();
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            // Each spawn may have to wait for the 2-slot injector to
            // drain; none may be dropped.
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) != 50 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 50);
        assert!(pool.stats().injector_pops >= 50);
        // The merged counter is definitionally the sum of the per-cell
        // counters: both are bumped at the same pop site.
        let per_cell: u64 = pool.injector_cell_pops().iter().sum();
        assert_eq!(per_cell, pool.stats().injector_pops);
    }

    #[test]
    fn cell_order_prefers_own_domain_then_distance() {
        // Dense placement on a 2-domain topology: 8 workers on 8 cores,
        // 4 cores per clock domain. Workers 0..4 sit on domain 0,
        // workers 4..8 on domain 1.
        let topo = Topology::uniform(8, 4, 2);
        assert_eq!(topo.domains(), 2);
        let pool = Pool::builder().workers(8).topology(topo.clone()).build();
        assert_eq!(pool.injector_cells(), 2);
        // Every worker polls its own domain's cell first, then the
        // farther one — never the reverse.
        for w in 0..8 {
            let own = if w < 4 { 0 } else { 1 };
            assert_eq!(
                pool.inner.cell_order[w],
                vec![own, 1 - own],
                "worker {w} drains its own cell before the farther one"
            );
            assert_eq!(pool.inner.worker_cell[w], own);
        }
        // The pure ordering function agrees on a bigger machine: from
        // core 0 of System A, domain 0 comes first and every domain in
        // package 0 precedes every domain in package 1.
        let sys_a = Topology::system_a();
        let order = injector_cell_order(&sys_a, CoreId(0));
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), sys_a.domains());
        let pos = |d: usize| order.iter().position(|&x| x == d).unwrap();
        for near in 0..8 {
            for far in 8..16 {
                assert!(
                    pos(near) < pos(far),
                    "same-package domain {near} must precede cross-package {far}"
                );
            }
        }
    }

    #[test]
    fn hinted_submits_land_in_hinted_cells_and_pops_reconcile() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::builder()
            .workers(8)
            .topology(Topology::uniform(8, 4, 2))
            .build();
        let hits = Arc::new(AtomicU32::new(0));
        const N: u32 = 40;
        for i in 0..N {
            let hits = Arc::clone(&hits);
            pool.spawn_with(
                move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                },
                SpawnOptions::default().domain_hint((i % 2) as usize),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) != N && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), N);
        // A hinted submit is pushed to (and therefore popped from) the
        // hinted cell — the steal sweep never touches injector cells.
        let pops = pool.injector_cell_pops();
        assert_eq!(pops.len(), 2);
        assert!(pops[0] >= u64::from(N / 2), "{pops:?}");
        assert!(pops[1] >= u64::from(N / 2), "{pops:?}");
        // Per-cell counters reconcile exactly with the merged legacy
        // counter, and the live metrics expose per-cell depths.
        assert_eq!(pops.iter().sum::<u64>(), pool.stats().injector_pops);
        // Depths are visible per cell too (all drained by now).
        let depths = pool.injector_cell_depths();
        assert_eq!(depths.len(), 2);
        assert_eq!(depths.iter().sum::<usize>(), 0);
    }

    #[test]
    fn request_classes_all_execute() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::new(4);
        let hits = Arc::new(AtomicU32::new(0));
        let classes = [
            SpawnOptions::default().priority(Priority::High),
            SpawnOptions::default(),
            SpawnOptions::default().deadline_ns(1),
            SpawnOptions::default().priority(Priority::Background),
        ];
        for opts in classes {
            for _ in 0..25 {
                let hits = Arc::clone(&hits);
                pool.spawn_with(
                    move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    },
                    opts,
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) != 100 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            hits.load(Ordering::SeqCst),
            100,
            "every class drains; lower lanes are not starved once higher lanes empty"
        );
    }

    #[test]
    fn park_telemetry_matches_scheduler_counters() {
        use hermes_telemetry::RingSink;
        let sink = Arc::new(RingSink::new(2));
        let mut pool = Pool::builder()
            .workers(2)
            .spin_budget(1)
            .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        pool.install(|| ());
        // Idle long enough for several park episodes.
        std::thread::sleep(Duration::from_millis(50));
        pool.stop();
        let stats = pool.stats();
        assert!(stats.parks > 0, "{stats:?}");
        let report = sink.report("park-unit", "rt", pool.elapsed_ns() as f64 / 1e9, 0.0);
        let totals = report.totals();
        assert_eq!(totals.parks, stats.parks, "park events == counters");
        assert_eq!(totals.parked_ns, stats.parked_ns);
        // Idle time (spin before the budget, then parked) was charged
        // to the virtual energy model even though no task ran for most
        // of the window.
        assert!(pool.total_energy().unwrap() > 0.0);
    }

    #[test]
    fn elastic_pool_scales_down_to_the_sentinel_and_back_up() {
        use std::sync::atomic::AtomicU32;
        let mut pool = Pool::builder()
            .workers(4)
            .spin_budget(1)
            .elastic(ElasticConfig {
                cooldown_ns: 100_000,
                ..ElasticConfig::default()
            })
            .build();
        // Idle: the scale controller sheds workers one cooldown at a
        // time until only the sentinel is awake.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.active_workers() > 1 {
            assert!(
                Instant::now() < deadline,
                "pool never scaled down: {} still awake",
                pool.active_workers()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.active_workers(), 1, "the sentinel never sleeps");
        let states = pool.worker_states().expect("elastic pool exposes states");
        assert_eq!(
            states
                .iter()
                .filter(|s| **s == WorkerState::Sleeping)
                .count(),
            3
        );
        // Load: every task completes (the sentinel and the wake signal
        // between them guarantee it), no work is lost to a sleeper.
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) != 64 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 64, "scaled-down pool serves");
        pool.stop();
        let stats = pool.stats();
        assert!(stats.sleeps > 0, "{stats:?}");
        assert!(stats.slept_ns > 0, "{stats:?}");
        // Quiescent: every sleep bracket was closed by exactly one wake
        // (shutdown wakes included), and shutdown left everyone awake.
        assert_eq!(stats.wakes, stats.sleeps, "{stats:?}");
        assert_eq!(pool.active_workers(), 4);
    }

    #[test]
    fn sleep_telemetry_matches_scheduler_counters() {
        use hermes_telemetry::RingSink;
        let sink = Arc::new(RingSink::new(2));
        let mut pool = Pool::builder()
            .workers(2)
            .spin_budget(1)
            .elastic(ElasticConfig {
                cooldown_ns: 100_000,
                ..ElasticConfig::default()
            })
            .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        pool.install(|| ());
        // Idle long enough for a sleep episode to begin.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.active_workers() > 1 {
            assert!(Instant::now() < deadline, "no worker slept");
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.stop();
        let stats = pool.stats();
        assert!(stats.sleeps > 0, "{stats:?}");
        let report = sink.report("sleep-unit", "rt", pool.elapsed_ns() as f64 / 1e9, 0.0);
        let totals = report.totals();
        assert_eq!(totals.sleeps, stats.sleeps, "sleep events == counters");
        assert_eq!(totals.slept_ns, stats.slept_ns);
        assert_eq!(totals.wakes, stats.wakes);
        // Slept time is attributed to the power model at park watts.
        assert!(pool.total_energy().unwrap() > 0.0);
    }

    #[test]
    fn elastic_with_parking_disabled_still_sleeps() {
        let mut pool = Pool::builder()
            .workers(2)
            .parking(false)
            .spin_budget(1)
            .elastic(ElasticConfig {
                cooldown_ns: 100_000,
                ..ElasticConfig::default()
            })
            .build();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.active_workers() > 1 {
            assert!(Instant::now() < deadline, "no worker slept");
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.stop();
        // Elastic sleep is independent of the parking machinery: the
        // pool slept without a single park episode.
        assert_eq!(pool.stats().parks, 0, "{:?}", pool.stats());
        assert!(pool.stats().sleeps > 0);
    }

    #[test]
    fn two_pools_coexist() {
        let p1 = Pool::new(2);
        let p2 = Pool::new(2);
        let a = p1.install(|| 1);
        let b = p2.install(|| 2);
        assert_eq!(a + b, 3);
    }

    #[test]
    fn shutdown_is_idempotent_through_drop() {
        let pool = Pool::new(2);
        pool.install(|| ());
        pool.shutdown(); // Drop after shutdown must not double-join.
    }
}
