//! The [`Server`]: external request admission over the rt [`Pool`].

use crate::ticket::{Outcome, ShedError, ShedReason, Ticket, TicketInner};
use hermes_core::TempoConfig;
use hermes_obs::{FlightDump, FlightRecorder};
use hermes_rt::{
    current_worker_energy_nj, current_worker_index, DequeKind, ElasticConfig, MetricsSnapshot,
    Pool, PoolBuilder, Priority, SpanPhase, SpawnOptions,
};
use hermes_telemetry::{Event, LatencyHistogram, LatencyRecorder, TelemetrySink, MACHINE_STREAM};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// How often the completion tail re-evaluates the rolling p99 against a
/// configured budget: every this-many completions. Amortizes the
/// histogram snapshot to noise while still catching a breach within one
/// batch of its onset.
const BREACH_CHECK_INTERVAL: u64 = 64;

/// Per-request submission options for
/// [`Server::submit_with`]/[`Server::submit_async_with`]: the request
/// class, an optional (relative) deadline, and an optional injector-cell
/// hint. `Default` is exactly the legacy [`Server::submit`] behaviour —
/// normal class, no deadline, automatic cell selection.
///
/// ```
/// use hermes_serve::{Priority, SubmitOptions};
/// use std::time::Duration;
/// let opts = SubmitOptions::default()
///     .priority(Priority::High)
///     .deadline(Duration::from_millis(5));
/// assert_eq!(opts.priority, Priority::High);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Request class (default [`Priority::Normal`]); decides both the
    /// admission rule applied and the injector drain lane.
    pub priority: Priority,
    /// Relative completion deadline. A deadline on a normal-class
    /// request routes it into the deadline lane (drained before plain
    /// normal work) — and lets admission refuse it up front when the
    /// live p99 says it cannot be met.
    pub deadline: Option<Duration>,
    /// Preferred injector cell, as a topology clock-domain index
    /// (taken modulo the cell count). `None` picks the least-loaded
    /// cell (or the submitting worker's own, for worker-originated
    /// submits).
    pub domain_hint: Option<usize>,
}

impl SubmitOptions {
    /// Set the request class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set a relative completion deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Prefer a specific injector cell (clock-domain index).
    #[must_use]
    pub fn domain_hint(mut self, domain: usize) -> Self {
        self.domain_hint = Some(domain);
        self
    }
}

/// The server's admission-control policy: the front-door capacity, the
/// load-shedding rules, and the overload observability hooks (p99
/// budget watch, flight recorder), grouped so one value describes how
/// the server behaves at and past saturation.
///
/// The shedding protocol itself is fixed (DESIGN.md §Serve): background
/// requests are refused once the pool's utilization estimate crosses
/// [`shed_utilization`](Self::shed_utilization); deadline-carrying
/// normal requests are refused when the rolling p99 already exceeds
/// their deadline; high-priority requests are *never* refused — their
/// protection is the [`p99_budget`](Self::p99_budget) watch plus the
/// shedding of everything below them.
#[derive(Default)]
pub struct AdmissionPolicy {
    injector_capacity: Option<usize>,
    shed_utilization: Option<f64>,
    flight: Option<FlightRecorder>,
    breach: Option<BreachWatch>,
}

/// Utilization estimate (permille) above which background requests are
/// shed, unless overridden by [`AdmissionPolicy::shed_utilization`].
const DEFAULT_SHED_UTILIZATION_PERMILLE: u32 = 900;

impl std::fmt::Debug for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPolicy")
            .field("injector_capacity", &self.injector_capacity)
            .field("shed_utilization", &self.shed_utilization)
            .field("flight", &self.flight.is_some())
            .field("p99_budget", &self.breach.is_some())
            .finish()
    }
}

impl AdmissionPolicy {
    /// Total capacity of the pool's sharded submission front door. See
    /// [`PoolBuilder::injector_capacity`].
    #[must_use]
    pub fn injector_capacity(mut self, capacity: usize) -> Self {
        self.injector_capacity = Some(capacity);
        self
    }

    /// Utilization estimate (0.0–1.0) above which background-class
    /// requests are shed (default 0.9). Clamped to the unit interval.
    #[must_use]
    pub fn shed_utilization(mut self, threshold: f64) -> Self {
        self.shed_utilization = Some(threshold.clamp(0.0, 1.0));
        self
    }

    /// Arm a one-shot p99 latency budget: once the server's rolling
    /// p99 exceeds `budget` (evaluated every few dozen completions),
    /// `callback` fires exactly once with a [`P99Breach`] — including
    /// the flight recorder's retained tail when one is attached. The
    /// callback runs on the worker that completed the triggering
    /// request, so it must be cheap and must not block.
    #[must_use]
    pub fn p99_budget<F>(mut self, budget: Duration, callback: F) -> Self
    where
        F: Fn(P99Breach) + Send + Sync + 'static,
    {
        self.breach = Some(BreachWatch {
            budget_ns: budget.as_nanos() as u64,
            fired: AtomicBool::new(false),
            callback: Box::new(callback),
        });
        self
    }

    /// Attach an always-on [`FlightRecorder`]: it becomes the server's
    /// telemetry sink (replacing any sink set before the policy is
    /// installed), keeps a bounded tail of every worker's events, and
    /// its [`dump`](FlightRecorder::dump) is wired into the two places
    /// a post-mortem matters — the `Ticket::wait`-on-worker deadlock
    /// panic, and the [`p99_budget`](Self::p99_budget) breach callback.
    /// To also fold full reports or export traces, build the recorder
    /// with [`FlightRecorder::around`] over your own
    /// [`RingSink`](hermes_telemetry::RingSink).
    #[must_use]
    pub fn flight_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.flight = Some(recorder);
        self
    }
}

/// What [`AdmissionPolicy::p99_budget`] hands the breach callback.
#[derive(Debug)]
pub struct P99Breach {
    /// The rolling 99th-percentile latency that crossed the budget, ns.
    pub p99_ns: u64,
    /// The configured budget, ns.
    pub budget_ns: u64,
    /// Requests completed when the breach was detected.
    pub completed: u64,
    /// The flight recorder's retained event tail at detection, when a
    /// recorder is attached ([`AdmissionPolicy::flight_recorder`]) — the
    /// recent scheduling history leading into the breach.
    pub dump: Option<FlightDump>,
}

/// The armed p99-budget watch: budget, one-shot latch, callback.
struct BreachWatch {
    budget_ns: u64,
    fired: AtomicBool,
    callback: Box<dyn Fn(P99Breach) + Send + Sync>,
}

/// State shared between the server handle and every in-flight request
/// closure or future.
struct ServeShared {
    submitted: AtomicU64,
    completed: AtomicU64,
    in_flight: AtomicU64,
    /// Requests refused by admission control (never admitted, never
    /// counted in `completed` or `in_flight`).
    shed: AtomicU64,
    latency: LatencyRecorder,
    /// Per-class latency recorders, indexed by `Priority as usize` —
    /// the per-tenant view the multi-class gates read (a merged p99
    /// says nothing about whether the high class held its budget).
    class_latency: [LatencyRecorder; 3],
    /// Per-request energy samples, µJ (same log-bucketed recorder as
    /// latency). Only fed when the pool runs under emulated DVFS.
    energy: LatencyRecorder,
    /// Utilization estimate (permille) above which background requests
    /// are shed.
    shed_threshold_permille: u32,
    /// Telemetry destination for [`Event::RequestLatency`] and the
    /// request-level span edges; `None` keeps the completion path free
    /// of event work.
    sink: Option<Arc<dyn TelemetrySink>>,
    /// Timestamp base for latency events (established at server build,
    /// a hair after the pool's own epoch).
    epoch: Instant,
    /// The pool's clock reading at `epoch`: serve-side events stamp
    /// `epoch_offset_ns + epoch.elapsed()` so they share the pool's
    /// timebase and interleave correctly with scheduler events.
    epoch_offset_ns: u64,
    /// Next request span id; ids are minted only when a sink is
    /// attached, starting at 1 (0 means untraced throughout the stack).
    next_span: AtomicU64,
    /// The always-on flight recorder, when attached.
    flight: Option<Arc<FlightRecorder>>,
    /// The p99 budget watch, when armed.
    breach: Option<BreachWatch>,
}

impl ServeShared {
    /// Now, on the pool's clock.
    fn pool_now_ns(&self) -> u64 {
        self.epoch_offset_ns + self.epoch.elapsed().as_nanos() as u64
    }

    /// Mint the next request span id, or 0 (untraced) without a sink.
    fn mint_span(&self) -> u64 {
        if self.sink.is_some() {
            self.next_span.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }

    /// Record one span edge for request `span` on the calling thread's
    /// stream (the submitting thread may be off-pool, landing on
    /// [`MACHINE_STREAM`]). No-op for untraced requests.
    fn record_span(&self, span: u64, begin: bool, phase: SpanPhase) {
        if span == 0 {
            return;
        }
        if let Some(sink) = &self.sink {
            let event = if begin {
                Event::SpanBegin { id: span, phase }
            } else {
                Event::SpanEnd { id: span, phase }
            };
            sink.record(
                current_worker_index().unwrap_or(MACHINE_STREAM),
                self.pool_now_ns(),
                event,
            );
        }
    }

    /// First half of the completion tail, run *before* the ticket
    /// resolves: latency record (merged and per-class) + telemetry
    /// event, the request's energy reading when one was measured,
    /// terminal span edge.
    fn record_completion(&self, span: u64, t0: Instant, energy_uj: Option<u64>, class: Priority) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.latency.record(ns);
        self.class_latency[class as usize].record(ns);
        if let Some(uj) = energy_uj {
            self.energy.record(uj);
        }
        if let Some(sink) = &self.sink {
            // Attribute to the worker that completed the request;
            // MACHINE_STREAM cannot occur in practice (requests run on
            // workers) but keeps the fallback total-preserving.
            let stream = current_worker_index().unwrap_or(MACHINE_STREAM);
            let now = self.pool_now_ns();
            sink.record(stream, now, Event::RequestLatency { ns });
            if let Some(uj) = energy_uj {
                sink.record(stream, now, Event::RequestEnergy { microjoules: uj });
            }
        }
        self.record_span(span, false, SpanPhase::Complete);
    }

    /// Second half, run *after* the ticket resolves: the counters
    /// `drain` watches, then the budget check.
    fn count_completion(&self) {
        let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.check_breach(completed);
    }

    /// Every [`BREACH_CHECK_INTERVAL`] completions, compare the rolling
    /// p99 against the armed budget; fire the callback at most once.
    fn check_breach(&self, completed: u64) {
        let Some(watch) = &self.breach else { return };
        if !completed.is_multiple_of(BREACH_CHECK_INTERVAL) || watch.fired.load(Ordering::Relaxed) {
            return;
        }
        let Some(p99_ns) = self.latency.snapshot().p99() else {
            return;
        };
        if p99_ns > watch.budget_ns && !watch.fired.swap(true, Ordering::SeqCst) {
            (watch.callback)(P99Breach {
                p99_ns,
                budget_ns: watch.budget_ns,
                completed,
                dump: self.flight.as_ref().map(|f| f.dump()),
            });
        }
    }
}

/// Builder for [`Server`]; a thin veneer over [`PoolBuilder`] exposing
/// the knobs the serving ablation sweeps, plus serving-only state.
#[derive(Default)]
pub struct ServerBuilder {
    workers: Option<usize>,
    tempo: Option<TempoConfig>,
    parking: Option<bool>,
    spin_budget: Option<u32>,
    deque: DequeKind,
    elastic: Option<ElasticConfig>,
    emulated: Option<(hermes_core::Frequency, f64)>,
    telemetry: Option<Arc<dyn TelemetrySink>>,
    admission: AdmissionPolicy,
}

impl std::fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBuilder")
            .field("workers", &self.workers)
            .field("parking", &self.parking)
            .field("spin_budget", &self.spin_budget)
            .finish()
    }
}

impl ServerBuilder {
    /// Number of worker threads (default: available parallelism).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Tempo-control configuration (default: baseline, no tempo
    /// control). Its worker count must match the server's.
    #[must_use]
    pub fn tempo(mut self, tempo: TempoConfig) -> Self {
        self.tempo = Some(tempo);
        self
    }

    /// Enable or disable worker parking (default: enabled). See
    /// [`PoolBuilder::parking`].
    #[must_use]
    pub fn parking(mut self, on: bool) -> Self {
        self.parking = Some(on);
        self
    }

    /// Idle-spin budget before parking. See
    /// [`PoolBuilder::spin_budget`].
    #[must_use]
    pub fn spin_budget(mut self, budget: u32) -> Self {
        self.spin_budget = Some(budget);
        self
    }

    /// Install the server's [`AdmissionPolicy`]: front-door capacity,
    /// shed thresholds, p99 budget watch, flight recorder. Replaces any
    /// previously installed policy wholesale; a flight recorder in the
    /// policy also becomes the server's telemetry sink (replacing any
    /// sink set before this call).
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        if let Some(recorder) = &policy.flight {
            self.telemetry = Some(Arc::new(recorder.clone()) as Arc<dyn TelemetrySink>);
        }
        self.admission = policy;
        self
    }

    /// Deque implementation for the pool's workers.
    #[must_use]
    pub fn deque(mut self, kind: DequeKind) -> Self {
        self.deque = kind;
        self
    }

    /// Enable elastic worker-count scaling under load swings (default:
    /// off — the worker count is fixed). See [`PoolBuilder::elastic`]
    /// for the sentinel invariant and hysteresis semantics; composes
    /// with [`tempo`](Self::tempo) per the precedence rule in
    /// DESIGN.md §Elastic.
    #[must_use]
    pub fn elastic(mut self, cfg: ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Run the pool under emulated DVFS (timing dilation plus the
    /// virtual power model) so the server reports energy. See
    /// [`PoolBuilder::emulated_dvfs`].
    #[must_use]
    pub fn emulated_dvfs(mut self, fastest: hermes_core::Frequency, busy_watts_fast: f64) -> Self {
        self.emulated = Some((fastest, busy_watts_fast));
        self
    }

    /// Attach a telemetry sink: the pool emits its scheduler events
    /// into it as usual, and the server adds one
    /// [`Event::RequestLatency`] per completed request on the
    /// completing worker's stream.
    #[must_use]
    pub fn telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Build the server (and its pool) and start serving.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PoolBuilder::build`].
    #[must_use]
    pub fn build(self) -> Server {
        let mut pool: PoolBuilder = Pool::builder().deque(self.deque);
        if let Some(n) = self.workers {
            pool = pool.workers(n);
        }
        if let Some(t) = self.tempo {
            pool = pool.tempo(t);
        }
        if let Some(p) = self.parking {
            pool = pool.parking(p);
        }
        if let Some(b) = self.spin_budget {
            pool = pool.spin_budget(b);
        }
        if let Some(c) = self.admission.injector_capacity {
            pool = pool.injector_capacity(c);
        }
        if let Some(e) = self.elastic {
            pool = pool.elastic(e);
        }
        if let Some((fastest, watts)) = self.emulated {
            pool = pool.emulated_dvfs(fastest, watts);
        }
        if let Some(sink) = &self.telemetry {
            pool = pool.telemetry(Arc::clone(sink));
        }
        let pool = pool.build();
        let epoch = Instant::now();
        // Read the pool clock at (essentially) the same instant as the
        // serve epoch so serve-side events share the pool's timebase.
        let epoch_offset_ns = pool.elapsed_ns();
        let shed_threshold_permille = self
            .admission
            .shed_utilization
            .map_or(DEFAULT_SHED_UTILIZATION_PERMILLE, |t| (t * 1000.0) as u32);
        Server {
            pool,
            shared: Arc::new(ServeShared {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                latency: LatencyRecorder::new(),
                class_latency: std::array::from_fn(|_| LatencyRecorder::new()),
                energy: LatencyRecorder::new(),
                shed_threshold_permille,
                sink: self.telemetry.filter(|s| !s.is_null()),
                epoch,
                epoch_offset_ns,
                next_span: AtomicU64::new(0),
                flight: self.admission.flight.map(Arc::new),
                breach: self.admission.breach,
            }),
        }
    }
}

/// An open-loop request server over a HERMES work-stealing [`Pool`].
///
/// Requests enter through [`submit`](Self::submit) from any thread (the
/// pool's lock-free injector is the admission queue), run on the pool's
/// workers — free to use [`join`](hermes_rt::join) and friends
/// internally for parallelism — and resolve a [`Ticket`] through the
/// runtime's latch machinery. Per-request latency is recorded into a
/// log-bucketed [`LatencyHistogram`] (and, when a sink is attached, as
/// [`Event::RequestLatency`] telemetry on the completing worker's
/// stream).
///
/// ```
/// use hermes_serve::Server;
/// let server = Server::builder().workers(2).build();
/// let ticket = server.submit(|| 6 * 7);
/// assert_eq!(ticket.wait(), 42);
/// server.shutdown();
/// ```
pub struct Server {
    pool: Pool,
    shared: Arc<ServeShared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.pool.workers())
            .field("in_flight", &self.in_flight())
            .field("completed", &self.completed())
            .finish()
    }
}

impl Server {
    /// Start configuring a server.
    #[must_use]
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Submit one request; returns immediately with a [`Ticket`] for
    /// the result (open-loop admission: the caller never waits for
    /// execution). Equivalent to [`submit_with`](Self::submit_with)
    /// with default [`SubmitOptions`] — normal class, no deadline,
    /// never shed.
    ///
    /// A panicking request never takes down a worker: the panic is
    /// caught, the request counts as completed (so
    /// [`drain`](Self::drain) terminates), and the payload re-raises on
    /// whoever redeems the ticket.
    pub fn submit<R, F>(&self, request: F) -> Ticket<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Submit one request with an explicit class, deadline, and cell
    /// preference ([`SubmitOptions`]); returns immediately with a
    /// [`Ticket`] for the result.
    ///
    /// This is the server's one true front door — [`submit`](Self::submit)
    /// and [`submit_async`](Self::submit_async) are thin wrappers over
    /// it and its async sibling. Admission control runs here, before
    /// any pool work: a refused request resolves its ticket at once
    /// with the [`Shed`](crate::ShedError) outcome (redeem via
    /// [`Ticket::wait_result`]), costs no worker time, and records no
    /// latency or energy sample.
    pub fn submit_with<R, F>(&self, request: F, opts: SubmitOptions) -> Ticket<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (ticket, inner) = Ticket::new(shared.flight.clone());
        if let Err(shed) = self.admit(opts) {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            inner.complete(Outcome::Shed(shed));
            return ticket;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        // Causal span: the inject phase brackets admission → execution
        // start (queueing in the injector / a deque), then one poll
        // phase covers the closure body, then the terminal complete.
        let span = shared.mint_span();
        shared.record_span(span, true, SpanPhase::Inject);
        let class = opts.priority;
        self.pool.spawn_with(
            move || {
                shared.record_span(span, false, SpanPhase::Inject);
                shared.record_span(span, true, SpanPhase::Poll);
                // Bracket the request body with the worker's energy meter:
                // the delta is the joules this request's execution drew
                // (µJ-rounded). `None` without emulated DVFS.
                let meter0 = current_worker_energy_nj();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(request));
                let energy_uj = meter0.and_then(|e0| {
                    current_worker_energy_nj().map(|e1| (e1.saturating_sub(e0) + 500) / 1_000)
                });
                shared.record_span(span, false, SpanPhase::Poll);
                shared.record_completion(span, t0, energy_uj, class);
                if let Some(uj) = energy_uj {
                    inner.set_energy_uj(uj);
                }
                inner.complete(outcome.into());
                shared.count_completion();
            },
            self.spawn_options(opts),
        );
        ticket
    }

    /// Submit one *non-blocking* request: the future is polled on pool
    /// workers and, while pending, pins no worker — ten thousand
    /// requests sleeping on timers or awaiting other tickets occupy
    /// queue slots and heap, never threads. Returns immediately with a
    /// [`Ticket`], which is itself a [`Future`]: request futures
    /// compose by `.await`ing the tickets of requests they fan out.
    ///
    /// Latency accounting matches [`submit`](Self::submit): the clock
    /// starts at admission, so a request that spends its life awaiting
    /// a timer reports the full admission-to-completion span.
    ///
    /// A panicking poll never takes down a worker: the panic is caught,
    /// the request counts as completed (so [`drain`](Self::drain)
    /// terminates), and the payload re-raises on whoever redeems the
    /// ticket.
    pub fn submit_async<R, F>(&self, request: F) -> Ticket<R>
    where
        F: Future<Output = R> + Send + 'static,
        R: Send + 'static,
    {
        self.submit_async_with(request, SubmitOptions::default())
    }

    /// [`submit_async`](Self::submit_async) with an explicit class,
    /// deadline, and cell preference — the async sibling of
    /// [`submit_with`](Self::submit_with), with the same admission
    /// protocol (a shed request's future is dropped unpolled; its
    /// ticket resolves to the typed [`ShedError`](crate::ShedError)).
    /// The task keeps its class across waker re-queues: every re-push
    /// drains in the same priority lane the admission decision chose.
    pub fn submit_async_with<R, F>(&self, request: F, opts: SubmitOptions) -> Ticket<R>
    where
        F: Future<Output = R> + Send + 'static,
        R: Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (ticket, inner) = Ticket::new(shared.flight.clone());
        if let Err(shed) = self.admit(opts) {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            inner.complete(Outcome::Shed(shed));
            return ticket;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        // Causal span: the serve layer brackets admission → first poll
        // as the inject phase and marks the terminal complete; the rt
        // task layer records the queued / poll / park-wait journey in
        // between under the same id (`spawn_future_traced`).
        let span = shared.mint_span();
        shared.record_span(span, true, SpanPhase::Inject);
        let class = opts.priority;
        self.pool.spawn_future_traced_with(
            RequestFuture {
                request: Box::pin(request),
                span,
                inject_open: span != 0,
                energy_nj: None,
                class,
                done: Some((shared, inner, t0)),
            },
            span,
            self.spawn_options(opts),
        );
        ticket
    }

    /// Translate serve-level [`SubmitOptions`] into the pool's
    /// [`SpawnOptions`]: the relative deadline becomes an absolute
    /// instant on the pool's clock.
    fn spawn_options(&self, opts: SubmitOptions) -> SpawnOptions {
        let mut spawn = SpawnOptions::default().priority(opts.priority);
        if let Some(d) = opts.deadline {
            spawn = spawn.deadline_ns(
                self.shared
                    .pool_now_ns()
                    .saturating_add(d.as_nanos() as u64)
                    .max(1),
            );
        }
        if let Some(domain) = opts.domain_hint {
            spawn = spawn.domain_hint(domain);
        }
        spawn
    }

    /// The admission decision (DESIGN.md §Serve): high-class requests
    /// are always admitted; normal requests are admitted unless they
    /// carry a deadline the live p99 already exceeds; background
    /// requests are admitted only below the policy's utilization
    /// threshold.
    fn admit(&self, opts: SubmitOptions) -> Result<(), ShedError> {
        match opts.priority {
            Priority::High => Ok(()),
            Priority::Normal => {
                let Some(deadline) = opts.deadline else {
                    return Ok(());
                };
                let deadline_ns = deadline.as_nanos() as u64;
                match self.shared.latency.snapshot().p99() {
                    Some(p99_ns) if p99_ns > deadline_ns => Err(ShedError {
                        priority: Priority::Normal,
                        reason: ShedReason::DeadlineUnmeetable {
                            p99_ns,
                            deadline_ns,
                        },
                    }),
                    _ => Ok(()),
                }
            }
            Priority::Background => {
                let utilization_permille = self.utilization_estimate_permille();
                if utilization_permille >= self.shared.shed_threshold_permille {
                    Err(ShedError {
                        priority: Priority::Background,
                        reason: ShedReason::Overloaded {
                            utilization_permille,
                        },
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The pool's live utilization estimate, permille of the unit
    /// interval. Two signals, take the larger: instantaneous queue
    /// pressure (in-flight requests over workers — reacts within one
    /// submission) and the pool's windowed busy share
    /// ([`Pool::busy_share_permille`], the same signal elastic scaling
    /// reads).
    fn utilization_estimate_permille(&self) -> u32 {
        let workers = self.pool.workers().max(1) as u64;
        let queue_pressure = ((self.in_flight() * 1000) / workers).min(1000) as u32;
        queue_pressure.max(self.pool.busy_share_permille())
    }

    /// Requests submitted so far.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Requests completed so far (including panicked ones; shed
    /// requests never ran and are counted by [`shed`](Self::shed)
    /// instead).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Requests refused by admission control so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Requests currently admitted but not yet completed.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Snapshot of the per-request latency histogram so far.
    #[must_use]
    pub fn latency(&self) -> LatencyHistogram {
        self.shared.latency.snapshot()
    }

    /// Snapshot of the latency histogram for one request class — the
    /// per-tenant view a mixed-class deployment gates on (shed requests
    /// contribute nothing; they never ran).
    #[must_use]
    pub fn latency_for(&self, class: Priority) -> LatencyHistogram {
        self.shared.class_latency[class as usize].snapshot()
    }

    /// Snapshot of the per-request *energy* histogram so far (µJ
    /// values in the same log-bucketed shape as [`latency`](Self::latency)).
    /// Empty unless the server runs under
    /// [`emulated_dvfs`](ServerBuilder::emulated_dvfs) — without a
    /// meter no request is charged anything.
    #[must_use]
    pub fn request_energy(&self) -> LatencyHistogram {
        self.shared.energy.snapshot()
    }

    /// A live [`MetricsSnapshot`] without quiescing anything, traced
    /// or not: [`Pool::metrics`] (per-worker busy/steal/park time, task
    /// counts, injector depth — read from the workers' counter blocks,
    /// each field single-writer and monotone, with no consistency
    /// promised across fields) completed with the request-level view
    /// only the server has — in-flight count and rolling
    /// latency/energy quantiles.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.pool.metrics();
        snapshot.in_flight = self.in_flight();
        let hist = self.shared.latency.snapshot();
        snapshot.latency_p50_ns = hist.p50();
        snapshot.latency_p99_ns = hist.p99();
        let energy = self.shared.energy.snapshot();
        snapshot.energy_p50_uj = energy.p50();
        snapshot.energy_p99_uj = energy.p99();
        snapshot
    }

    /// The pool underneath, for scheduler statistics, energy totals,
    /// and fork-join use from non-request code.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Block until every submitted request has completed (graceful
    /// drain). New submissions during a drain extend it.
    pub fn drain(&self) {
        let drained = self.drain_for(Duration::MAX);
        debug_assert!(drained, "unbounded drain cannot time out");
    }

    /// Like [`drain`](Self::drain) with a deadline; returns whether the
    /// server fully drained within `timeout`.
    ///
    /// Polls with a short-spin-then-sleep cadence (the `Latch::wait`
    /// pattern): a drain waiting out a tail of long requests must not
    /// burn a core the workers could be finishing those requests on.
    #[must_use]
    pub fn drain_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut spins = 0u32;
        while self.in_flight() > 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return self.in_flight() == 0;
                }
            }
            if spins < 64 {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        true
    }

    /// Drain, then stop and join the pool's workers, keeping the server
    /// for post-run inspection (statistics, latency snapshot, energy) —
    /// the serving analogue of [`Pool::stop`].
    pub fn stop(&mut self) {
        self.drain();
        self.pool.stop();
    }

    /// Drain and shut the pool down.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

/// Adapter polled by the pool's future tasks: drives one request
/// future, then runs the same completion tail as [`Server::submit`]
/// (latency record, telemetry event, ticket resolution, counters).
///
/// Boxed-and-pinned inside (`Pin<Box<dyn Future>>` is `Unpin`), so this
/// whole type stays in safe code under the crate's `forbid(unsafe_code)`
/// — no pin projection needed.
struct RequestFuture<R> {
    request: Pin<Box<dyn Future<Output = R> + Send>>,
    /// The request's causal span id (0 = untraced).
    span: u64,
    /// Whether the inject span is still open: the first poll closes it
    /// (admission → execution start), whatever the poll returns.
    inject_open: bool,
    /// Energy accumulated across this request's polls, nJ: each poll is
    /// bracketed by two reads of the executing worker's energy meter
    /// and the deltas sum here — a request that parks for a second
    /// between polls is charged only what its polls actually drew.
    /// Stays `None` without emulated DVFS.
    energy_nj: Option<u64>,
    /// The request's class, for the per-class latency recorder.
    class: Priority,
    /// Completion context, taken exactly once at the final poll. If the
    /// task is dropped unpolled (pool shut down), this drops too and
    /// the ticket's latch stays unset — exactly like a `submit` closure
    /// released from a terminated pool's queues.
    done: Option<(Arc<ServeShared>, Arc<TicketInner<R>>, Instant)>,
}

impl<R> Future for RequestFuture<R> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.inject_open {
            this.inject_open = false;
            if let Some((shared, _, _)) = &this.done {
                shared.record_span(this.span, false, SpanPhase::Inject);
            }
        }
        let meter0 = current_worker_energy_nj();
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            this.request.as_mut().poll(cx)
        }));
        if let (Some(e0), Some(e1)) = (meter0, current_worker_energy_nj()) {
            this.energy_nj = Some(this.energy_nj.unwrap_or(0) + e1.saturating_sub(e0));
        }
        let outcome = match polled {
            Ok(Poll::Pending) => return Poll::Pending,
            Ok(Poll::Ready(value)) => Outcome::Done(value),
            Err(payload) => Outcome::Panicked(payload),
        };
        let (shared, inner, t0) = this
            .done
            .take()
            .expect("request future polled again after completion");
        let energy_uj = this.energy_nj.map(|nj| (nj + 500) / 1_000);
        shared.record_completion(this.span, t0, energy_uj, this.class);
        if let Some(uj) = energy_uj {
            inner.set_energy_uj(uj);
        }
        inner.complete(outcome);
        shared.count_completion();
        Poll::Ready(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_wait_round_trips() {
        let server = Server::builder().workers(2).build();
        let t = server.submit(|| 21 * 2);
        assert_eq!(t.wait(), 42);
        assert_eq!(server.submitted(), 1);
        server.drain();
        assert_eq!(server.completed(), 1);
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.latency().count(), 1);
        server.shutdown();
    }

    #[test]
    fn requests_may_fork_join_internally() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = hermes_rt::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let server = Server::builder().workers(4).build();
        let tickets: Vec<_> = (0..8).map(|_| server.submit(|| fib(16))).collect();
        for t in tickets {
            assert_eq!(t.wait(), 987);
        }
        assert!(server.pool().stats().pushes > 0, "requests forked");
        server.shutdown();
    }

    #[test]
    fn dropped_tickets_still_complete_and_drain() {
        let server = Server::builder().workers(2).build();
        for i in 0..64u64 {
            drop(server.submit(move || i * i));
        }
        server.drain();
        assert_eq!(server.completed(), 64);
        assert_eq!(server.latency().count(), 64);
        server.shutdown();
    }

    #[test]
    fn panicking_request_is_isolated() {
        let server = Server::builder().workers(2).build();
        let bad = server.submit(|| panic!("bad request"));
        let good = server.submit(|| "still serving");
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || bad.wait())).is_err()
        );
        assert_eq!(good.wait(), "still serving");
        server.drain();
        assert_eq!(server.completed(), 2, "panicked request still completed");
        server.shutdown();
    }

    #[test]
    fn drain_for_times_out_honestly() {
        let server = Server::builder().workers(1).build();
        let t = server.submit(|| std::thread::sleep(Duration::from_millis(300)));
        assert!(!server.drain_for(Duration::from_millis(10)));
        assert!(server.drain_for(Duration::from_secs(10)));
        t.wait();
        server.shutdown();
    }

    #[test]
    fn latency_events_reach_the_sink() {
        use hermes_telemetry::RingSink;
        let workers = 2;
        let sink = Arc::new(RingSink::new(workers));
        let mut server = Server::builder()
            .workers(workers)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        for _ in 0..32 {
            drop(server.submit(|| std::hint::black_box(3 + 4)));
        }
        server.stop();
        let report = sink.report("serve-unit", "rt", 0.1, 0.0);
        assert_eq!(report.latency_hist.count(), 32, "one event per request");
        assert_eq!(server.latency().count(), 32);
        // The sink's merged histogram and the server's own recorder saw
        // the same samples (bucket-for-bucket).
        assert_eq!(report.latency_hist, server.latency());
    }

    #[test]
    fn submit_async_round_trips() {
        let server = Server::builder().workers(2).build();
        let t = server.submit_async(async { 21 * 2 });
        assert_eq!(t.wait(), 42);
        server.drain();
        assert_eq!(server.completed(), 1);
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.latency().count(), 1);
        server.shutdown();
    }

    #[test]
    fn async_requests_compose_by_awaiting_tickets() {
        // One worker: if awaiting the inner ticket *blocked* the worker,
        // nothing could ever run the inner request and this would hang.
        // Awaiting parks the outer future instead, freeing the worker.
        let server = Arc::new(Server::builder().workers(1).build());
        let inner_server = Arc::clone(&server);
        let outer = server.submit_async(async move {
            let inner = inner_server.submit(|| 21u64);
            inner.await * 2
        });
        assert_eq!(outer.wait(), 42);
        server.drain();
        assert_eq!(server.completed(), 2);
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn waiting_on_a_ticket_inside_a_worker_panics_instead_of_deadlocking() {
        // Regression: `Ticket::wait()` from a pool worker used to be a
        // silent deadlock on a 1-worker pool (the waiting worker is the
        // only thread that could run the inner request). It must panic
        // with a diagnosis instead.
        let server = Arc::new(Server::builder().workers(1).build());
        let inner_server = Arc::clone(&server);
        let outer = server.submit(move || {
            let inner = inner_server.submit(|| 1u32);
            inner.wait()
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || outer.wait()))
            .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("guard panics with a formatted message");
        assert!(
            msg.contains("deadlock"),
            "diagnosis names the hazard: {msg}"
        );
        assert!(msg.contains("submit_async"), "and the remedy: {msg}");
        // The inner request is still queued and still completes; the
        // panicked outer request completed (as a panic outcome) too.
        server.drain();
        assert_eq!(server.completed(), 2);
    }

    #[test]
    fn metrics_are_live_and_carry_request_state() {
        // No telemetry sink: the counter blocks are always on.
        let server = Server::builder().workers(2).build();
        // A request that holds until we've sampled mid-run metrics.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let slow = server.submit(move || {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        for _ in 0..16 {
            drop(server.submit(|| std::hint::black_box(7 * 6)));
        }
        // Mid-run: the slow request is admitted and unfinished.
        let deadline = Instant::now() + Duration::from_secs(10);
        let snapshot = loop {
            let m = server.metrics();
            if m.in_flight >= 1 && m.at_ns > 0 {
                break m;
            }
            assert!(Instant::now() < deadline, "no live snapshot observed");
            std::thread::yield_now();
        };
        assert!(snapshot.in_flight >= 1, "slow request still in flight");
        assert_eq!(snapshot.workers.len(), 2);
        assert!(snapshot.utilization() >= 0.0 && snapshot.utilization() <= 1.0);
        gate.store(true, Ordering::SeqCst);
        slow.wait();
        server.drain();
        let settled = server.metrics();
        assert_eq!(settled.in_flight, 0);
        assert!(settled.latency_p50_ns.is_some(), "17 latencies recorded");
        assert!(settled.latency_p99_ns.is_some());
        assert!(settled.tasks() >= 17, "every request executed on a worker");
        // Counters are monotone across snapshots.
        assert!(settled.at_ns > snapshot.at_ns);
        assert!(settled.tasks() >= snapshot.tasks());
        assert!(settled.busy_ns() >= snapshot.busy_ns());
        assert!(settled.busy_ns() > 0, "the slow request's busy time landed");
        let text = hermes_obs::prometheus_text(&settled, "hermes");
        assert!(text.contains("hermes_requests_in_flight 0"));
        server.shutdown();
    }

    #[test]
    fn request_spans_stitch_and_reconcile_with_counters() {
        use hermes_obs::SpanForest;
        use hermes_telemetry::{RingSink, SpanPhase};
        const SYNC: u64 = 12;
        const ASYNC: u64 = 9;
        // Pend once, waking immediately: forces every async request
        // through a park-wait/wake/re-queue round so the stitched spans
        // exercise the full task lifecycle.
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let sink = Arc::new(RingSink::with_ring_capacity(2, 1 << 16));
        let mut server = Server::builder()
            .workers(2)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        let tickets: Vec<_> = (0..SYNC).map(|i| server.submit(move || i * 2)).collect();
        let async_tickets: Vec<_> = (0..ASYNC)
            .map(|i| {
                server.submit_async(async move {
                    YieldOnce(false).await;
                    i * 3
                })
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), i as u64 * 2);
        }
        for (i, t) in async_tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), i as u64 * 3);
        }
        server.stop();

        let forest = SpanForest::from_sink(&sink);
        assert_eq!(
            forest.len() as u64,
            SYNC + ASYNC,
            "one span per request, sync and async alike"
        );
        let mut completed = 0;
        for span in &forest.spans {
            // Every request's journey starts with an inject episode
            // (admission → execution start) and ends with the terminal
            // complete instant.
            assert_eq!(
                span.phase_intervals(SpanPhase::Inject).len(),
                1,
                "span {} inject episodes",
                span.id
            );
            assert!(
                !span.phase_intervals(SpanPhase::Poll).is_empty(),
                "span {} was polled/executed",
                span.id
            );
            completed += u64::from(span.completed_at.is_some());
        }
        assert_eq!(completed, SYNC + ASYNC, "every span terminated");
        // Async requests additionally ride the rt task layer: their
        // queued episodes come from `spawn_future_traced`.
        let queued_spans = forest
            .spans
            .iter()
            .filter(|s| !s.phase_intervals(SpanPhase::Queued).is_empty())
            .count() as u64;
        assert_eq!(queued_spans, ASYNC);
        // Nothing was lost: zero ring drops, so the reconciliation
        // above was over the complete record.
        let report = sink.report("serve-spans", "rt", 0.1, 0.0);
        assert_eq!(report.totals().dropped_events, 0);
        assert_eq!(report.latency_hist.count(), SYNC + ASYNC);
    }

    #[test]
    fn requests_are_charged_joules_under_emulated_dvfs() {
        use hermes_core::Frequency;
        use hermes_telemetry::RingSink;
        const N: u64 = 24;
        let sink = Arc::new(RingSink::new(2));
        let mut server = Server::builder()
            .workers(2)
            .emulated_dvfs(Frequency::from_mhz(2_400), 8.0)
            .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
            .build();
        let spin = || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(300) {
                std::hint::black_box(0u64);
            }
        };
        let sync_tickets: Vec<Ticket<()>> = (0..N / 2).map(|_| server.submit(spin)).collect();
        let async_tickets: Vec<Ticket<()>> = (0..N / 2)
            .map(|_| server.submit_async(async move { spin() }))
            .collect();
        for t in sync_tickets.into_iter().chain(async_tickets) {
            while !t.is_done() {
                std::thread::yield_now();
            }
            let uj = t
                .energy_microjoules()
                .expect("emulated DVFS meters every request");
            // 300 µs of busy work at a several-watt draw is on the
            // order of a millijoule; zero would mean the bracket missed.
            assert!(uj > 0, "request charged {uj} µJ");
            t.wait();
        }
        // The server-side recorder saw one sample per request, and its
        // quantiles surface through the metrics snapshot.
        assert_eq!(server.request_energy().count(), N);
        let metrics = server.metrics();
        assert!(metrics.energy_p50_uj.is_some());
        assert!(metrics.energy_p99_uj.is_some());
        server.stop();
        // Per-worker meters reached the snapshot, so the prometheus
        // energy families render.
        let settled = server.metrics();
        assert!(settled.workers.iter().any(|w| w.energy_uj > 0));
        let text = hermes_obs::prometheus_text(&settled, "hermes");
        assert!(text.contains("hermes_energy_joules_total{worker=\"0\"}"));
        assert!(text.contains("hermes_request_energy_p50_joules"));
        // One RequestEnergy event per request landed in the sink, and
        // the folded report's energy histogram matches the recorder.
        let report = sink.report("serve-energy", "rt", 0.1, 0.0);
        assert_eq!(report.energy_hist.count(), N);
        assert_eq!(report.energy_hist, server.request_energy());
    }

    #[test]
    fn unmetered_requests_report_no_energy() {
        let server = Server::builder().workers(2).build();
        let t = server.submit(|| 2 + 2);
        while !t.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(t.energy_microjoules(), None, "no meter, no joules");
        assert_eq!(t.wait(), 4);
        assert_eq!(server.request_energy().count(), 0);
        server.shutdown();
    }

    #[test]
    fn p99_budget_breach_fires_once_with_flight_dump() {
        use hermes_obs::FlightRecorder;
        use parking_lot::Mutex;
        let breaches: Arc<Mutex<Vec<P99Breach>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&breaches);
        let mut server = Server::builder()
            .workers(2)
            .admission(
                AdmissionPolicy::default()
                    .flight_recorder(FlightRecorder::new(2))
                    // Zero budget: the first check (64 completions in)
                    // breaches.
                    .p99_budget(Duration::ZERO, move |b| seen.lock().push(b)),
            )
            .build();
        for _ in 0..(3 * BREACH_CHECK_INTERVAL) {
            drop(server.submit(|| std::hint::black_box(1 + 1)));
        }
        server.stop();
        let breaches = breaches.lock();
        assert_eq!(breaches.len(), 1, "one-shot latch: exactly one callback");
        let breach = &breaches[0];
        assert!(breach.p99_ns > 0, "a real quantile crossed the budget");
        assert_eq!(breach.budget_ns, 0);
        assert_eq!(breach.completed % BREACH_CHECK_INTERVAL, 0);
        let dump = breach.dump.as_ref().expect("recorder attached");
        assert!(!dump.is_empty(), "the dump carries scheduling history");
    }

    #[test]
    fn deadlock_panic_carries_the_flight_recorder_tail() {
        use hermes_obs::FlightRecorder;
        let server = Arc::new(
            Server::builder()
                .workers(1)
                .admission(AdmissionPolicy::default().flight_recorder(FlightRecorder::new(1)))
                .build(),
        );
        let inner_server = Arc::clone(&server);
        let outer = server.submit(move || {
            let inner = inner_server.submit(|| 1u32);
            inner.wait()
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || outer.wait()))
            .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("guard panics with a formatted message");
        assert!(msg.contains("deadlock"), "still diagnoses: {msg}");
        assert!(
            msg.contains("flight-recorder events"),
            "and now ships the post-mortem: {msg}"
        );
        assert!(msg.contains("worker 0"), "events name their stream: {msg}");
        server.drain();
    }

    #[test]
    fn background_is_shed_under_overload_but_high_never_is() {
        use std::sync::atomic::AtomicBool;
        // One worker, held hostage: in-flight / workers == 1.0, well
        // past the default 0.9 shed threshold.
        let server = Server::builder().workers(1).build();
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let slow = server.submit(move || {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // Background: refused, typed error, nothing ran.
        let shed = server.submit_with(
            || 1u32,
            SubmitOptions::default().priority(Priority::Background),
        );
        assert!(shed.is_done(), "shed tickets resolve at submission");
        assert!(shed.was_shed());
        let err = shed.shed_error().expect("typed shed error");
        assert_eq!(err.priority, Priority::Background);
        assert!(matches!(
            err.reason,
            ShedReason::Overloaded {
                utilization_permille
            } if utilization_permille >= 900
        ));
        // Shed requests have no energy reading and no latency sample.
        let shed2 = server.submit_with(
            || 2u32,
            SubmitOptions::default().priority(Priority::Background),
        );
        assert_eq!(shed2.energy_microjoules(), None);
        assert!(shed2.wait_result().is_err());
        assert_eq!(server.shed(), 2);
        assert_eq!(server.latency().count(), 0, "no latency for shed work");
        assert_eq!(server.latency_for(Priority::Background).count(), 0);
        // High and plain Normal are admitted even at full utilization.
        let high = server.submit_with(|| 10u32, SubmitOptions::default().priority(Priority::High));
        let normal = server.submit_with(|| 20u32, SubmitOptions::default());
        assert!(!high.is_done() || !high.was_shed());
        gate.store(true, Ordering::SeqCst);
        slow.wait();
        assert_eq!(high.wait_result(), Ok(10));
        assert_eq!(normal.wait(), 20);
        server.drain();
        // Shed requests never inflate the completion counters.
        assert_eq!(server.completed(), 3);
        assert_eq!(server.submitted(), 5);
        assert_eq!(server.latency_for(Priority::High).count(), 1);
        server.shutdown();
    }

    #[test]
    fn background_is_admitted_again_once_load_clears() {
        let server = Server::builder().workers(2).build();
        server.drain();
        // Idle pool: utilization estimate 0, background sails through.
        let t = server.submit_with(
            || "best effort",
            SubmitOptions::default().priority(Priority::Background),
        );
        assert_eq!(t.wait_result(), Ok("best effort"));
        assert_eq!(server.shed(), 0);
        assert_eq!(server.latency_for(Priority::Background).count(), 1);
        server.shutdown();
    }

    #[test]
    fn untraced_admission_sheds_on_the_pool_busy_share() {
        // No sink, and nothing in flight when the background request
        // arrives: queue pressure reads 0, so only the pool's busy
        // share can shed it.
        let server = Server::builder()
            .workers(2)
            .elastic(ElasticConfig::default())
            .admission(AdmissionPolicy::default().shed_utilization(0.05))
            .build();
        let deadline = Instant::now() + Duration::from_secs(20);
        let err = loop {
            server
                .submit(|| {
                    let mut v: Vec<u64> = (0..20_000).collect();
                    hermes_rt::parallel_for(&mut v, 64, |x| {
                        for _ in 0..2_000 {
                            *x = std::hint::black_box(x.wrapping_mul(2654435761).rotate_left(7));
                        }
                    });
                })
                .wait();
            server.drain();
            let t = server.submit_with(
                || (),
                SubmitOptions::default().priority(Priority::Background),
            );
            if let Some(err) = t.shed_error() {
                break err;
            }
            t.wait();
            assert!(
                Instant::now() < deadline,
                "busy share never reached admission"
            );
        };
        assert!(matches!(
            err.reason,
            ShedReason::Overloaded { utilization_permille } if utilization_permille >= 50
        ));
        server.shutdown();
    }

    #[test]
    fn unmeetable_deadlines_are_refused_up_front() {
        let server = Server::builder().workers(2).build();
        // Teach the p99 estimate that requests take ~2 ms.
        let tickets: Vec<_> = (0..8)
            .map(|_| server.submit(|| std::thread::sleep(Duration::from_millis(2))))
            .collect();
        for t in tickets {
            t.wait();
        }
        let p99 = server.latency().p99().expect("8 samples recorded");
        assert!(p99 >= 2_000_000);
        // A normal request demanding completion in 1 µs is hopeless;
        // admission says so immediately instead of queueing it.
        let doomed = server.submit_with(
            || 1u32,
            SubmitOptions::default().deadline(Duration::from_micros(1)),
        );
        let err = doomed.wait_result().expect_err("deadline unmeetable");
        assert_eq!(err.priority, Priority::Normal);
        assert!(matches!(
            err.reason,
            ShedReason::DeadlineUnmeetable { p99_ns, deadline_ns }
                if p99_ns == p99 && deadline_ns == 1_000
        ));
        // A generous deadline is admitted (and rides the deadline lane).
        let fine = server.submit_with(
            || 2u32,
            SubmitOptions::default().deadline(Duration::from_secs(30)),
        );
        assert_eq!(fine.wait_result(), Ok(2));
        server.shutdown();
    }

    #[test]
    fn async_submission_sheds_with_the_same_protocol() {
        use std::sync::atomic::AtomicBool;
        let server = Server::builder().workers(1).build();
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let slow = server.submit(move || {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        let shed = server.submit_async_with(
            async { 1u32 },
            SubmitOptions::default().priority(Priority::Background),
        );
        assert!(shed.was_shed(), "async background shed under overload");
        assert_eq!(server.shed(), 1);
        let high = server.submit_async_with(
            async { 2u32 },
            SubmitOptions::default().priority(Priority::High),
        );
        gate.store(true, Ordering::SeqCst);
        slow.wait();
        assert_eq!(high.wait_result(), Ok(2));
        server.drain();
        assert_eq!(server.completed(), 2);
        server.shutdown();
    }

    #[test]
    fn timer_backed_requests_occupy_no_worker() {
        use crate::VirtualTimer;
        const N: usize = 4_096;
        let timer = VirtualTimer::new();
        let server = Server::builder().workers(2).build();
        let tickets: Vec<_> = (0..N)
            .map(|i| {
                let t = timer.clone();
                server.submit_async(async move {
                    t.sleep(1_000).await;
                    i as u64
                })
            })
            .collect();
        // Two workers drain 4096 first-polls; every one parks on the
        // timer without holding a worker.
        let deadline = Instant::now() + Duration::from_secs(30);
        while timer.pending() < N {
            assert!(
                Instant::now() < deadline,
                "stalled with {} of {N} sleepers parked",
                timer.pending()
            );
            std::thread::yield_now();
        }
        assert_eq!(server.in_flight(), N as u64);
        assert_eq!(server.completed(), 0);
        assert_eq!(timer.advance(1_000), N, "one advance wakes the cohort");
        server.drain();
        assert_eq!(server.completed(), N as u64);
        assert_eq!(server.latency().count(), N as u64);
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), i as u64);
        }
        server.shutdown();
    }
}
