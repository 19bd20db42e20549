//! The unified HERMES tempo-control algorithm (paper Fig. 5).

use crate::{
    FreqMap, Frequency, FrequencyActuator, ImmediacyList, OnlineProfiler, Policy, ProfilerConfig,
    TempoChange, TempoLevel, TempoStats, ThresholdTable, TransitionKind, TransitionRecord,
    WorkerId,
};

/// Configuration of a [`TempoController`].
///
/// Build one with [`TempoConfig::builder`].
#[derive(Debug, Clone)]
pub struct TempoConfig {
    /// Active strategy combination.
    pub policy: Policy,
    /// N-frequency tempo→frequency mapping (paper §3.4).
    pub freq_map: FreqMap,
    /// Number of workers in the pool.
    pub num_workers: usize,
    /// Number of workload thresholds `K` (paper §3.2).
    pub k_thresholds: usize,
    /// Online profiler settings.
    pub profiler: ProfilerConfig,
    /// Thresholds in force before the first profiler recomputation.
    pub initial_thresholds: ThresholdTable,
}

impl TempoConfig {
    /// Start building a configuration.
    #[must_use]
    pub fn builder() -> TempoConfigBuilder {
        TempoConfigBuilder::default()
    }
}

/// Builder for [`TempoConfig`].
///
/// ```
/// use hermes_core::{Frequency, Policy, TempoConfig};
/// let config = TempoConfig::builder()
///     .policy(Policy::Unified)
///     .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
///     .workers(8)
///     .k_thresholds(2)
///     .build();
/// assert_eq!(config.freq_map.num_levels(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TempoConfigBuilder {
    policy: Policy,
    frequencies: Vec<Frequency>,
    workers: Option<usize>,
    k_thresholds: usize,
    profiler: Option<ProfilerConfig>,
    initial_avg: Option<f64>,
}

impl TempoConfigBuilder {
    /// Select the strategy combination (default: [`Policy::Unified`]).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Elect the frequencies used for tempo levels, fastest first
    /// (*N-frequency tempo control*). Required.
    #[must_use]
    pub fn frequencies(mut self, freqs: Vec<Frequency>) -> Self {
        self.frequencies = freqs;
        self
    }

    /// Number of workers in the pool. Required.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Number of workload thresholds `K` (default 2, as in the paper's
    /// worked example).
    #[must_use]
    pub fn k_thresholds(mut self, k: usize) -> Self {
        self.k_thresholds = k;
        self
    }

    /// Online profiler settings (default: [`ProfilerConfig::default`]).
    #[must_use]
    pub fn profiler(mut self, p: ProfilerConfig) -> Self {
        self.profiler = Some(p);
        self
    }

    /// Assumed average deque size before the first profiled recomputation
    /// (default 8.0).
    #[must_use]
    pub fn initial_average(mut self, avg: f64) -> Self {
        self.initial_avg = Some(avg);
        self
    }

    /// Calibration factor for the threshold formula (default 1.0 — the
    /// paper's formula verbatim; see
    /// [`ThresholdTable::from_average_scaled`]).
    #[must_use]
    pub fn threshold_scale(mut self, scale: f64) -> Self {
        let mut p = self.profiler.unwrap_or_default();
        p.threshold_scale = scale;
        self.profiler = Some(p);
        self
    }

    /// Finish building.
    ///
    /// # Panics
    ///
    /// Panics if no frequencies were supplied, the frequencies are not
    /// strictly descending, or the worker count is missing or zero.
    #[must_use]
    pub fn build(self) -> TempoConfig {
        let freq_map = FreqMap::new(self.frequencies).expect("invalid frequency list");
        let num_workers = self.workers.expect("worker count is required");
        assert!(num_workers > 0, "at least one worker is required");
        let k = if self.k_thresholds == 0 {
            2
        } else {
            self.k_thresholds
        };
        let initial_avg = self.initial_avg.unwrap_or(8.0);
        let profiler = self.profiler.unwrap_or_default();
        let initial_thresholds =
            ThresholdTable::from_average_scaled(initial_avg, k, profiler.threshold_scale);
        TempoConfig {
            policy: self.policy,
            freq_map,
            num_workers,
            k_thresholds: k,
            profiler,
            initial_thresholds,
        }
    }
}

/// The unified HERMES tempo controller (paper Fig. 5).
///
/// A host scheduler drives the controller through hooks mirroring the
/// scheduler events of the classic work-stealing algorithm:
///
/// | Scheduler event                     | Hook                      |
/// |-------------------------------------|---------------------------|
/// | bootstrap                           | [`initialize`](Self::initialize) |
/// | `PUSH(w, t)` grew the deque         | [`on_push`](Self::on_push) |
/// | `POP(w)` succeeded                  | [`on_pop`](Self::on_pop)  |
/// | `POP(w)` returned null (out of work)| [`on_out_of_work`](Self::on_out_of_work) |
/// | `STEAL(v)` by `w` succeeded         | [`on_steal`](Self::on_steal) |
/// | profiler period elapsed             | [`record_deque_sample`](Self::record_deque_sample) + [`recompute_thresholds`](Self::recompute_thresholds) |
///
/// ## The tempo level
///
/// Fig. 5's `UP`/`DOWN` operate on a single per-worker tempo level `V`,
/// together with the deque-size band `S` (0 ..= K) and its implied
/// *workload floor*:
///
/// ```text
/// floor(w) = K - S(w)          — the workload-justified minimum level
/// UP(w):   V = max(V - 1, floor(w))
/// DOWN(w): V += 1 (deep logical levels allowed; frequency saturates)
/// level(w) = V(w)              — frequency = FreqMap(level)
/// ```
///
/// * *Thief Procrastination* assigns
///   `V(thief) = max(V(victim) + 1, floor(thief))`, after re-syncing the
///   thief's band to its now-empty deque (Fig. 4(b): "its deque is of
///   size 0 … the tempo is set at the lowest one").
/// * *Immediacy Relay* applies `UP` to every downstream worker: it
///   removes procrastination but never undercuts the workload floor — a
///   drained deque stays slow until it refills. Deep logical levels mean
///   "w2 can still maintain a slower tempo than w1" (§3.3) even under
///   2-frequency control.
/// * Workload crossings pair band and level moves exactly as Fig. 5
///   (`S++` with `UP`, `S--` with `DOWN`); because the floor falls in
///   step with each raise, a thief whose stolen subtree grows a deep
///   deque *cancels* its procrastination without waiting for a relay —
///   the mechanism behind the unified algorithm's lower performance loss
///   ("the best of the two worlds", §4.2). Full band round trips never
///   ratchet the level.
///
/// The level maps to a core frequency through the N-frequency
/// [`FreqMap`]: levels at or beyond `N-1` saturate at the slowest elected
/// frequency. See `DESIGN.md` for the reconstruction argument.
///
/// The controller is a pure state machine: hosts provide mutual exclusion
/// (the simulator is single-threaded; the real runtime serialises hook
/// calls exactly where the paper's runtime holds the victim lock). A host
/// may skip an owner-local hook that [`hook_window`](Self::hook_window)
/// reports as a no-op: the controller would have ignored it.
#[derive(Debug, Clone)]
pub struct TempoController {
    config: TempoConfig,
    /// Virtual tempo level per worker (see the type-level docs).
    virtuals: Vec<i64>,
    /// Workload band index `S` per worker (0 ..= K).
    bands: Vec<usize>,
    /// Last level actually actuated, for deduplication.
    applied: Vec<TempoLevel>,
    list: ImmediacyList,
    table: ThresholdTable,
    profiler: OnlineProfiler,
    /// Whether each worker is currently parked (see
    /// [`on_park`](Self::on_park)): while set, actuations for that
    /// worker are deferred — its core is pinned at the slowest elected
    /// frequency until [`on_unpark`](Self::on_unpark).
    parked: Vec<bool>,
    stats: TempoStats,
    /// When true, every tempo transition is appended to `trace_buf` for
    /// the host to drain (see [`drain_transitions`](Self::drain_transitions)).
    tracing: bool,
    trace_buf: Vec<TransitionRecord>,
}

/// Cap on the logical level, far beyond any realistic procrastination
/// chain; present only to bound drift.
const MAX_VIRTUAL: i64 = 60;

/// Where worker `w`'s owner-local hooks are no-ops (see
/// [`TempoController::hook_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookWindow {
    /// [`on_push`](TempoController::on_push)`(w, len)` is a no-op iff
    /// `len <= push_max`: `thld[S]`, or `usize::MAX` in the top band or
    /// without workload sensitivity.
    pub push_max: usize,
    /// [`on_pop`](TempoController::on_pop)`(w, len)` is a no-op iff
    /// `len >= pop_min`: `thld[S-1]`, or `0` in the bottom band or
    /// without workload sensitivity.
    pub pop_min: usize,
    /// [`on_out_of_work`](TempoController::on_out_of_work)`(w)` is a
    /// no-op iff `!linked`; `linked` is set when workpath sensitivity is
    /// on and `w` sits in an immediacy chain.
    pub linked: bool,
}

impl TempoController {
    /// Create a controller with every worker at the fastest tempo
    /// (the paper bootstraps execution *allegro*).
    #[must_use]
    pub fn new(config: TempoConfig) -> Self {
        let n = config.num_workers;
        let table = config.initial_thresholds.clone();
        let profiler = OnlineProfiler::new(config.profiler.clone(), config.k_thresholds);
        TempoController {
            virtuals: vec![0; n],
            // Top band at bootstrap: empty deques have produced no
            // evidence yet, and the paper starts everyone fastest.
            bands: vec![config.k_thresholds; n],
            applied: vec![TempoLevel::FASTEST; n],
            list: ImmediacyList::new(n),
            table,
            profiler,
            parked: vec![false; n],
            config,
            stats: TempoStats::default(),
            tracing: false,
            trace_buf: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TempoConfig {
        &self.config
    }

    /// Current logical tempo level of `w` (see the type-level docs).
    #[must_use]
    pub fn level(&self, w: WorkerId) -> TempoLevel {
        TempoLevel(self.virtuals[w.0].max(0) as usize)
    }

    /// The raw logical level of `w` as an integer.
    #[must_use]
    pub fn virtual_level(&self, w: WorkerId) -> i64 {
        self.virtuals[w.0]
    }

    /// Current frequency of the core hosting `w` under the active map.
    #[must_use]
    pub fn frequency(&self, w: WorkerId) -> Frequency {
        self.config.freq_map.frequency(self.level(w))
    }

    /// Current workload band `S` of `w` (`0 ..= K`, higher = longer
    /// deque = faster).
    #[must_use]
    pub fn band(&self, w: WorkerId) -> usize {
        self.bands[w.0]
    }

    /// The thresholds currently in force.
    #[must_use]
    pub fn thresholds(&self) -> &ThresholdTable {
        &self.table
    }

    /// The immediacy list (read-only view).
    #[must_use]
    pub fn immediacy(&self) -> &ImmediacyList {
        &self.list
    }

    /// The owner-local hooks' no-op window for `w`: the arguments for
    /// which [`on_push`](Self::on_push), [`on_pop`](Self::on_pop) and
    /// [`on_out_of_work`](Self::on_out_of_work) would change nothing —
    /// no band, level, link, statistic, trace record or actuation. The
    /// window is tight: a push or pop outside it always moves
    /// [`stats`](Self::stats), and an out-of-work on a linked worker
    /// always relinks its chain.
    ///
    /// Besides `w`'s own hooks, only [`on_steal`](Self::on_steal) and
    /// another worker's `on_out_of_work` (both relink chains) and
    /// [`recompute_thresholds`](Self::recompute_thresholds) move it.
    #[must_use]
    pub fn hook_window(&self, w: WorkerId) -> HookWindow {
        let workload = self.config.policy.workload();
        let band = self.bands[w.0];
        let thld = self.table.thresholds();
        HookWindow {
            push_max: match thld.get(band) {
                Some(&t) if workload => t,
                _ => usize::MAX,
            },
            pop_min: if workload && band > 0 {
                thld[band - 1]
            } else {
                0
            },
            linked: self.config.policy.workpath() && self.list.is_linked(w),
        }
    }

    /// Statistics accumulated since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    #[must_use]
    pub fn stats(&self) -> TempoStats {
        self.stats
    }

    /// Zero the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = TempoStats::default();
    }

    /// Enable or disable transition tracing (off by default).
    ///
    /// While enabled, the controller buffers one [`TransitionRecord`]
    /// per tempo transition — including transitions of workers *other*
    /// than the hook's subject (immediacy relays) that a host cannot
    /// reconstruct from hook calls alone. Hosts must call
    /// [`drain_transitions`](Self::drain_transitions) after each hook
    /// invocation to keep the buffer empty.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    /// Whether transition tracing is enabled.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Hand every buffered transition to `f`, oldest first, and clear
    /// the buffer (the backing allocation is reused across calls).
    pub fn drain_transitions<F: FnMut(TransitionRecord)>(&mut self, mut f: F) {
        for record in self.trace_buf.drain(..) {
            f(record);
        }
    }

    /// Record one transition of `w` when tracing is on; called exactly
    /// where the corresponding [`TempoStats`] counter is incremented, so
    /// the trace and the stats always agree.
    fn trace(&mut self, w: WorkerId, kind: TransitionKind) {
        if self.tracing {
            self.trace_buf.push(TransitionRecord {
                worker: w,
                kind,
                level: TempoLevel(self.virtuals[w.0].max(0) as usize),
            });
        }
    }

    /// Actuate the bootstrap frequency (fastest) for every worker.
    pub fn initialize<A: FrequencyActuator>(&mut self, actuator: &mut A) {
        for w in 0..self.config.num_workers {
            actuator.apply(TempoChange {
                worker: WorkerId(w),
                level: TempoLevel::FASTEST,
                frequency: self.config.freq_map.fastest(),
            });
        }
    }

    /// Hook: `w` successfully stole a task from victim `v`; the victim's
    /// deque holds `victim_len` tasks *after* the steal.
    ///
    /// Applies, in the paper's order: the victim-side workload check of
    /// `STEAL` (Fig. 5, Algorithm 3.5), then *Thief Procrastination*
    /// (`DOWN(w, v)`) and the immediacy-list insertion (Fig. 5 lines
    /// 20–26).
    pub fn on_steal<A: FrequencyActuator>(
        &mut self,
        thief: WorkerId,
        victim: WorkerId,
        victim_len: usize,
        actuator: &mut A,
    ) {
        self.stats.steals += 1;
        if self.config.policy.workload() {
            self.workload_lower(victim, victim_len, actuator);
            // Fig. 4(b): the thief's workload state re-syncs to its
            // now-empty deque ("its deque is of size 0, lower than the
            // first threshold, the tempo ... is set at the lowest one").
            // Without this, a band stuck at the bootstrap top would let a
            // procrastinated thief never regain speed through deque
            // growth.
            self.bands[thief.0] = 0;
            self.virtuals[thief.0] =
                self.clamp_virtual(self.virtuals[thief.0].max(self.floor(thief)));
            self.refresh(thief, actuator);
        }
        if self.config.policy.workpath() {
            // DOWN(w, v): one tempo lower than the victim (Fig. 5 l. 20),
            // bounded below by the thief's own workload floor.
            self.virtuals[thief.0] =
                self.clamp_virtual((self.virtuals[victim.0] + 1).max(self.floor(thief)));
            self.stats.path_downs += 1;
            self.trace(thief, TransitionKind::PathDown);
            self.refresh(thief, actuator);
            self.list.insert_thief(thief, victim);
        }
    }

    /// Hook: `w` popped null — it is out of work (paper Fig. 5 lines
    /// 5–14). Performs *Immediacy Relay*: every worker downstream of `w`
    /// is raised one tempo level, then `w` leaves the immediacy list.
    pub fn on_out_of_work<A: FrequencyActuator>(&mut self, w: WorkerId, actuator: &mut A) {
        if !self.config.policy.workpath() {
            return;
        }
        let downstream = self.list.downstream(w);
        if !downstream.is_empty() {
            self.stats.relays += 1;
            for d in downstream {
                // UP(w): removes relayed immediacy but never undercuts
                // the workload floor — a drained deque stays slow.
                self.virtuals[d.0] = (self.virtuals[d.0] - 1).max(self.floor(d));
                self.stats.relay_ups += 1;
                self.trace(d, TransitionKind::RelayUp);
                self.refresh(d, actuator);
            }
        }
        self.list.unlink(w);
    }

    /// Hook: `w` pushed a task; its deque now holds `len` tasks
    /// (paper Fig. 5, Algorithm 3.3).
    pub fn on_push<A: FrequencyActuator>(&mut self, w: WorkerId, len: usize, actuator: &mut A) {
        if !self.config.policy.workload() {
            return;
        }
        if self.table.should_raise(len, self.bands[w.0]) {
            self.bands[w.0] += 1;
            // UP(w) paired with the band move; the floor fell by one in
            // step, so this tracks exactly for floor-resting workers.
            self.virtuals[w.0] = (self.virtuals[w.0] - 1).max(self.floor(w));
            self.stats.workload_ups += 1;
            self.trace(w, TransitionKind::WorkloadUp);
            self.refresh(w, actuator);
        }
    }

    /// Hook: `w` popped a task from its own deque; the deque now holds
    /// `len` tasks (paper Fig. 5, Algorithm 3.4).
    pub fn on_pop<A: FrequencyActuator>(&mut self, w: WorkerId, len: usize, actuator: &mut A) {
        if !self.config.policy.workload() {
            return;
        }
        self.workload_lower(w, len, actuator);
    }

    /// Hook: `w` exhausted its bounded idle spin and is about to park on
    /// the host's idle primitive (condvar, futex…).
    ///
    /// A parked worker executes nothing, so under any non-baseline
    /// policy its core is pinned at the **slowest elected frequency** —
    /// the deepest tempo the paper's controller can express — without
    /// disturbing the worker's logical level: parking is a scheduler
    /// state, not a tempo transition, and the level must survive the nap
    /// so the first steal after waking is procrastinated relative to the
    /// right baseline. While parked, level changes (immediacy relays
    /// from other workers) are tracked but not actuated;
    /// [`on_unpark`](Self::on_unpark) actuates the then-current level.
    ///
    /// Idempotent per episode: a second `on_park` without an intervening
    /// unpark is a host bug and is ignored.
    pub fn on_park<A: FrequencyActuator>(&mut self, w: WorkerId, actuator: &mut A) {
        if self.parked[w.0] {
            return;
        }
        self.parked[w.0] = true;
        self.stats.parks += 1;
        if !self.config.policy.is_enabled() {
            return;
        }
        let slowest = self.config.freq_map.slowest();
        if self.config.freq_map.frequency(self.applied[w.0]) != slowest {
            self.stats.actuations += 1;
            actuator.apply(TempoChange {
                worker: w,
                level: self.level(w),
                frequency: slowest,
            });
        }
    }

    /// Hook: `w` woke from a park episode. Re-actuates the frequency of
    /// the worker's current tempo level if it differs from the parked
    /// (slowest) frequency the core was pinned at.
    pub fn on_unpark<A: FrequencyActuator>(&mut self, w: WorkerId, actuator: &mut A) {
        if !self.parked[w.0] {
            return;
        }
        self.parked[w.0] = false;
        self.stats.unparks += 1;
        if !self.config.policy.is_enabled() {
            return;
        }
        // The level may have moved while parked (relays); actuate
        // whatever is current now.
        self.applied[w.0] = self.level(w);
        let freq = self.config.freq_map.frequency(self.applied[w.0]);
        if freq != self.config.freq_map.slowest() {
            self.stats.actuations += 1;
            actuator.apply(TempoChange {
                worker: w,
                level: self.applied[w.0],
                frequency: freq,
            });
        }
    }

    /// Whether `w` is currently parked (between
    /// [`on_park`](Self::on_park) and [`on_unpark`](Self::on_unpark)).
    #[must_use]
    pub fn is_parked(&self, w: WorkerId) -> bool {
        self.parked[w.0]
    }

    /// Record one deque-size sample for the online profiler. Hosts call
    /// this for every worker once per profiler period.
    pub fn record_deque_sample(&mut self, deque_len: usize) {
        self.profiler.record(deque_len);
    }

    /// Recompute thresholds from the profiled window (paper §3.2); call
    /// once per profiler period after sampling.
    pub fn recompute_thresholds(&mut self) {
        if !self.config.policy.workload() {
            return;
        }
        self.table = self.profiler.recompute();
        self.stats.threshold_updates += 1;
    }

    /// The profiler period in nanoseconds (convenience for hosts).
    #[must_use]
    pub fn profiler_period_ns(&self) -> u64 {
        self.profiler.period_ns()
    }

    fn clamp_virtual(&self, v: i64) -> i64 {
        v.clamp(0, MAX_VIRTUAL)
    }

    /// The workload-justified minimum level of `w` (`K - S`), zero when
    /// workload sensitivity is disabled.
    fn floor(&self, w: WorkerId) -> i64 {
        if self.config.policy.workload() {
            (self.config.k_thresholds - self.bands[w.0]) as i64
        } else {
            0
        }
    }

    /// Workload-sensitive lowering shared by POP and STEAL: drop one band
    /// (slowing one tempo level), unless the worker heads an immediacy
    /// chain — the paper's single interaction point between the two
    /// strategies ("when a worker is at the beginning of the immediacy
    /// list, we choose not to reduce its tempo even if workload
    /// sensitivity advises so", §3.3).
    ///
    /// *Interpretation note* (see `DESIGN.md`): we read "at the beginning
    /// of the immediacy list" as *an active victim* — a worker currently
    /// linked into a chain with no more-immediate predecessor. A worker
    /// in no chain at all is subject to workload control as usual;
    /// otherwise the workload strategy would be inert in the unified
    /// algorithm, contradicting the additive contributions of the
    /// paper's Figs. 10–13. The guard only exists when workpath
    /// sensitivity participates; in workload-only mode there is no list
    /// to consult.
    fn workload_lower<A: FrequencyActuator>(&mut self, w: WorkerId, len: usize, actuator: &mut A) {
        if !self.table.should_lower(len, self.bands[w.0]) {
            return;
        }
        if self.config.policy.workpath() && self.list.is_linked(w) && self.list.is_head(w) {
            self.stats.guard_suppressions += 1;
            return;
        }
        self.bands[w.0] -= 1;
        self.virtuals[w.0] = self.clamp_virtual(self.virtuals[w.0] + 1);
        self.stats.workload_downs += 1;
        self.trace(w, TransitionKind::WorkloadDown);
        self.refresh(w, actuator);
    }

    /// Re-derive `w`'s level from its components and actuate on change.
    fn refresh<A: FrequencyActuator>(&mut self, w: WorkerId, actuator: &mut A) {
        let level = self.level(w);
        if level == self.applied[w.0] {
            return;
        }
        self.applied[w.0] = level;
        // A parked worker's core is pinned at the slowest frequency;
        // defer the actuation to on_unpark (which reads `applied`).
        if self.parked[w.0] {
            return;
        }
        self.stats.actuations += 1;
        actuator.apply(TempoChange {
            worker: w,
            level,
            frequency: self.config.freq_map.frequency(level),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordingActuator;

    fn config(policy: Policy, workers: usize, nfreq: usize) -> TempoConfig {
        let all = [2400u64, 1900, 1600, 1400, 1200];
        TempoConfig::builder()
            .policy(policy)
            .frequencies(
                all[..nfreq]
                    .iter()
                    .map(|&m| Frequency::from_mhz(m))
                    .collect(),
            )
            .workers(workers)
            .k_thresholds(2)
            .initial_average(4.0)
            .build()
    }

    fn w(i: usize) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn bootstrap_is_fastest_everywhere() {
        let mut ctl = TempoController::new(config(Policy::Unified, 4, 2));
        let mut act = RecordingActuator::new();
        ctl.initialize(&mut act);
        assert_eq!(act.changes().len(), 4);
        for i in 0..4 {
            assert_eq!(ctl.level(w(i)), TempoLevel::FASTEST);
            assert_eq!(ctl.frequency(w(i)), Frequency::from_mhz(2400));
            assert_eq!(ctl.band(w(i)), 2, "top band assumed at bootstrap");
        }
    }

    #[test]
    fn thief_procrastination_slows_thief_one_level() {
        // Workpath-only view: the pure procrastination chain of Fig. 3.
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 4, 3));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 2, &mut act);
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        assert_eq!(ctl.level(w(1)), TempoLevel(1));
        assert_eq!(ctl.virtual_level(w(1)), 1);
        assert_eq!(act.last_frequency(w(1)), Some(Frequency::from_mhz(1900)));
        // Thief's thief is slower still (paper Fig. 3(c)).
        ctl.on_steal(w(2), w(1), 2, &mut act);
        assert_eq!(ctl.level(w(2)), TempoLevel(2));
    }

    #[test]
    fn unified_thief_starts_at_its_workload_floor() {
        // Fig. 4(b) in the unified setting: a fresh thief's empty deque
        // puts it at the lowest workload tempo (floor K), dominating the
        // one-below-victim rule until its deque grows.
        let mut ctl = TempoController::new(config(Policy::Unified, 4, 3));
        let mut act = RecordingActuator::new();
        let above = ctl.thresholds().thresholds()[1] + 1;
        ctl.on_steal(w(1), w(0), above, &mut act);
        assert_eq!(ctl.band(w(1)), 0, "band re-synced to the empty deque");
        assert_eq!(ctl.level(w(1)), TempoLevel(2), "floor K = 2 dominates");
        // Deque growth across both thresholds restores the fast tempo.
        let t = ctl.thresholds().thresholds().to_vec();
        ctl.on_push(w(1), t[0] + 1, &mut act);
        ctl.on_push(w(1), t[1] + 1, &mut act);
        assert_eq!(ctl.level(w(1)), TempoLevel(0));
    }

    #[test]
    fn logical_levels_deepen_but_frequency_saturates() {
        // §3.3/§3.4: a thief's thief keeps a logically slower tempo than
        // its victim even when 2-frequency control maps both onto the
        // same slow frequency — so one relay raises both without
        // reordering them.
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 4, 2));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 2, &mut act);
        ctl.on_steal(w(2), w(1), 2, &mut act);
        ctl.on_steal(w(3), w(2), 2, &mut act);
        assert_eq!(ctl.level(w(1)), TempoLevel(1));
        assert_eq!(ctl.level(w(2)), TempoLevel(2));
        assert_eq!(ctl.level(w(3)), TempoLevel(3));
        // All of them actuate the slow (second) frequency.
        for i in 1..4 {
            assert_eq!(ctl.frequency(w(i)), Frequency::from_mhz(1900));
        }
        // Relay from w1: w2 and w3 rise one LEVEL; w2 regains the fast
        // frequency, w3 is still slow and still behind w2.
        ctl.on_out_of_work(w(1), &mut act);
        assert_eq!(ctl.level(w(2)), TempoLevel(1));
        assert_eq!(ctl.level(w(3)), TempoLevel(2));
        assert!(
            ctl.level(w(3)) > ctl.level(w(2)),
            "relative order preserved"
        );
    }

    #[test]
    fn immediacy_relay_raises_all_downstream() {
        // Paper Fig. 3(d)-(e): worker 1 finishes; its thief (2) and the
        // thief's thief (3) each rise one level.
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 4, 3));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(2), w(1), 2, &mut act);
        ctl.on_steal(w(3), w(2), 2, &mut act);
        assert_eq!(ctl.level(w(2)), TempoLevel(1));
        assert_eq!(ctl.level(w(3)), TempoLevel(2));
        ctl.on_out_of_work(w(1), &mut act);
        assert_eq!(ctl.level(w(2)), TempoLevel(0));
        assert_eq!(ctl.level(w(3)), TempoLevel(1));
        assert!(ctl.level(w(3)) > ctl.level(w(2)));
        assert_eq!(ctl.stats().relays, 1);
        assert_eq!(ctl.stats().relay_ups, 2);
        // w1 left the chain; w2 is now a head.
        assert!(ctl.immediacy().is_head(w(2)));
    }

    #[test]
    fn out_of_work_without_thieves_is_quiet() {
        let mut ctl = TempoController::new(config(Policy::Unified, 2, 2));
        let mut act = RecordingActuator::new();
        ctl.on_out_of_work(w(0), &mut act);
        assert_eq!(ctl.stats().relays, 0);
        assert!(act.changes().is_empty());
    }

    #[test]
    fn workload_bands_follow_deque_size_absolutely() {
        // Fig. 4 narrative: tempo reflects the deque-size band.
        let mut ctl = TempoController::new(config(Policy::WorkloadOnly, 1, 3));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        assert_eq!(ctl.band(w(0)), 2);
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        // Drain below the second threshold: one band down, one level
        // slower.
        ctl.on_pop(w(0), t[1] - 1, &mut act);
        assert_eq!(ctl.band(w(0)), 1);
        assert_eq!(ctl.level(w(0)), TempoLevel(1));
        // Below the first threshold: slowest workload tempo (Fig. 4(f)).
        ctl.on_pop(w(0), t[0] - 1, &mut act);
        assert_eq!(ctl.band(w(0)), 0);
        assert_eq!(ctl.level(w(0)), TempoLevel(2));
        // Pushes past thresholds climb back toward the fastest.
        ctl.on_push(w(0), t[0] + 1, &mut act);
        assert_eq!(ctl.level(w(0)), TempoLevel(1));
        ctl.on_push(w(0), t[1] + 1, &mut act);
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        assert_eq!(ctl.stats().workload_ups, 2);
        assert_eq!(ctl.stats().workload_downs, 2);
    }

    #[test]
    fn band_oscillation_does_not_ratchet_levels() {
        // The regression the compositional semantics prevent: repeated
        // band up/down cycles must return to the same level.
        let mut ctl = TempoController::new(config(Policy::WorkloadOnly, 1, 2));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        let start = ctl.level(w(0));
        for _ in 0..10 {
            ctl.on_pop(w(0), t[1] - 1, &mut act);
            ctl.on_push(w(0), t[1] + 1, &mut act);
        }
        assert_eq!(ctl.level(w(0)), start);
    }

    #[test]
    fn steal_lowers_victim_workload_band() {
        let mut ctl = TempoController::new(config(Policy::WorkloadOnly, 2, 3));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        // A steal dropping the victim's deque below a threshold lowers it
        // one band per event.
        ctl.on_steal(w(1), w(0), t[1] - 1, &mut act);
        assert_eq!(ctl.band(w(0)), 1);
        assert_eq!(ctl.level(w(0)), TempoLevel(1));
    }

    #[test]
    fn head_guard_protects_active_victims() {
        // The single interaction of the two strategies (paper §3.3): an
        // active victim — linked head of an immediacy chain — keeps its
        // tempo even when its deque shrinks.
        let mut ctl = TempoController::new(config(Policy::Unified, 3, 3));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        // First steal: w0 (band 2, fast) becomes a linked chain head; the
        // victim-side check is evaluated before the link forms (paper
        // order), so it may lower once.
        ctl.on_steal(w(1), w(0), t[1] + 1, &mut act);
        assert!(ctl.immediacy().is_head(w(0)));
        assert_eq!(ctl.band(w(0)), 2);
        // Now linked: pops draining its deque are suppressed.
        ctl.on_pop(w(0), t[1] - 1, &mut act);
        assert_eq!(ctl.band(w(0)), 2, "band frozen by guard");
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        assert_eq!(ctl.stats().guard_suppressions, 1);
        // A second steal is suppressed too.
        ctl.on_steal(w(2), w(0), t[0] - 1, &mut act);
        assert_eq!(ctl.stats().guard_suppressions, 2);
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        // A worker in NO chain is subject to workload lowering as usual:
        // grow w1's deque into band 1 first, then drain it.
        ctl.on_out_of_work(w(1), &mut act); // w1 unlinks itself
        ctl.on_push(w(1), t[0] + 1, &mut act);
        assert_eq!(ctl.band(w(1)), 1);
        ctl.on_pop(w(1), t[0] - 1, &mut act);
        assert_eq!(ctl.band(w(1)), 0, "unlinked workers lower freely");
    }

    #[test]
    fn baseline_policy_never_actuates() {
        let mut ctl = TempoController::new(config(Policy::Baseline, 4, 2));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 5, &mut act);
        ctl.on_push(w(0), 100, &mut act);
        ctl.on_pop(w(0), 0, &mut act);
        ctl.on_out_of_work(w(0), &mut act);
        assert!(act.changes().is_empty());
        assert_eq!(ctl.level(w(1)), TempoLevel::FASTEST);
        // Steals are still counted for reporting parity.
        assert_eq!(ctl.stats().steals, 1);
    }

    #[test]
    fn workpath_only_ignores_thresholds() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 2, 2));
        let mut act = RecordingActuator::new();
        ctl.on_push(w(0), 1000, &mut act);
        ctl.on_pop(w(0), 0, &mut act);
        assert_eq!(ctl.stats().workload_ups, 0);
        assert_eq!(ctl.stats().workload_downs, 0);
        assert_eq!(ctl.level(w(0)), TempoLevel::FASTEST);
    }

    #[test]
    fn workload_only_has_no_head_guard() {
        // In workload-only mode no immediacy list exists; the guard must
        // not suppress lowering (otherwise the strategy would be inert).
        let mut ctl = TempoController::new(config(Policy::WorkloadOnly, 2, 2));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        ctl.on_pop(w(0), t[1] - 1, &mut act);
        assert_eq!(ctl.stats().workload_downs, 1);
        assert_eq!(ctl.stats().guard_suppressions, 0);
    }

    #[test]
    fn unified_composes_both_signals() {
        let mut ctl = TempoController::new(config(Policy::Unified, 2, 2));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        // Fresh thief: procrastinated AND at its empty-deque floor (K=2).
        ctl.on_steal(w(1), w(0), t[1] + 1, &mut act);
        assert_eq!(ctl.band(w(1)), 0);
        assert_eq!(ctl.level(w(1)), TempoLevel(2));
        // One band of deque growth: one level back.
        ctl.on_push(w(1), t[0] + 1, &mut act);
        assert_eq!(ctl.level(w(1)), TempoLevel(1));
        // A relay then removes the procrastination remainder.
        ctl.on_out_of_work(w(0), &mut act);
        assert_eq!(
            ctl.level(w(1)),
            TempoLevel(0).max(TempoLevel(ctl.virtual_level(w(1)).max(0) as usize))
        );
        assert!(ctl.level(w(1)) <= TempoLevel(1));
    }

    #[test]
    fn deque_growth_cancels_procrastination() {
        // The "best of both worlds" mechanism (§4.2): a thief whose
        // stolen subtree builds a deep deque regains the fast tempo even
        // before any relay — its work became immediate by volume.
        let mut ctl = TempoController::new(config(Policy::Unified, 2, 2));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        ctl.on_steal(w(1), w(0), t[1] + 1, &mut act);
        // Fresh thief: empty deque -> band 0, level = floor K = 2.
        assert_eq!(ctl.level(w(1)), TempoLevel(2));
        // Its stolen subtree fans out: deque grows across both
        // thresholds; the workload UPs restore the fastest tempo without
        // waiting for a relay.
        ctl.on_push(w(1), t[0] + 1, &mut act);
        ctl.on_push(w(1), t[1] + 1, &mut act);
        assert_eq!(ctl.level(w(1)), TempoLevel(0));
        assert_eq!(ctl.frequency(w(1)), Frequency::from_mhz(2400));
    }

    #[test]
    fn threshold_recomputation_follows_profile() {
        let mut ctl = TempoController::new(config(Policy::Unified, 2, 2));
        for _ in 0..8 {
            ctl.record_deque_sample(30);
        }
        ctl.recompute_thresholds();
        assert_eq!(ctl.thresholds().thresholds(), &[20, 40]);
        assert_eq!(ctl.stats().threshold_updates, 1);
    }

    #[test]
    fn workload_only_skips_threshold_updates_when_disabled() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 2, 2));
        ctl.record_deque_sample(30);
        ctl.recompute_thresholds();
        assert_eq!(ctl.stats().threshold_updates, 0);
    }

    #[test]
    fn actuations_only_on_level_change() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 4, 2));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 3, &mut act);
        assert_eq!(act.changes().len(), 1);
        // Re-steal from the same fast victim: path stays 1, no actuation.
        ctl.on_out_of_work(w(1), &mut act);
        ctl.on_steal(w(1), w(0), 2, &mut act);
        assert_eq!(act.changes().len(), 1);
        assert_eq!(ctl.stats().actuations, 1);
    }

    #[test]
    fn full_figure3_scenario() {
        // Walk the complete paper Fig. 3 example on 3 tempo levels.
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 4, 3));
        let mut act = RecordingActuator::new();
        // (b) worker 2 steals from worker 1.
        ctl.on_steal(w(1), w(0), 1, &mut act);
        // (c) worker 3 steals from worker 2.
        ctl.on_steal(w(2), w(1), 1, &mut act);
        assert_eq!(
            (ctl.level(w(0)).0, ctl.level(w(1)).0, ctl.level(w(2)).0),
            (0, 1, 2)
        );
        // (d)-(e) worker 1 finishes all tasks: relay.
        ctl.on_out_of_work(w(0), &mut act);
        assert_eq!(
            (ctl.level(w(1)).0, ctl.level(w(2)).0),
            (0, 1),
            "both thieves rise one level, order preserved"
        );
        // (f) worker 1 steals from worker 2 — the old victim becomes a
        // thief, one level slower than its new victim.
        ctl.on_steal(w(0), w(1), 1, &mut act);
        assert_eq!(ctl.level(w(0)), TempoLevel(1));
        assert!(ctl.immediacy().is_head(w(1)));
    }

    #[test]
    fn transition_trace_mirrors_stats_counters() {
        let mut ctl = TempoController::new(config(Policy::Unified, 4, 3));
        let mut act = RecordingActuator::new();
        ctl.set_tracing(true);
        assert!(ctl.tracing());
        let t = ctl.thresholds().thresholds().to_vec();
        ctl.on_steal(w(1), w(0), t[1] + 1, &mut act);
        ctl.on_push(w(1), t[0] + 1, &mut act);
        ctl.on_pop(w(1), t[0] - 1, &mut act);
        ctl.on_out_of_work(w(0), &mut act);
        let mut counts = std::collections::HashMap::new();
        let mut records = Vec::new();
        ctl.drain_transitions(|r| {
            *counts.entry(r.kind).or_insert(0u64) += 1;
            records.push(r);
        });
        let stats = ctl.stats();
        assert_eq!(
            counts.get(&TransitionKind::PathDown).copied().unwrap_or(0),
            stats.path_downs
        );
        assert_eq!(
            counts.get(&TransitionKind::RelayUp).copied().unwrap_or(0),
            stats.relay_ups
        );
        assert_eq!(
            counts
                .get(&TransitionKind::WorkloadUp)
                .copied()
                .unwrap_or(0),
            stats.workload_ups
        );
        assert_eq!(
            counts
                .get(&TransitionKind::WorkloadDown)
                .copied()
                .unwrap_or(0),
            stats.workload_downs
        );
        assert_eq!(records.len() as u64, stats.total_transitions());
        // The buffer drained; a second drain sees nothing.
        let mut more = 0;
        ctl.drain_transitions(|_| more += 1);
        assert_eq!(more, 0);
        // Disabling tracing clears and stops buffering.
        ctl.set_tracing(false);
        ctl.on_steal(w(2), w(0), 1, &mut act);
        ctl.drain_transitions(|_| more += 1);
        assert_eq!(more, 0);
    }

    #[test]
    fn tracing_off_by_default_buffers_nothing() {
        let mut ctl = TempoController::new(config(Policy::Unified, 2, 2));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 5, &mut act);
        let mut n = 0;
        ctl.drain_transitions(|_| n += 1);
        assert_eq!(n, 0);
        assert!(!ctl.tracing());
    }

    #[test]
    fn park_pins_slowest_and_unpark_restores_level() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 2, 3));
        let mut act = RecordingActuator::new();
        // Worker 0 runs allegro; parking pins its core at the slowest
        // elected frequency without touching the logical level.
        ctl.on_park(w(0), &mut act);
        assert!(ctl.is_parked(w(0)));
        assert_eq!(act.last_frequency(w(0)), Some(Frequency::from_mhz(1600)));
        assert_eq!(ctl.level(w(0)), TempoLevel::FASTEST, "level survives");
        assert_eq!(ctl.stats().parks, 1);
        // Double-park is a host bug and a no-op.
        let before = act.changes().len();
        ctl.on_park(w(0), &mut act);
        assert_eq!(act.changes().len(), before);
        assert_eq!(ctl.stats().parks, 1);
        // Unpark restores the level frequency.
        ctl.on_unpark(w(0), &mut act);
        assert!(!ctl.is_parked(w(0)));
        assert_eq!(act.last_frequency(w(0)), Some(Frequency::from_mhz(2400)));
        // Every completed park came back through on_unpark, and a
        // double-unpark (host bug) is a no-op on the counter too.
        assert_eq!(ctl.stats().unparks, 1);
        ctl.on_unpark(w(0), &mut act);
        assert_eq!(ctl.stats().unparks, 1);
        // Every park/unpark apply was counted as an actuation.
        assert_eq!(ctl.stats().actuations, act.changes().len() as u64);
    }

    #[test]
    fn park_at_slowest_level_does_not_actuate() {
        // A deeply procrastinated thief already sits at the slowest
        // frequency: parking must not produce a redundant actuation.
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 2, 2));
        let mut act = RecordingActuator::new();
        ctl.on_steal(w(1), w(0), 2, &mut act); // w1 -> level 1 = slowest of 2
        let before = act.changes().len();
        ctl.on_park(w(1), &mut act);
        ctl.on_unpark(w(1), &mut act);
        assert_eq!(act.changes().len(), before, "no redundant actuations");
    }

    #[test]
    fn relay_while_parked_defers_actuation_to_unpark() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 3, 3));
        let mut act = RecordingActuator::new();
        // w1 steals from w0 (level 1), then parks at the slowest pin.
        ctl.on_steal(w(1), w(0), 2, &mut act);
        ctl.on_park(w(1), &mut act);
        assert_eq!(act.last_frequency(w(1)), Some(Frequency::from_mhz(1600)));
        // w0 runs dry: the relay raises parked w1 back to level 0, but
        // the actuation is deferred — the core stays pinned.
        ctl.on_out_of_work(w(0), &mut act);
        assert_eq!(ctl.level(w(1)), TempoLevel(0));
        assert_eq!(act.last_frequency(w(1)), Some(Frequency::from_mhz(1600)));
        // Unpark actuates the relayed level.
        ctl.on_unpark(w(1), &mut act);
        assert_eq!(act.last_frequency(w(1)), Some(Frequency::from_mhz(2400)));
    }

    #[test]
    fn baseline_policy_parks_without_actuating() {
        let mut ctl = TempoController::new(config(Policy::Baseline, 2, 2));
        let mut act = RecordingActuator::new();
        ctl.on_park(w(0), &mut act);
        ctl.on_unpark(w(0), &mut act);
        assert!(act.changes().is_empty(), "baseline never actuates");
        assert_eq!(ctl.stats().parks, 1, "parks still counted for reports");
    }

    #[test]
    fn virtual_level_is_bounded() {
        let mut ctl = TempoController::new(config(Policy::WorkpathOnly, 2, 2));
        let mut act = RecordingActuator::new();
        for _ in 0..200 {
            // Pathological ping-pong stealing between two workers.
            ctl.on_steal(w(1), w(0), 1, &mut act);
            ctl.on_steal(w(0), w(1), 1, &mut act);
        }
        assert!(ctl.virtual_level(w(0)) <= 60);
        assert!(ctl.virtual_level(w(1)) <= 60);
    }

    #[test]
    fn band_oscillation_does_not_ratchet() {
        // Full band round trips conserve the level: DOWNs are never
        // clipped (levels may exceed the frequency count) and UPs are
        // only clipped at the fastest tempo, so repeated drain/climb
        // cycles return to the starting level.
        let mut ctl = TempoController::new(config(Policy::WorkloadOnly, 1, 2));
        let mut act = RecordingActuator::new();
        let t = ctl.thresholds().thresholds().to_vec();
        for _ in 0..10 {
            ctl.on_pop(w(0), t[1] - 1, &mut act);
            ctl.on_pop(w(0), t[0] - 1, &mut act);
            ctl.on_push(w(0), t[0] + 1, &mut act);
            ctl.on_push(w(0), t[1] + 1, &mut act);
        }
        assert_eq!(ctl.level(w(0)), TempoLevel(0));
        assert_eq!(ctl.virtual_level(w(0)), 0);
    }
}
