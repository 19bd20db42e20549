//! What every workload shares: the program configuration, the metric
//! tables, counter deltas and the end-to-end arithmetic.

use crate::stats::{median, samples_beyond, slo_met_frac, valid_metric_name, windowed};
use hermes_core::{Frequency, Policy, TempoConfig, TempoStats};
use hermes_rt::{Pool, RtStats};
use std::time::Instant;

/// Workers of every pool the benchmark builds: one per core of the
/// two-core hosts the benchmark is sized for.
pub const WORKERS: usize = 2;

/// Fresh set-ups a run is split across: each segment builds its own pool
/// or server and measures its share of the run. Latency drifts between
/// regimes lasting seconds (the tempo and elastic controllers settle
/// differently, the host steals cycles in bursts), so independent
/// set-ups agree better run to run than one long stretch. `setup_s` is
/// the median of the segments' set-up times.
pub const SEGMENTS: usize = 10;

/// The paper's tempo configuration: the unified policy over two
/// frequency levels.
#[must_use]
pub fn tempo() -> TempoConfig {
    TempoConfig::builder()
        .policy(Policy::Unified)
        .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
        .workers(WORKERS)
        .build()
}

/// Fastest frequency and busy watts of the emulated DVFS driver, which
/// puts joules on every workload.
pub const FASTEST_MHZ: u64 = 2400;
pub const BUSY_WATTS: f64 = 8.0;

/// The closed-loop workloads' pool: the paper's configuration.
#[must_use]
pub fn paper_pool() -> Pool {
    Pool::builder()
        .workers(WORKERS)
        .tempo(tempo())
        .emulated_dvfs(Frequency::from_mhz(FASTEST_MHZ), BUSY_WATTS)
        .build()
}

/// End-to-end metrics, printed by the untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("energy_mj_per_op", "mJ"),
    ("ok_frac", "ratio"),
    ("slo_met_frac", "ratio"),
];

/// Per-layer metrics, printed by the traced run (name, unit). A layer
/// the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("rt.join_self_ns", "ns"),
    ("rt.install_enter_us", "us"),
    ("rt.install_exit_us", "us"),
    ("rt.pushes_per_op", "count"),
    ("rt.steals_per_op", "count"),
    ("rt.steal_success_ratio", "ratio"),
    ("rt.parked_frac", "ratio"),
    ("rt.parks_per_op", "count"),
    ("rt.slept_frac", "ratio"),
    ("rt.wakes_per_s", "1/s"),
    ("rt.future_repushes_per_op", "count"),
    ("core.transitions_per_op", "count"),
    ("core.actuations_per_op", "count"),
    ("core.relays_per_op", "count"),
    ("deque.push_pop_ns", "ns"),
    ("deque.steal_ns", "ns"),
    ("deque.injector_push_pop_ns", "ns"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.wake_to_poll_us", "us"),
    ("serve.shed_frac.background", "ratio"),
    ("serve.shed_frac.high", "ratio"),
    ("serve.high_latency_tail_ms", "ms"),
    ("workloads.radix_ms", "ms"),
    ("workloads.sample_ms", "ms"),
    ("workloads.knn_ms", "ms"),
    ("workloads.ray_ms", "ms"),
    ("workloads.hull_ms", "ms"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("self.bench_ms_per_op", "ms"),
    ("self.loadgen_ms_per_op", "ms"),
    ("self.rt_ms_per_op", "ms"),
    ("self.serve_ms_per_op", "ms"),
    ("self.user_ms_per_op", "ms"),
    ("self.workloads_ms_per_op", "ms"),
];

/// Metric values keyed by name, printed in the order of one of the
/// tables above.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set `name`, which must be listed in `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `table`'s metrics as a JSON object, unset ones reading 0.
    #[must_use]
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                debug_assert!(valid_metric_name(name));
                let value = self.get(name).unwrap_or(0.0);
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations (closed loop) or requests (open loop) attempted.
    pub attempted: u64,
    /// Wrong outputs and panics. A shed request is not a failure: it is
    /// the server's designed answer to load, and shows in `ok_frac` and
    /// `slo_met_frac` instead.
    pub failed: u64,
    /// Broken identities; any entry fails the run.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// Count `outcomes` as attempted, and the `None`s among them as failed.
    pub fn count(&mut self, outcomes: &[Option<f64>]) {
        self.attempted += outcomes.len() as u64;
        self.failed += outcomes.iter().filter(|o| o.is_none()).count() as u64;
    }
}

/// Seconds since `t0`.
#[must_use]
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Closed-loop outcome of one measured stretch.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Makespan of every op, in ms; `None` marks an op whose output
    /// was wrong or that panicked.
    pub outcomes: Vec<Option<f64>>,
    /// Sum of op makespans, in seconds.
    pub busy_s: f64,
    /// Emulated joules drawn inside op brackets.
    pub energy_j: f64,
}

/// The untraced closed loop: [`SEGMENTS`] times a timed `setup`, then
/// `measure` for that segment's share of `seconds`. Reports the
/// end-to-end metrics, with median and tail over windows of `window_s`
/// seconds and `setup_s` the median set-up.
#[allow(clippy::too_many_arguments)]
pub fn run_closed_loop<R>(
    name: &str,
    seconds: f64,
    window_s: f64,
    tail_bp: u32,
    slo_ms: f64,
    mut setup: impl FnMut() -> R,
    mut measure: impl FnMut(&R, f64) -> ClosedLoop,
    out: &mut RunResult,
) {
    let mut setup_s = Vec::with_capacity(SEGMENTS);
    let mut all = ClosedLoop::default();
    for _ in 0..SEGMENTS {
        let t0 = Instant::now();
        let ready = setup();
        setup_s.push(secs(t0));
        let seg = measure(&ready, seconds / SEGMENTS as f64);
        all.outcomes.extend(seg.outcomes);
        all.busy_s += seg.busy_s;
        all.energy_j += seg.energy_j;
    }
    out.metrics.set("setup_s", median(&setup_s));
    out.count(&all.outcomes);
    let windows = (seconds / window_s).ceil() as usize;
    let m = &mut out.metrics;
    match set_end_to_end(
        m,
        &all.outcomes,
        windows,
        all.busy_s,
        all.energy_j,
        tail_bp,
        slo_ms,
    ) {
        Ok(note) => println!("{name}: {note}"),
        Err(e) => out.violations.push(e),
    }
}

/// End-to-end latency, throughput, energy and outcome shares.
///
/// `outcomes` holds one entry per attempted op, in order: its latency in
/// ms, or `None` if it failed or was shed. Median and tail are medians
/// over `windows` stretches of the run (see [`windowed`]). Throughput
/// counts correct ops over `time_s`.
pub fn set_end_to_end(
    m: &mut Metrics,
    outcomes: &[Option<f64>],
    windows: usize,
    time_s: f64,
    energy_j: f64,
    tail_bp: u32,
    slo_ms: f64,
) -> Result<String, String> {
    let ok = outcomes.iter().flatten().count();
    let w = windowed(outcomes, windows, tail_bp)
        .ok_or_else(|| format!("{ok} correct ops in {windows} windows: too few for a tail"))?;
    m.set("latency_p50_ms", w.p50);
    m.set("latency_tail_ms", w.tail);
    m.set("throughput_per_s", ok as f64 / time_s);
    m.set("energy_mj_per_op", energy_j * 1e3 / outcomes.len() as f64);
    m.set("ok_frac", ok as f64 / outcomes.len() as f64);
    m.set("slo_met_frac", slo_met_frac(outcomes, slo_ms));
    Ok(format!(
        "{ok} correct of {} ops; p50 and tail = p{} are medians over {windows} windows of >= {} samples ({} beyond the tail in the smallest)",
        outcomes.len(),
        f64::from(w.tail_bp) / 100.0,
        w.min_samples,
        samples_beyond(w.min_samples, w.tail_bp)
    ))
}

/// Public counters of a pool at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    rt: RtStats,
    tempo: TempoStats,
    at: Instant,
}

impl Counters {
    #[must_use]
    pub fn read(pool: &Pool) -> Self {
        Counters {
            rt: pool.stats(),
            tempo: pool.tempo_stats(),
            at: Instant::now(),
        }
    }

    /// The `rt.*` scheduler/park/elastic/future and `core.*` tempo
    /// metrics over the interval since `before`, per op.
    pub fn set_layer_deltas(&self, before: &Counters, ops: u64, m: &mut Metrics) {
        let (a, b) = (&self.rt, &before.rt);
        let (ta, tb) = (&self.tempo, &before.tempo);
        let ops = ops.max(1) as f64;
        let wall_ns = self.at.duration_since(before.at).as_nanos().max(1) as f64;
        let d = |x: u64, y: u64| x.saturating_sub(y) as f64;
        let steals = d(a.steals, b.steals);
        let attempts = steals + d(a.failed_steals(), b.failed_steals());
        m.set("rt.pushes_per_op", d(a.pushes, b.pushes) / ops);
        m.set("rt.steals_per_op", steals / ops);
        m.set(
            "rt.steal_success_ratio",
            if attempts > 0.0 {
                steals / attempts
            } else {
                0.0
            },
        );
        let worker_ns = wall_ns * WORKERS as f64;
        m.set("rt.parked_frac", d(a.parked_ns, b.parked_ns) / worker_ns);
        m.set("rt.parks_per_op", d(a.parks, b.parks) / ops);
        m.set("rt.slept_frac", d(a.slept_ns, b.slept_ns) / worker_ns);
        m.set("rt.wakes_per_s", d(a.wakes, b.wakes) * 1e9 / wall_ns);
        m.set(
            "rt.future_repushes_per_op",
            d(a.future_repushes, b.future_repushes) / ops,
        );
        m.set(
            "core.transitions_per_op",
            d(ta.total_transitions(), tb.total_transitions()) / ops,
        );
        m.set(
            "core.actuations_per_op",
            d(ta.actuations, tb.actuations) / ops,
        );
        m.set("core.relays_per_op", d(ta.relays, tb.relays) / ops);
    }
}

/// `self.<layer>_ms_per_op` from a traced phase's spans.
pub fn set_self_times(spans: &[crate::trace::Span], ops: u64, m: &mut Metrics) {
    const NAMES: [&str; crate::trace::LAYERS.len()] = [
        "self.bench_ms_per_op",
        "self.loadgen_ms_per_op",
        "self.rt_ms_per_op",
        "self.serve_ms_per_op",
        "self.user_ms_per_op",
        "self.workloads_ms_per_op",
    ];
    let totals = crate::trace::layer_self_ns(spans);
    for (name, ns) in NAMES.iter().zip(totals) {
        m.set(name, ns as f64 / 1e6 / ops.max(1) as f64);
    }
}

/// `rt.install_enter_us` and `rt.install_exit_us`: medians over every
/// traced `rt.install` span of the gap from the call to the job's first
/// line, and from the job's last line to the call returning.
pub fn set_install_overheads(spans: &[crate::trace::Span], m: &mut Metrics) {
    let installs: std::collections::HashMap<u64, &crate::trace::Span> = spans
        .iter()
        .filter(|s| s.name == "rt.install")
        .map(|s| (s.id, s))
        .collect();
    let (mut enter, mut exit) = (Vec::new(), Vec::new());
    for body in spans {
        if let Some(install) = installs.get(&body.parent) {
            enter.push(body.start.saturating_sub(install.start) as f64 / 1e3);
            exit.push(install.end.saturating_sub(body.end) as f64 / 1e3);
        }
    }
    m.set(
        "rt.install_enter_us",
        crate::stats::percentile_or_zero(&enter, 5000),
    );
    m.set(
        "rt.install_exit_us",
        crate::stats::percentile_or_zero(&exit, 5000),
    );
}
