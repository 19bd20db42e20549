//! `finegrain`: `fib(20)` as recursive `join` with no cutoff, closed loop.
//!
//! About 11k joins per job of a few milliseconds, so most of an op is
//! runtime overhead: deque operations, the join latch, tempo hooks and
//! the shared counters. Join/deque hot-path changes show here first.

use crate::common::{
    paper_pool, run_closed_loop, secs, set_install_overheads, set_self_times, ClosedLoop, Counters,
    Metrics, RunResult, WORKERS,
};
use crate::trace::{next_id, self_ns_of, Span, Tracer};
use hermes_rt::{join, Pool};
use std::collections::HashSet;
use std::time::Instant;

const N: u64 = 20;
const FIB_N: u64 = 6765;
const WARMUP_JOBS: usize = 50;
/// Median and tail are medians over windows of `WINDOW_S` seconds; the
/// tail is p98: ~3.5 ms jobs give ~850 samples a window, 17 of them
/// beyond p98.
const WINDOW_S: f64 = 3.0;
const TAIL_BP: u32 = 9800;
/// Latency limit of one job.
const SLO_MS: f64 = 20.0;
/// The traced phase records the full join tree of every `TRACE_EVERY`th
/// job, at most `TRACED_JOBS` of them (~33k spans each); the other jobs
/// record only their install and op spans.
const TRACE_EVERY: usize = 32;
const TRACED_JOBS: usize = 4;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// `fib` with a span around every `join` and around each of its two
/// branches.
fn fib_traced(n: u64, t: &Tracer, op: u64, parent: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let id = next_id();
    let start = t.now();
    let (a, b) = join(|| branch(n - 1, t, op, id), || branch(n - 2, t, op, id));
    t.close("rt.join", id, parent, op, start);
    a + b
}

fn branch(n: u64, t: &Tracer, op: u64, parent: u64) -> u64 {
    let id = next_id();
    let start = t.now();
    let r = fib_traced(n, t, op, id);
    t.close("user.fib", id, parent, op, start);
    r
}

/// One job. `trace` carries the tracer and whether to record the join
/// tree. Returns the result, makespan in seconds and joules drawn.
fn job(pool: &Pool, trace: Option<(&Tracer, bool)>) -> (u64, f64, f64) {
    let e0 = pool.total_energy().unwrap_or(0.0);
    let t0 = Instant::now();
    let r = match trace {
        None => pool.install(|| fib(N)),
        Some((t, tree)) => {
            let (op, install, body) = (next_id(), next_id(), next_id());
            let start = t.now();
            let r = pool.install(|| {
                let s = t.now();
                let r = if tree {
                    fib_traced(N, t, op, body)
                } else {
                    fib(N)
                };
                t.close("user.fib", body, install, op, s);
                r
            });
            t.close("rt.install", install, op, op, start);
            t.close("bench.op", op, 0, op, start);
            r
        }
    };
    let makespan = t0.elapsed().as_secs_f64();
    (r, makespan, pool.total_energy().unwrap_or(0.0) - e0)
}

fn measure(pool: &Pool, seconds: f64, trace: Option<&Tracer>) -> ClosedLoop {
    let mut res = ClosedLoop::default();
    let start = Instant::now();
    let mut traced_jobs = 0;
    while secs(start) < seconds {
        let i = res.outcomes.len();
        let tree = i % TRACE_EVERY == 0 && traced_jobs < TRACED_JOBS;
        traced_jobs += usize::from(tree && trace.is_some());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job(pool, trace.map(|t| (t, tree)))
        }));
        match run {
            Ok((r, makespan, joules)) => {
                res.busy_s += makespan;
                res.energy_j += joules;
                res.outcomes.push((r == FIB_N).then_some(makespan * 1e3));
            }
            Err(_) => res.outcomes.push(None),
        }
    }
    res
}

fn setup() -> Pool {
    let pool = paper_pool();
    for _ in 0..WARMUP_JOBS {
        std::hint::black_box(job(&pool, None));
    }
    pool
}

/// The job input is fixed (`fib(20)`), so the seed selects nothing here.
pub fn run(_seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> RunResult {
    let mut out = RunResult::default();
    if traced {
        let mut pool = setup();
        let before = Counters::read(&pool);
        let plain = measure(&pool, seconds / 2.0, None);
        let m = &mut out.metrics;
        Counters::read(&pool).set_layer_deltas(&before, plain.outcomes.len() as u64, m);
        let tracer = Tracer::new(WORKERS);
        let traced_run = measure(&pool, seconds / 2.0, Some(&tracer));
        pool.stop();
        let spans = tracer.into_spans();
        set_trace_metrics(&spans, &plain, &traced_run, m);
        if let Err(e) = crate::trace::write_spans(&spans, trace_path) {
            out.violations
                .push(format!("writing {}: {e}", trace_path.display()));
        }
        out.count(&plain.outcomes);
        out.count(&traced_run.outcomes);
    } else {
        run_closed_loop(
            "finegrain",
            seconds,
            WINDOW_S,
            TAIL_BP,
            SLO_MS,
            setup,
            |pool: &Pool, s| measure(pool, s, None),
            &mut out,
        );
    }
    if out.failed > 0 {
        out.violations.push(format!(
            "{} jobs returned a wrong fib or panicked",
            out.failed
        ));
    }
    out
}

fn set_trace_metrics(spans: &[Span], plain: &ClosedLoop, traced: &ClosedLoop, m: &mut Metrics) {
    let rate = |r: &ClosedLoop| r.outcomes.len() as f64 / r.busy_s.max(f64::MIN_POSITIVE);
    m.set("trace.overhead_ratio", rate(traced) / rate(plain));
    let joins = self_ns_of(spans, "rt.join");
    m.set(
        "rt.join_self_ns",
        joins.iter().sum::<f64>() / joins.len().max(1) as f64,
    );
    set_install_overheads(spans, m);
    // Self times per layer only over the jobs whose whole tree is traced.
    let full: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "rt.join")
        .map(|s| s.op)
        .collect();
    let tree: Vec<Span> = spans
        .iter()
        .filter(|s| full.contains(&s.op))
        .copied()
        .collect();
    set_self_times(&tree, full.len() as u64, m);
}
