//! `pbbs`: the paper's five kernels at coarse grain, closed loop.
//!
//! One op is one round of `radix_sort`, `sample_sort`, `knn_classify`,
//! `raycast` and `quickhull` on inputs drawn once from the seed, each in
//! its own `Pool::install`. User compute and tempo decisions dominate
//! the op: a controller or DVFS change moves joules here, while a
//! join/deque hot-path change should show no change.

use crate::common::{
    paper_pool, run_closed_loop, secs, set_self_times, ClosedLoop, Counters, Metrics, RunResult,
};
use crate::stats::percentile_or_zero;
use crate::trace::{durations_ns, next_id, Span, Tracer};
use hermes_rt::Pool;
use hermes_workloads::{
    clustered_points2, convex_hull_oracle, knn_classify, knn_classify_oracle, labeled_points,
    quickhull, radix_sort, ray_cast_set, raycast, raycast_oracle, sample_sort, skewed_keys,
    triangle_soup, uniform_keys, uniform_points2, Labeled, Point2, Ray, Triangle,
};
use std::time::{Duration, Instant};

const RADIX_KEYS: usize = 200_000;
const SAMPLE_KEYS: usize = 200_000;
const KNN_TRAIN: usize = 20_000;
const KNN_QUERIES: usize = 4_000;
const KNN_CLASSES: u8 = 4;
const KNN_K: usize = 5;
const RAY_TRIANGLES: usize = 20_000;
const RAY_TRIANGLE_SIZE: f64 = 0.05;
const RAY_RAYS: usize = 8_000;
const HULL_POINTS: usize = 100_000;
const HULL_CLUSTERS: usize = 8;
/// Queries and rays also checked against the brute-force oracles (the
/// full outputs are checked against the serial elision).
const BRUTE_CHECKS: usize = 200;
/// Rounds run during set-up to fill caches and settle the controller.
const WARMUP_ROUNDS: usize = 2;
/// Median and tail are medians over windows of `WINDOW_S` seconds; the
/// tail is p90: ~50 ms rounds give ~190 samples a window, 19 of them
/// beyond p90, and still 10 on a host 40% slower.
const WINDOW_S: f64 = 10.0;
const TAIL_BP: u32 = 9000;
/// Latency limit of one round.
const SLO_MS: f64 = 150.0;

const KERNELS: [&str; 5] = [
    "workloads.radix",
    "workloads.sample",
    "workloads.knn",
    "workloads.ray",
    "workloads.hull",
];

struct Inputs {
    radix: Vec<u32>,
    sample: Vec<u32>,
    train: Vec<Labeled>,
    queries: Vec<Point2>,
    tris: Vec<Triangle>,
    rays: Vec<Ray>,
    hull: Vec<Point2>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let s = |i: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        Inputs {
            radix: uniform_keys(RADIX_KEYS, s(1)),
            sample: skewed_keys(SAMPLE_KEYS, s(2)),
            train: labeled_points(KNN_TRAIN, KNN_CLASSES, s(3)),
            queries: uniform_points2(KNN_QUERIES, s(4)),
            tris: triangle_soup(RAY_TRIANGLES, RAY_TRIANGLE_SIZE, s(5)),
            rays: ray_cast_set(RAY_RAYS, s(6)),
            hull: clustered_points2(HULL_POINTS, HULL_CLUSTERS, s(7)),
        }
    }
}

/// The five outputs of one round.
#[derive(PartialEq)]
struct Outputs {
    radix: Vec<u32>,
    sample: Vec<u32>,
    knn: Vec<u8>,
    ray: Vec<Option<usize>>,
    hull: Vec<(u64, u64)>,
}

/// A hull as its vertex bit patterns, sorted: the kernel and the oracle
/// may start the cycle at different vertices.
fn hull_key(hull: &[Point2]) -> Vec<(u64, u64)> {
    let mut k: Vec<(u64, u64)> = hull
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    k.sort_unstable();
    k
}

/// Expected outputs: sorted copies for the sorts, the hull oracle, and
/// for kNN and ray casting the serial elision (the same code run outside
/// any pool, where `join` runs both sides in order), cross-checked
/// against the brute-force oracles on a prefix of the queries and rays.
fn expected(inp: &Inputs) -> Result<Outputs, String> {
    let mut radix = inp.radix.clone();
    radix.sort_unstable();
    let mut sample = inp.sample.clone();
    sample.sort_unstable();
    let knn = knn_classify(&mut inp.train.clone(), &inp.queries, KNN_K);
    let brute = knn_classify_oracle(&inp.train, &inp.queries[..BRUTE_CHECKS], KNN_K);
    if knn[..BRUTE_CHECKS] != brute[..] {
        return Err("knn serial elision disagrees with the brute-force oracle".into());
    }
    let ray = raycast(&inp.tris, &inp.rays);
    if ray[..BRUTE_CHECKS] != raycast_oracle(&inp.tris, &inp.rays[..BRUTE_CHECKS])[..] {
        return Err("raycast serial elision disagrees with the brute-force oracle".into());
    }
    Ok(Outputs {
        radix,
        sample,
        knn,
        ray,
        hull: hull_key(&convex_hull_oracle(&inp.hull)),
    })
}

/// Run `f` through `pool.install`; when traced, record the install span
/// and, inside it, the kernel's own span.
fn call<R: Send>(
    pool: &Pool,
    trace: Option<(&Tracer, u64)>,
    kernel: &'static str,
    f: impl FnOnce() -> R + Send,
) -> R {
    let Some((t, op)) = trace else {
        return pool.install(f);
    };
    let (install, body) = (next_id(), next_id());
    let start = t.now();
    let r = pool.install(|| {
        let s = t.now();
        let r = f();
        t.close(kernel, body, install, op, s);
        r
    });
    t.close("rt.install", install, op, op, start);
    r
}

/// One round on fresh copies of the mutable inputs. Returns the outputs,
/// the makespan and the joules drawn.
fn round(pool: &Pool, inp: &Inputs, trace: Option<&Tracer>) -> (Outputs, Duration, f64) {
    let mut radix = inp.radix.clone();
    let mut sample = inp.sample.clone();
    let mut train = inp.train.clone();
    let op = next_id();
    let tr = trace.map(|t| (t, op));
    let root = trace.map(Tracer::now);
    let e0 = pool.total_energy().unwrap_or(0.0);
    let t0 = Instant::now();
    call(pool, tr, KERNELS[0], || radix_sort(&mut radix));
    call(pool, tr, KERNELS[1], || sample_sort(&mut sample));
    let knn = call(pool, tr, KERNELS[2], || {
        knn_classify(&mut train, &inp.queries, KNN_K)
    });
    let ray = call(pool, tr, KERNELS[3], || raycast(&inp.tris, &inp.rays));
    let hull = call(pool, tr, KERNELS[4], || quickhull(&inp.hull));
    let makespan = t0.elapsed();
    let joules = pool.total_energy().unwrap_or(0.0) - e0;
    if let (Some(t), Some(start)) = (trace, root) {
        t.close("bench.op", op, 0, op, start);
    }
    let out = Outputs {
        radix,
        sample,
        knn,
        ray,
        hull: hull_key(&hull),
    };
    (out, makespan, joules)
}

/// Closed loop for `seconds`: rounds back to back, each output checked.
fn measure(
    pool: &Pool,
    inp: &Inputs,
    want: &Outputs,
    seconds: f64,
    trace: Option<&Tracer>,
) -> ClosedLoop {
    let mut res = ClosedLoop::default();
    let start = Instant::now();
    while secs(start) < seconds {
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| round(pool, inp, trace)));
        match run {
            Ok((out, makespan, joules)) => {
                let ms = makespan.as_secs_f64() * 1e3;
                res.busy_s += makespan.as_secs_f64();
                res.energy_j += joules;
                res.outcomes.push((out == *want).then_some(ms));
            }
            Err(_) => res.outcomes.push(None),
        }
    }
    res
}

struct Ready {
    pool: Pool,
    inputs: Inputs,
}

fn setup(seed: u64) -> Ready {
    let inputs = Inputs::generate(seed);
    let pool = paper_pool();
    for _ in 0..WARMUP_ROUNDS {
        std::hint::black_box(round(&pool, &inputs, None));
    }
    Ready { pool, inputs }
}

pub fn run(seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> RunResult {
    let mut out = RunResult::default();
    let want = match expected(&Inputs::generate(seed)) {
        Ok(w) => w,
        Err(e) => {
            out.violations.push(e);
            return out;
        }
    };
    if traced {
        let Ready { mut pool, inputs } = setup(seed);
        let before = Counters::read(&pool);
        let plain = measure(&pool, &inputs, &want, seconds / 2.0, None);
        let m = &mut out.metrics;
        Counters::read(&pool).set_layer_deltas(&before, plain.outcomes.len() as u64, m);
        let tracer = Tracer::new(crate::common::WORKERS);
        let traced_run = measure(&pool, &inputs, &want, seconds / 2.0, Some(&tracer));
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
            "pbbs",
            seconds,
            WINDOW_S,
            TAIL_BP,
            SLO_MS,
            || setup(seed),
            |r: &Ready, s| measure(&r.pool, &r.inputs, &want, s, None),
            &mut out,
        );
    }
    if out.failed > 0 {
        out.violations.push(format!(
            "{} rounds gave wrong output or panicked",
            out.failed
        ));
    }
    out
}

fn set_trace_metrics(spans: &[Span], plain: &ClosedLoop, traced: &ClosedLoop, m: &mut Metrics) {
    let rate = |r: &ClosedLoop| r.outcomes.len() as f64 / r.busy_s.max(f64::MIN_POSITIVE);
    m.set("trace.overhead_ratio", rate(traced) / rate(plain));
    for (kernel, metric) in KERNELS.iter().zip([
        "workloads.radix_ms",
        "workloads.sample_ms",
        "workloads.knn_ms",
        "workloads.ray_ms",
        "workloads.hull_ms",
    ]) {
        m.set(
            metric,
            percentile_or_zero(&durations_ns(spans, kernel), 5000) / 1e6,
        );
    }
    crate::common::set_install_overheads(spans, m);
    set_self_times(spans, traced.outcomes.len() as u64, m);
}
