//! `serve-burst`: open-loop serving under square-wave bursts.
//!
//! Arrivals follow `PoissonSchedule::unit(seed, n).square_wave(..)`:
//! bursts of `HALF_PERIOD` requests at `BASE_RATE_HZ` alternate with
//! lulls at `OFF_RATIO` of that rate. Bursts load the injector cells,
//! admission, the future/waker path and ticket delivery; lulls load
//! parking and elastic sleep. It is the only
//! workload where idle energy and queueing dominate, and it uses the
//! pool the opposite way to the closed loops: many small injected
//! requests instead of one deep join tree.
//!
//! The benchmark paces arrivals itself, sleeping only (a spinning pacer
//! would compete with the two workers for the two cores), and times each
//! request from when it was due to the end of its body, stamped by the
//! benchmark's own code: shed requests and generator lateness count.

use crate::common::{
    secs, set_end_to_end, set_self_times, tempo, Counters, Metrics, RunResult, BUSY_WATTS,
    FASTEST_MHZ, WORKERS,
};
use crate::stats::{median, percentile_or_zero, tail_for};
use crate::trace::{next_id, Span};
use hermes_core::Frequency;
use hermes_rt::parallel_for;
use hermes_serve::{
    AdmissionPolicy, ElasticConfig, PoissonSchedule, Priority, Server, SubmitOptions, Ticket,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Burst arrival rate and shape: `HALF_PERIOD` arrivals at the base
/// rate, then `HALF_PERIOD` at `OFF_RATIO` of it — 150 arrivals per
/// second on average, a cycle every 1.7 s.
///
/// A burst offers about 0.2 cores of work at the fast frequency, 0.3 at
/// the slow one: one awake worker keeps up, and admission still sheds
/// some background requests. Other rates were tried. At 900/s the
/// tail's run-to-run spread was 8% of its median, against 4–12% here,
/// and with half as many windows at p95, 30–40%; at 300/s and 225/s it
/// was no steadier than here. At the two-worker knee (3000/s) and
/// between one worker's and two workers' capacity (1500–2500/s) the tail
/// moved 4–200 ms, far outside any bound a regression check could use.
const BASE_RATE_HZ: f64 = 450.0;
const HALF_PERIOD: usize = 125;
const OFF_RATIO: f64 = 0.2;
const ARRIVALS_PER_SECOND: f64 = 2.0 * BASE_RATE_HZ * OFF_RATIO / (1.0 + OFF_RATIO);
/// Request kernel: `parallel_for` over 1024 elements in grains of 128,
/// about 0.45 ms of sequential work.
const KERNEL_ELEMS: usize = 1024;
const KERNEL_GRAIN: usize = 128;
const KERNEL_ROUNDS: u32 = 300;
/// Distinct request inputs; request `i` takes a seeded pick of them, so
/// every expected checksum is computed once in set-up.
const VARIANTS: usize = 64;
const WARMUP_REQUESTS: usize = 100;
const WARMUP_GAP: Duration = Duration::from_millis(1);
/// Median and tail are medians over the run's burst+lull cycles (one
/// window each, ~245 completed requests; 18 in a 30 s run). The tail is
/// p90, which keeps ~24 samples beyond it in a window; p95 would keep 12.
const TAIL_BP: u32 = 9000;
/// Latency limit of one request, due time to end of body.
const SLO_MS: f64 = 10.0;

/// Class of arrival `i`: 1-in-5 high, 1-in-5 background, the rest normal.
fn class(i: usize) -> Priority {
    match i % 5 {
        0 => Priority::High,
        1 => Priority::Background,
        _ => Priority::Normal,
    }
}

/// 1-in-4 arrivals are async requests that fan out two half-size
/// children and await both.
fn is_async(i: usize) -> bool {
    i % 4 == 3
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn variant(seed: u64, i: usize) -> usize {
    (mix(seed ^ mix(i as u64)) % VARIANTS as u64) as usize
}

fn kernel_elem(x: &mut u64) {
    let mut acc = *x;
    for _ in 0..KERNEL_ROUNDS {
        acc = std::hint::black_box(acc.wrapping_mul(2_654_435_761).rotate_left(7));
    }
    *x = acc;
}

/// The request kernel over `input`: transform every element in parallel,
/// return the wrapping sum.
fn kernel(input: &[u64]) -> u64 {
    let mut v = input.to_vec();
    parallel_for(&mut v, KERNEL_GRAIN, kernel_elem);
    v.iter().fold(0u64, |a, &x| a.wrapping_add(x))
}

/// Per-request timestamps, nanoseconds since the phase started (0 =
/// not reached). Only `body_end` is stamped untraced.
#[derive(Default)]
struct Stamps {
    submit: AtomicU64,
    submitted: AtomicU64,
    body_start: AtomicU64,
    body_end: AtomicU64,
    /// Async requests: when the parent resumed after awaiting both
    /// children.
    resume: AtomicU64,
    child_submit: [AtomicU64; 2],
    child_submitted: [AtomicU64; 2],
    child_start: [AtomicU64; 2],
    child_end: [AtomicU64; 2],
}

/// What request bodies share with the pacer.
struct Shared {
    inputs: Vec<Vec<u64>>,
    stamps: Vec<Stamps>,
    epoch: Instant,
    traced: bool,
}

impl Shared {
    /// Nanoseconds since the epoch, never 0.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    fn stamp(&self, slot: &AtomicU64) {
        slot.store(self.now(), Ordering::Relaxed);
    }

    fn stamp_traced(&self, slot: &AtomicU64) {
        if self.traced {
            self.stamp(slot);
        }
    }
}

fn load(slot: &AtomicU64) -> u64 {
    slot.load(Ordering::Relaxed)
}

fn build_server() -> Server {
    Server::builder()
        .workers(WORKERS)
        .tempo(tempo())
        .emulated_dvfs(Frequency::from_mhz(FASTEST_MHZ), BUSY_WATTS)
        .parking(true)
        .elastic(ElasticConfig::default())
        .admission(AdmissionPolicy::default())
        .build()
}

/// Submit arrival `i` of a phase.
fn submit(server: &Arc<Server>, sh: &Arc<Shared>, i: usize, var: usize) -> Ticket<u64> {
    let opts = SubmitOptions::default().priority(class(i));
    if !is_async(i) {
        let sh = Arc::clone(sh);
        return server.submit_with(
            move || {
                let st = &sh.stamps[i];
                sh.stamp_traced(&st.body_start);
                let sum = kernel(&sh.inputs[var]);
                sh.stamp(&st.body_end);
                sum
            },
            opts,
        );
    }
    let (srv, sh) = (Arc::clone(server), Arc::clone(sh));
    server.submit_async_with(
        async move {
            let st = &sh.stamps[i];
            sh.stamp_traced(&st.body_start);
            let half = KERNEL_ELEMS / 2;
            let children: Vec<Ticket<u64>> = (0..2)
                .map(|k| {
                    sh.stamp_traced(&st.child_submit[k]);
                    let child_sh = Arc::clone(&sh);
                    let t = srv.submit(move || {
                        let st = &child_sh.stamps[i];
                        child_sh.stamp_traced(&st.child_start[k]);
                        let sum = kernel(&child_sh.inputs[var][k * half..(k + 1) * half]);
                        child_sh.stamp_traced(&st.child_end[k]);
                        sum
                    });
                    sh.stamp_traced(&st.child_submitted[k]);
                    t
                })
                .collect();
            let mut sum = 0u64;
            for t in children {
                sum = sum.wrapping_add(t.await);
            }
            sh.stamp_traced(&st.resume);
            sh.stamp(&st.body_end);
            sum
        },
        opts,
    )
}

struct Ready {
    server: Arc<Server>,
    inputs: Vec<Vec<u64>>,
    expected: Vec<u64>,
    offsets: Vec<Duration>,
}

fn setup(seed: u64, requests: usize) -> Ready {
    let inputs: Vec<Vec<u64>> = (0..VARIANTS as u64)
        .map(|v| {
            (0..KERNEL_ELEMS as u64)
                .map(|j| mix(seed ^ mix(v << 32 | j)))
                .collect()
        })
        .collect();
    let expected = inputs.iter().map(|v| kernel(v)).collect();
    let offsets = PoissonSchedule::unit(seed, requests)
        .square_wave(HALF_PERIOD, OFF_RATIO)
        .offsets(BASE_RATE_HZ);
    let server = Arc::new(build_server());
    let sh = Arc::new(Shared {
        inputs: inputs.clone(),
        stamps: (0..WARMUP_REQUESTS).map(|_| Stamps::default()).collect(),
        epoch: Instant::now(),
        traced: false,
    });
    let tickets: Vec<Ticket<u64>> = (0..WARMUP_REQUESTS)
        .map(|i| {
            std::thread::sleep(WARMUP_GAP);
            submit(&server, &sh, i, i % VARIANTS)
        })
        .collect();
    for t in tickets {
        let _ = t.wait_result();
    }
    quiesce(&server);
    Ready {
        server,
        inputs,
        expected,
        offsets,
    }
}

/// Outcome of one open-loop phase.
struct Phase {
    /// Per arrival: latency in ms from due time to end of body, or
    /// `None` if shed or wrong.
    outcomes: Vec<Option<f64>>,
    /// Generator lateness per arrival, in ms.
    late_ms: Vec<f64>,
    shed: [u64; 4],
    offered: [u64; 4],
    failed_wrong: u64,
    elapsed_s: f64,
    energy_j: f64,
    shared: Arc<Shared>,
}

fn measure(ready: &Ready, seed: u64, traced: bool, violations: &mut Vec<String>) -> Phase {
    let n = ready.offsets.len();
    let server = &ready.server;
    let vars: Vec<usize> = (0..n).map(|i| variant(seed, i)).collect();
    let (sub0, done0, shed0) = (server.submitted(), server.completed(), server.shed());
    let sh = Arc::new(Shared {
        inputs: ready.inputs.clone(),
        stamps: (0..n).map(|_| Stamps::default()).collect(),
        epoch: Instant::now(),
        traced,
    });
    let e0 = server.pool().total_energy().unwrap_or(0.0);
    let mut late_ms = Vec::with_capacity(n);
    let mut tickets = Vec::with_capacity(n);
    for (i, &due) in ready.offsets.iter().enumerate() {
        let wait = due.saturating_sub(sh.epoch.elapsed());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let st = &sh.stamps[i];
        let at = sh.now();
        st.submit.store(at, Ordering::Relaxed);
        late_ms.push(at.saturating_sub(due.as_nanos() as u64) as f64 / 1e6);
        tickets.push(submit(server, &sh, i, vars[i]));
        sh.stamp_traced(&st.submitted);
    }
    server.drain();
    let energy_j = server.pool().total_energy().unwrap_or(0.0) - e0;
    let mut p = Phase {
        outcomes: Vec::with_capacity(n),
        late_ms,
        shed: [0; 4],
        offered: [0; 4],
        failed_wrong: 0,
        elapsed_s: 0.0,
        energy_j,
        shared: Arc::clone(&sh),
    };
    let mut last_end = 0;
    for (i, t) in tickets.into_iter().enumerate() {
        let c = class(i) as usize;
        p.offered[c] += 1;
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.wait_result()));
        let end = load(&sh.stamps[i].body_end);
        last_end = last_end.max(end);
        let due_ns = ready.offsets[i].as_nanos() as u64;
        p.outcomes.push(match got {
            Ok(Ok(sum)) if sum == ready.expected[vars[i]] && end > 0 => {
                Some(end.saturating_sub(due_ns) as f64 / 1e6)
            }
            Ok(Err(_)) => {
                p.shed[c] += 1;
                None
            }
            _ => {
                p.failed_wrong += 1;
                None
            }
        });
    }
    p.elapsed_s = last_end as f64 / 1e9;
    let (sub, done, shed) = (
        server.submitted() - sub0,
        server.completed() - done0,
        server.shed() - shed0,
    );
    if done != sub - shed {
        violations.push(format!(
            "lost work: completed {done} != submitted {sub} - shed {shed}"
        ));
    }
    if p.failed_wrong > 0 {
        violations.push(format!(
            "{} requests gave a wrong checksum or panicked",
            p.failed_wrong
        ));
    }
    for class in [Priority::High, Priority::Normal] {
        if p.shed[class as usize] > 0 {
            violations.push(format!(
                "{} {class:?} requests shed",
                p.shed[class as usize]
            ));
        }
    }
    p
}

/// Wait until finished request futures have dropped their handles on
/// the server, so the last handle is this thread's and the server never
/// shuts down from one of its own workers.
fn quiesce(server: &Arc<Server>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(server) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Stop the server on this thread.
fn stop(server: Arc<Server>, violations: &mut Vec<String>) {
    quiesce(&server);
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => violations.push("request futures still hold the server".into()),
    }
}

/// Seed of segment `k` of a run.
fn segment_seed(seed: u64, k: usize) -> u64 {
    mix(seed ^ mix(k as u64 + 1))
}

pub fn run(seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> RunResult {
    let mut out = RunResult::default();
    let cycles = ((seconds * ARRIVALS_PER_SECOND) as usize / (2 * HALF_PERIOD)).max(2);
    if traced {
        run_traced(seed, cycles / 2 * 2 * HALF_PERIOD, trace_path, &mut out);
        return out;
    }
    // One segment, with a fresh server, per cycle.
    let (segments, requests) = (cycles, 2 * HALF_PERIOD);
    let (mut setup_s, mut outcomes, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut elapsed_s, mut energy_j, mut failed) = (0.0, 0.0, 0);
    for k in 0..segments {
        let seed = segment_seed(seed, k);
        let t0 = Instant::now();
        let ready = setup(seed, requests);
        setup_s.push(secs(t0));
        let p = measure(&ready, seed, false, &mut out.violations);
        stop(ready.server, &mut out.violations);
        outcomes.extend(p.outcomes);
        late_ms.extend(p.late_ms);
        elapsed_s += p.elapsed_s;
        energy_j += p.energy_j;
        failed += p.failed_wrong;
    }
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_s));
    let windows = outcomes.len() / (2 * HALF_PERIOD);
    match set_end_to_end(m, &outcomes, windows, elapsed_s, energy_j, TAIL_BP, SLO_MS) {
        Ok(note) => println!("serve-burst: {note}"),
        Err(e) => out.violations.push(e),
    }
    println!(
        "serve-burst: {segments} servers x {requests} arrivals; generator late p50 {:.3} ms, p99 {:.3} ms",
        percentile_or_zero(&late_ms, 5000),
        percentile_or_zero(&late_ms, 9900)
    );
    out.attempted = outcomes.len() as u64;
    out.failed = failed;
    out
}

/// The traced run: one schedule replayed untraced, then traced, each on
/// a fresh server.
fn run_traced(seed: u64, requests: usize, trace_path: &std::path::Path, out: &mut RunResult) {
    let ready = setup(seed, requests);
    let before = Counters::read(ready.server.pool());
    let plain = measure(&ready, seed, false, &mut out.violations);
    Counters::read(ready.server.pool()).set_layer_deltas(
        &before,
        requests as u64,
        &mut out.metrics,
    );
    stop(ready.server, &mut out.violations);
    let ready = setup(seed, requests);
    let traced = measure(&ready, seed, true, &mut out.violations);
    stop(ready.server, &mut out.violations);
    let spans = set_trace_metrics(&plain, &traced, &ready.offsets, &mut out.metrics);
    if let Err(e) = crate::trace::write_spans(&spans, trace_path) {
        out.violations
            .push(format!("writing {}: {e}", trace_path.display()));
    }
    out.attempted = (plain.outcomes.len() + traced.outcomes.len()) as u64;
    out.failed = plain.failed_wrong + traced.failed_wrong;
}

/// Per-layer metrics from the traced phase's stamps; returns the spans
/// rebuilt from them.
fn set_trace_metrics(
    plain: &Phase,
    tr: &Phase,
    offsets: &[Duration],
    m: &mut Metrics,
) -> Vec<Span> {
    let median_of = |p: &Phase| {
        let ok: Vec<f64> = p.outcomes.iter().flatten().copied().collect();
        percentile_or_zero(&ok, 5000)
    };
    // An open loop's throughput is the offered rate, so the overhead is
    // read off the request rate one server could sustain: 1 / p50.
    m.set("trace.overhead_ratio", median_of(plain) / median_of(tr));
    let frac = |c: Priority| tr.shed[c as usize] as f64 / tr.offered[c as usize].max(1) as f64;
    m.set("serve.shed_frac.background", frac(Priority::Background));
    m.set("serve.shed_frac.high", frac(Priority::High));
    let high: Vec<f64> = (0..tr.outcomes.len())
        .filter(|&i| class(i) == Priority::High)
        .filter_map(|i| tr.outcomes[i])
        .collect();
    let high_bp = tail_for(high.len(), TAIL_BP).unwrap_or(5000);
    m.set(
        "serve.high_latency_tail_ms",
        percentile_or_zero(&high, high_bp),
    );
    let late_bp = tail_for(tr.late_ms.len(), TAIL_BP).unwrap_or(5000);
    m.set("loadgen.late_p50_ms", percentile_or_zero(&tr.late_ms, 5000));
    m.set(
        "loadgen.late_tail_ms",
        percentile_or_zero(&tr.late_ms, late_bp),
    );

    let st = &tr.shared.stamps;
    let ran: Vec<usize> = (0..st.len())
        .filter(|&i| tr.outcomes[i].is_some())
        .collect();
    let gap = |a: &AtomicU64, b: &AtomicU64| load(b).saturating_sub(load(a)) as f64;
    let submit_us: Vec<f64> = (0..st.len())
        .map(|i| gap(&st[i].submit, &st[i].submitted) / 1e3)
        .collect();
    m.set("serve.submit_us", percentile_or_zero(&submit_us, 5000));
    let wait_ms: Vec<f64> = ran
        .iter()
        .map(|&i| gap(&st[i].submit, &st[i].body_start) / 1e6)
        .collect();
    let wait_bp = tail_for(wait_ms.len(), TAIL_BP).unwrap_or(5000);
    m.set(
        "serve.queue_wait_p50_ms",
        percentile_or_zero(&wait_ms, 5000),
    );
    m.set(
        "serve.queue_wait_tail_ms",
        percentile_or_zero(&wait_ms, wait_bp),
    );
    let service: Vec<f64> = ran
        .iter()
        .map(|&i| gap(&st[i].body_start, &st[i].body_end) / 1e6)
        .collect();
    m.set("serve.service_ms", percentile_or_zero(&service, 5000));
    let wake: Vec<f64> = ran
        .iter()
        .filter(|&&i| is_async(i))
        .map(|&i| {
            let last_child = load(&st[i].child_end[0]).max(load(&st[i].child_end[1]));
            load(&st[i].resume).saturating_sub(last_child) as f64 / 1e3
        })
        .collect();
    m.set("serve.wake_to_poll_us", percentile_or_zero(&wake, 5000));

    let spans = request_spans(tr, offsets);
    set_self_times(&spans, st.len() as u64, m);
    spans
}

/// Rebuild the traced phase's spans from its stamps: per request, the
/// generator's lateness, the submit call, the queue wait and the body;
/// inside an async body, each child's submit, queue wait and body, and
/// the wake from the last child's end to the parent resuming.
fn request_spans(tr: &Phase, offsets: &[Duration]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (i, st) in tr.shared.stamps.iter().enumerate() {
        let op = next_id();
        let mut push = |name, parent, start: u64, end: u64| {
            let id = if parent == 0 { op } else { next_id() };
            spans.push(Span {
                name,
                id,
                parent,
                op,
                start,
                end: end.max(start),
            });
            id
        };
        let due = offsets[i].as_nanos() as u64;
        let (submit, submitted) = (load(&st.submit), load(&st.submitted));
        let (start, end) = (load(&st.body_start), load(&st.body_end));
        let ran = tr.outcomes[i].is_some();
        let root = push("bench.request", 0, due, if ran { end } else { submitted });
        push("loadgen.late", root, due, submit);
        if !ran {
            push("serve.submit", root, submit, submitted);
            continue;
        }
        push("serve.submit", root, submit, submitted);
        push("serve.queue", root, submitted, start);
        let body = push("user.body", root, start, end);
        if is_async(i) {
            for k in 0..2 {
                let (cs, cd) = (load(&st.child_submit[k]), load(&st.child_submitted[k]));
                let (c0, c1) = (load(&st.child_start[k]), load(&st.child_end[k]));
                push("serve.submit", body, cs, cd);
                push("serve.queue", body, cd, c0);
                push("user.body", body, c0, c1);
            }
            let last_child = load(&st.child_end[0]).max(load(&st.child_end[1]));
            push("serve.wake_to_poll", body, last_child, load(&st.resume));
        }
    }
    spans
}
