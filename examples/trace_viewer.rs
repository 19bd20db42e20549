//! Trace a mixed serving run end to end and export it for Perfetto.
//!
//! The observability pipeline in one sitting: a traced [`Server`] takes
//! a batch of synchronous requests plus a cohort of async sleepers,
//! [`Server::metrics`] snapshots the pool *while the sleepers are still
//! parked* (no quiescing), and after the drain the span edges in the
//! telemetry rings are stitched into a [`SpanForest`], reconciled
//! against the run's `RunReport` counters, and exported as Chrome
//! trace-event JSON.
//!
//! ```sh
//! cargo run --release --example trace_viewer
//! ```
//!
//! Then open <https://ui.perfetto.dev> and load the written
//! `trace.json`: one track per worker plus a `machine` track for
//! off-pool submitters, `span:*` slices for request phases, and flow
//! arrows wherever a request hopped between threads.

use hermes::obs::{chrome_trace_json, validate_chrome_trace, SpanForest};
use hermes::serve::{Server, VirtualTimer};
use hermes::telemetry::{Event, RingSink, SpanPhase, TelemetrySink, MACHINE_STREAM};
use std::sync::Arc;

const WORKERS: usize = 2;
const SYNC: usize = 24;
const ASYNC: usize = 16;
const TOTAL: usize = SYNC + ASYNC;

/// Deterministic CPU work standing in for a request body.
fn spin(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..20_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x)
}

/// Count span edges on the machine stream: off-pool submitters record
/// there, and [`RunReport::totals`](hermes::telemetry::RunReport::totals)
/// deliberately sums worker streams only.
fn machine_span_edges(sink: &RingSink) -> (u64, u64) {
    let mut begins = 0;
    let mut ends = 0;
    for (_, event) in sink.ring(MACHINE_STREAM).snapshot() {
        match event {
            Event::SpanBegin { .. } => begins += 1,
            Event::SpanEnd { .. } => ends += 1,
            _ => {}
        }
    }
    (begins, ends)
}

fn main() {
    let sink = Arc::new(RingSink::with_ring_capacity(WORKERS, 1 << 16));
    let timer = VirtualTimer::new();
    let server = Server::builder()
        .workers(WORKERS)
        .telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>)
        .build();

    // Sync requests: admission (`inject`) on this thread's machine
    // stream, execution (`poll`) on whichever worker picked each one up
    // — every one of them a cross-stream hop in the trace.
    let sync_tickets: Vec<_> = (0..SYNC)
        .map(|i| server.submit(move || spin(i as u64)))
        .collect();

    // Async requests: each parks on the virtual timer after its first
    // poll, adding `queued` and `park_wait` episodes to its span.
    let async_tickets: Vec<_> = (0..ASYNC)
        .map(|i| {
            let t = timer.clone();
            server.submit_async(async move {
                t.sleep(1_000_000 + (i as u64) * 50_000).await;
                spin(i as u64)
            })
        })
        .collect();

    // Live metrics while the sleepers are parked: no barrier, no drain —
    // the snapshot sums whatever the workers' counter blocks hold now.
    // Each field has one writer and only grows; fields are not read as
    // one consistent cut.
    while timer.pending() < ASYNC {
        std::thread::yield_now();
    }
    let live = server.metrics();
    println!(
        "live snapshot: {} in flight, {} tasks executed, utilization {:.2}",
        live.in_flight,
        live.tasks(),
        live.utilization()
    );
    assert!(
        live.in_flight >= ASYNC as u64,
        "the async cohort is still open mid-run"
    );

    // Wake the cohort, drain, redeem every ticket.
    timer.advance(1_000_000 + ASYNC as u64 * 50_000);
    server.drain();
    for t in sync_tickets {
        t.wait();
    }
    for t in async_tickets {
        t.wait();
    }
    let elapsed_s = server.pool().elapsed_ns() as f64 / 1e9;
    let report = sink.report("trace_viewer", "serve", elapsed_s, 0.0);

    // Stitch and reconcile: every request became exactly one span, every
    // span terminated, and the begin/end edge totals (worker streams
    // from the report, machine stream counted directly) match what the
    // stitcher produced.
    let forest = SpanForest::from_sink(&sink);
    assert_eq!(forest.len(), TOTAL, "one span per request");
    for span in &forest.spans {
        assert!(
            span.completed_at.is_some(),
            "span {} never completed",
            span.id
        );
        assert!(
            !span.phase_intervals(SpanPhase::Poll).is_empty(),
            "span {} never ran",
            span.id
        );
    }
    let (machine_begins, machine_ends) = machine_span_edges(&sink);
    let totals = report.totals();
    let begins = totals.span_begins + machine_begins;
    let ends = totals.span_ends + machine_ends;
    assert_eq!(
        begins,
        forest.intervals() as u64,
        "every begin edge opened exactly one stitched episode"
    );
    assert_eq!(
        ends,
        begins + TOTAL as u64,
        "all episodes closed, plus one terminal complete-instant per request"
    );
    assert_eq!(totals.dropped_events, 0, "the rings retained everything");
    assert_eq!(report.latency_hist.count(), TOTAL as u64);
    assert!(
        forest.cross_stream_hops() >= TOTAL,
        "off-pool admission makes every request hop at least once"
    );

    // Export, validate, write.
    let json = chrome_trace_json(&sink);
    let stats = validate_chrome_trace(&json).expect("exporter emits well-formed trace events");
    assert_eq!(
        stats.span_slices,
        forest.intervals(),
        "one slice per stitched episode"
    );
    std::fs::write("trace.json", &json).expect("write trace.json");

    println!(
        "{} spans, {} episodes, {} cross-stream hops, p99 {:?} ns",
        forest.len(),
        forest.intervals(),
        forest.cross_stream_hops(),
        report.latency_hist.p99()
    );
    println!(
        "trace.json: {} events ({} span slices, {} instants, {} flow arrows) — load it at ui.perfetto.dev",
        stats.events, stats.span_slices, stats.instants, stats.flow_begins
    );
    server.shutdown();
}
