//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! Renders the live counters [`Pool::metrics`](hermes_telemetry::MetricsSnapshot)
//! samples into the plain-text exposition format (version 0.0.4): one
//! `# TYPE`-annotated family per counter, per-worker series labelled
//! `worker="N"`, and gauges for the instantaneous pool state. Seconds
//! are the unit convention for time, so nanosecond counters are scaled.

use hermes_telemetry::MetricsSnapshot;
use std::fmt::Write as _;

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Render `snapshot` in the Prometheus text exposition format. Every
/// metric name is prefixed with `prefix` followed by an underscore
/// (pass `"hermes"` for `hermes_worker_busy_seconds_total` etc.).
#[must_use]
pub fn prometheus_text(snapshot: &MetricsSnapshot, prefix: &str) -> String {
    fn family(out: &mut String, prefix: &str, name: &str, help: &str, kind: &str) -> String {
        let _ = writeln!(out, "# HELP {prefix}_{name} {help}");
        let _ = writeln!(out, "# TYPE {prefix}_{name} {kind}");
        format!("{prefix}_{name}")
    }

    let mut out = String::new();
    let busy = family(
        &mut out,
        prefix,
        "worker_busy_seconds_total",
        "Time each worker spent executing jobs.",
        "counter",
    );
    for (w, s) in snapshot.workers.iter().enumerate() {
        let _ = writeln!(out, "{busy}{{worker=\"{w}\"}} {}", seconds(s.busy_ns));
    }

    let steal = family(
        &mut out,
        prefix,
        "worker_steal_seconds_total",
        "Time each worker spent in the steal path.",
        "counter",
    );
    for (w, s) in snapshot.workers.iter().enumerate() {
        let _ = writeln!(out, "{steal}{{worker=\"{w}\"}} {}", seconds(s.steal_ns));
    }

    let parked = family(
        &mut out,
        prefix,
        "worker_parked_seconds_total",
        "Time each worker spent parked on the pool condvar or in elastic sleep.",
        "counter",
    );
    for (w, s) in snapshot.workers.iter().enumerate() {
        let _ = writeln!(out, "{parked}{{worker=\"{w}\"}} {}", seconds(s.parked_ns));
    }

    let tasks = family(
        &mut out,
        prefix,
        "worker_tasks_total",
        "Jobs executed to completion per worker.",
        "counter",
    );
    for (w, s) in snapshot.workers.iter().enumerate() {
        let _ = writeln!(out, "{tasks}{{worker=\"{w}\"}} {}", s.tasks);
    }

    let depth = family(
        &mut out,
        prefix,
        "injector_depth",
        "Jobs waiting in the injection front door (all cells).",
        "gauge",
    );
    let _ = writeln!(out, "{depth} {}", snapshot.injector_depth);

    // Per-cell depths appear only for hosts whose front door is
    // sharded into per-clock-domain cells; single-injector snapshots
    // leave the vector empty and expose just the merged gauge above.
    if !snapshot.injector_cell_depths.is_empty() {
        let cell_depth = family(
            &mut out,
            prefix,
            "injector_cell_depth",
            "Jobs waiting per injector cell (one cell per clock domain).",
            "gauge",
        );
        for (cell, len) in snapshot.injector_cell_depths.iter().enumerate() {
            let _ = writeln!(out, "{cell_depth}{{cell=\"{cell}\"}} {len}");
        }
    }

    let in_flight = family(
        &mut out,
        prefix,
        "requests_in_flight",
        "Requests submitted but not yet completed.",
        "gauge",
    );
    let _ = writeln!(out, "{in_flight} {}", snapshot.in_flight);

    let active = family(
        &mut out,
        prefix,
        "active_workers",
        "Workers awake (not in elastic sleep); the full count without an elastic policy.",
        "gauge",
    );
    let _ = writeln!(out, "{active} {}", snapshot.active_workers);

    let util = family(
        &mut out,
        prefix,
        "pool_utilization_ratio",
        "Busy time over wall time across workers, 0 to 1.",
        "gauge",
    );
    let _ = writeln!(out, "{util} {}", snapshot.utilization());

    let uptime = family(
        &mut out,
        prefix,
        "pool_uptime_seconds",
        "Time since the pool epoch at the snapshot instant.",
        "gauge",
    );
    let _ = writeln!(out, "{uptime} {}", seconds(snapshot.at_ns));

    for (name, help, value) in [
        (
            "request_latency_p50_seconds",
            "Rolling median request latency.",
            snapshot.latency_p50_ns,
        ),
        (
            "request_latency_p99_seconds",
            "Rolling 99th-percentile request latency.",
            snapshot.latency_p99_ns,
        ),
    ] {
        if let Some(ns) = value {
            let q = family(&mut out, prefix, name, help, "gauge");
            let _ = writeln!(out, "{q} {}", seconds(ns));
        }
    }

    let dropped = family(
        &mut out,
        prefix,
        "events_dropped_total",
        "Telemetry events evicted by ring overflow (tallies stay exact).",
        "counter",
    );
    let _ = writeln!(out, "{dropped} {}", snapshot.dropped_events);

    // Energy families are emitted only when a host filled the energy
    // model's columns — a pool without emulated DVFS has no joules to
    // report, and absent beats a misleading zero.
    if snapshot.workers.iter().any(|s| s.energy_uj > 0) {
        let energy = family(
            &mut out,
            prefix,
            "energy_joules_total",
            "Emulated energy consumed per worker.",
            "counter",
        );
        for (w, s) in snapshot.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{energy}{{worker=\"{w}\"}} {}",
                s.energy_uj as f64 / 1e6
            );
        }
        let watts = family(
            &mut out,
            prefix,
            "worker_power_watts",
            "Mean emulated power per worker over the pool's uptime.",
            "gauge",
        );
        for w in 0..snapshot.workers.len() {
            let _ = writeln!(
                out,
                "{watts}{{worker=\"{w}\"}} {}",
                snapshot.worker_watts(w)
            );
        }
    }

    for (name, help, value) in [
        (
            "request_energy_p50_joules",
            "Rolling median per-request energy.",
            snapshot.energy_p50_uj,
        ),
        (
            "request_energy_p99_joules",
            "Rolling 99th-percentile per-request energy.",
            snapshot.energy_p99_uj,
        ),
    ] {
        if let Some(uj) = value {
            let q = family(&mut out, prefix, name, help, "gauge");
            let _ = writeln!(out, "{q} {}", uj as f64 / 1e6);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_telemetry::WorkerMetricsSample;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            at_ns: 2_000_000_000,
            workers: vec![
                WorkerMetricsSample {
                    busy_ns: 1_000_000_000,
                    steal_ns: 250_000_000,
                    parked_ns: 500_000_000,
                    tasks: 42,
                    energy_uj: 0,
                },
                WorkerMetricsSample {
                    busy_ns: 3_000_000_000,
                    steal_ns: 0,
                    parked_ns: 0,
                    tasks: 7,
                    energy_uj: 0,
                },
            ],
            injector_depth: 3,
            injector_cell_depths: vec![2, 0, 1],
            in_flight: 11,
            active_workers: 2,
            latency_p50_ns: Some(1_500_000),
            latency_p99_ns: None,
            energy_p50_uj: None,
            energy_p99_uj: None,
            dropped_events: 0,
        }
    }

    #[test]
    fn exposition_has_typed_families_and_labelled_series() {
        let text = prometheus_text(&sample_snapshot(), "hermes");
        assert!(text.contains("# TYPE hermes_worker_busy_seconds_total counter"));
        assert!(text.contains("hermes_worker_busy_seconds_total{worker=\"0\"} 1"));
        assert!(text.contains("hermes_worker_busy_seconds_total{worker=\"1\"} 3"));
        assert!(text.contains("hermes_worker_tasks_total{worker=\"0\"} 42"));
        assert!(text.contains("# TYPE hermes_injector_depth gauge"));
        assert!(text.contains("hermes_injector_depth 3"));
        assert!(text.contains("hermes_requests_in_flight 11"));
        assert!(text.contains("# TYPE hermes_active_workers gauge"));
        assert!(text.contains("hermes_active_workers 2"));
        assert!(text.contains("hermes_pool_utilization_ratio 1"));
        assert!(text.contains("hermes_request_latency_p50_seconds 0.0015"));
        assert!(
            !text.contains("p99"),
            "absent quantiles are omitted, not zero-filled"
        );
        assert!(text.contains("# TYPE hermes_events_dropped_total counter"));
        assert!(text.contains("hermes_events_dropped_total 0"));
        assert!(
            !text.contains("energy"),
            "no energy model, no joule families"
        );
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
            assert!(parts.next().unwrap().starts_with("hermes_"));
        }
    }

    #[test]
    fn energy_families_appear_once_a_host_fills_them() {
        let mut snap = sample_snapshot();
        snap.workers[0].energy_uj = 16_000_000; // 16 J over 2 s = 8 W
        snap.workers[1].energy_uj = 4_000_000;
        snap.energy_p50_uj = Some(2_500);
        snap.energy_p99_uj = None;
        snap.dropped_events = 17;
        let text = prometheus_text(&snap, "hermes");
        assert!(text.contains("# TYPE hermes_energy_joules_total counter"));
        assert!(text.contains("hermes_energy_joules_total{worker=\"0\"} 16"));
        assert!(text.contains("hermes_energy_joules_total{worker=\"1\"} 4"));
        assert!(text.contains("# TYPE hermes_worker_power_watts gauge"));
        assert!(text.contains("hermes_worker_power_watts{worker=\"0\"} 8"));
        assert!(text.contains("hermes_worker_power_watts{worker=\"1\"} 2"));
        assert!(text.contains("hermes_request_energy_p50_joules 0.0025"));
        assert!(
            !text.contains("request_energy_p99"),
            "absent energy quantiles are omitted"
        );
        assert!(text.contains("hermes_events_dropped_total 17"));
        // The exposition grammar still holds with the new families.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            assert!(parts.next().unwrap().parse::<f64>().is_ok(), "{line}");
            assert!(parts.next().unwrap().starts_with("hermes_"));
        }
    }
}
