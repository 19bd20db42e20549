//! Live metrics: the snapshot types a host composes from its always-on
//! per-worker counters, readable without quiescing the pool.
//!
//! [`RunReport`](crate::RunReport) answers "where did the time go" only
//! after a run drains; admission control and elastic sizing need the
//! same signal *mid-run*. A [`MetricsSnapshot`] is that mid-run view.
//! Hosts fill it from counters with a per-field writer contract: one
//! writer (the owning worker), relaxed, monotone, and no consistency
//! promised across fields — two fields of one snapshot may straddle an
//! update.

/// One worker's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerMetricsSample {
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent in steal sweeps.
    pub steal_ns: u64,
    /// Nanoseconds spent parked, elastic sleep included.
    pub parked_ns: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Energy attributed to this worker so far, µJ. The scheduler
    /// counters do not track energy (the emulated-DVFS accountant is
    /// authoritative); hosts with an energy model fill this in when
    /// composing a [`MetricsSnapshot`], others leave it 0.
    pub energy_uj: u64,
}

/// A live view of a pool (or server) at one instant, composed by the
/// host from its per-worker counters plus host-only signals (queue
/// depth, admission counters, the rolling latency histogram).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the host's epoch when the snapshot was taken —
    /// the denominator for utilization.
    pub at_ns: u64,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerMetricsSample>,
    /// Tasks waiting in the external-submission injector right now,
    /// summed across every cell of a sharded front door — the merged
    /// legacy view.
    pub injector_depth: usize,
    /// Per-cell injector depths, indexed by clock domain, for hosts
    /// whose front door is sharded. Empty means "single merged cell"
    /// (pre-sharding hosts and snapshots), and the field always sums
    /// to `injector_depth` when present — the back-compat contract.
    pub injector_cell_depths: Vec<usize>,
    /// Requests admitted but not yet completed (0 for bare pools).
    pub in_flight: u64,
    /// Workers currently awake (not in elastic sleep). Hosts without an
    /// elastic policy fill this with the full worker count; it is the
    /// live face of the pool's scale decisions (the
    /// `hermes_active_workers` Prometheus gauge).
    pub active_workers: usize,
    /// Rolling request-latency median, ns (serving hosts only).
    pub latency_p50_ns: Option<u64>,
    /// Rolling request-latency 99th percentile, ns (serving hosts only).
    pub latency_p99_ns: Option<u64>,
    /// Rolling per-request energy median, µJ (serving hosts with an
    /// energy model only).
    pub energy_p50_uj: Option<u64>,
    /// Rolling per-request energy 99th percentile, µJ.
    pub energy_p99_uj: Option<u64>,
    /// Telemetry events dropped to ring overflow so far (0 when the
    /// host has no bounded sink attached).
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Fraction of worker-time spent executing tasks since the epoch:
    /// `sum(busy) / (workers * at_ns)`, clamped to `[0, 1]`. Zero when
    /// no time has passed.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.at_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        (busy as f64 / (self.workers.len() as f64 * self.at_ns as f64)).clamp(0.0, 1.0)
    }

    /// Total busy nanoseconds across workers.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Total parked nanoseconds across workers.
    #[must_use]
    pub fn parked_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.parked_ns).sum()
    }

    /// Total tasks executed across workers.
    #[must_use]
    pub fn tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total energy attributed across workers, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.workers.iter().map(|w| w.energy_uj).sum::<u64>() as f64 / 1e6
    }

    /// Average power drawn by worker `w` since the epoch, watts — its
    /// attributed energy over the snapshot's elapsed time. Zero when no
    /// time has passed.
    #[must_use]
    pub fn worker_watts(&self, w: usize) -> f64 {
        if self.at_ns == 0 {
            return 0.0;
        }
        (self.workers[w].energy_uj as f64 / 1e6) / (self.at_ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_worker_time() {
        let snap = MetricsSnapshot {
            at_ns: 1_000,
            workers: vec![
                WorkerMetricsSample {
                    busy_ns: 600,
                    ..Default::default()
                },
                WorkerMetricsSample {
                    busy_ns: 400,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!((snap.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(snap.busy_ns(), 1_000);
        assert_eq!(MetricsSnapshot::default().utilization(), 0.0);
    }

    #[test]
    fn energy_and_watts_derive_from_host_filled_samples() {
        let snap = MetricsSnapshot {
            at_ns: 2_000_000_000, // 2 s
            workers: vec![
                WorkerMetricsSample {
                    energy_uj: 16_000_000, // 16 J → 8 W over 2 s
                    ..Default::default()
                },
                WorkerMetricsSample {
                    energy_uj: 1_000_000, // 1 J → 0.5 W
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!((snap.energy_j() - 17.0).abs() < 1e-9);
        assert!((snap.worker_watts(0) - 8.0).abs() < 1e-9);
        assert!((snap.worker_watts(1) - 0.5).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().energy_j(), 0.0);
    }
}
