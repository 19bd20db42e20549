//! # hermes-telemetry
//!
//! The unified event-trace and baseline-artifact subsystem of the HERMES
//! reproduction. Every execution layer — the `hermes-core` tempo
//! controller, the `hermes-rt` thread pool, and the `hermes-sim`
//! discrete-event engine — emits the same event kinds
//! ([`Event`]: steal attempts with per-victim outcomes, tempo
//! transitions, DVFS actuations, energy samples, worker park/unpark
//! brackets, and per-request serving latencies) into a
//! [`TelemetrySink`], so simulated and real runs produce
//! **schema-identical** [`RunReport`]s that can be diffed against each
//! other and against persisted baselines.
//!
//! Three layers:
//!
//! * **Recording** — [`EventRing`]: fixed-capacity, lock-free,
//!   wait-free-per-record rings (one per worker plus a machine stream),
//!   wrapped by [`RingSink`], which also maintains exact monotone
//!   tallies so bounded rings never distort totals. [`NullSink`] is the
//!   do-nothing default.
//! * **Aggregation** — [`RunReport`]: per-worker counters with the
//!   steal-outcome split (success / empty / lost-race), the
//!   tempo-transition mix, a thief×victim steal matrix, and energy/time
//!   summaries.
//! * **Persistence** — a dependency-free JSON codec ([`json`]) backing
//!   `RunReport::to_json`/`from_json` and the bench harness's
//!   `BENCH_baseline.json` artifact.
//!
//! ```
//! use hermes_telemetry::{Event, RingSink, RunReport, StealOutcome, TelemetrySink};
//!
//! let sink = RingSink::new(2);
//! sink.record(1, 42, Event::StealAttempt { victim: 0, outcome: StealOutcome::Success });
//! let report = sink.report("quickstart", "doc", 0.001, 0.0);
//! let parsed = RunReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(parsed.steal_matrix[1][0], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod json;
mod latency;
mod metrics;
mod report;
mod ring;
mod sink;

pub use event::{Event, PowerKind, SpanPhase, StealOutcome, WakeReason};
pub use latency::{
    bucket_index, bucket_lower_bound, LatencyHistogram, LatencyRecorder, NUM_BUCKETS,
};
pub use metrics::{MetricsSnapshot, WorkerMetricsSample};
pub use report::{RunReport, TransitionMix, WorkerTelemetry};
pub use ring::{EventRing, DEFAULT_RING_CAPACITY};
pub use sink::{NullSink, RingSink, TelemetrySink, MACHINE_STREAM};

// Re-exported so hosts can convert controller trace records into events
// without a separate hermes-core import at the call site.
pub use hermes_core::{TransitionKind, TransitionRecord};
