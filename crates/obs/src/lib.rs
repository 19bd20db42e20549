//! # hermes-obs
//!
//! The observability layer over `hermes-telemetry`: turns the raw
//! per-worker event streams the hosts already record into artifacts a
//! human can act on.
//!
//! Five pieces, each usable alone:
//!
//! - [`SpanForest`] — stitches the causal [`SpanBegin`](hermes_telemetry::Event::SpanBegin)/
//!   [`SpanEnd`](hermes_telemetry::Event::SpanEnd) edges scattered
//!   across worker streams back into per-request span trees, including
//!   the cross-worker hops (steal-moved queue episodes, remote wakes),
//!   with a deterministic [`fingerprint`](SpanForest::fingerprint) for
//!   replay testing on the sim executor.
//! - [`EnergyLedger`] — joins the hosts'
//!   [`PowerInterval`](hermes_telemetry::Event::PowerInterval) timelines
//!   against the span forest: each span is charged the busy-power
//!   integral over its poll episodes, spin/park power lands in an
//!   explicit idle bucket, and the three buckets must rebuild the meter
//!   total (the closure invariant the sweep's `--gate-energy-attr`
//!   enforces).
//! - [`chrome_trace`] / [`chrome_trace_json`] — export a
//!   [`RingSink`](hermes_telemetry::RingSink) as Chrome trace-event
//!   JSON loadable in `chrome://tracing` or Perfetto: one track per
//!   worker with span and park slices, tempo/DVFS instants, and flow
//!   arrows for steals and wakes. [`validate_chrome_trace`] checks the
//!   schema and returns [`TraceStats`] for count reconciliation.
//! - [`prometheus_text`] — render a live
//!   [`MetricsSnapshot`](hermes_telemetry::MetricsSnapshot) (from
//!   `Pool::metrics()` / `Server::metrics()`, available on every pool,
//!   traced or not) in the Prometheus text exposition format. Each
//!   counter it renders has one writer (the owning worker), is updated
//!   relaxed and only grows, and no consistency across fields is
//!   promised.
//! - [`FlightRecorder`] — an always-on bounded sink whose
//!   [`dump`](FlightRecorder::dump) interleaves the retained tail of
//!   every stream for deadlock panics and budget-breach callbacks.
//!
//! Everything here is read-side: the crate adds no recording cost. The
//! hot-path story stays the one the runtime tells — one relaxed load
//! and store on the worker's own cache line per counter update, always
//! on; one wait-free ring record per event, and no event work at all
//! with no sink attached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod energy;
mod flight;
mod prom;
mod span;
mod trace;

pub use energy::{collect_power_segments, EnergyLedger, PowerSegment, SpanEnergy};
pub use flight::{FlightDump, FlightEntry, FlightRecorder, FLIGHT_RING_CAPACITY};
pub use prom::prometheus_text;
pub use span::{collect_span_events, PhaseInterval, Span, SpanEvent, SpanForest};
pub use trace::{chrome_trace, chrome_trace_json, validate_chrome_trace, TraceStats};
