//! # hermes-rt
//!
//! A real-thread work-stealing runtime with HERMES tempo control.
//!
//! The pool mirrors the structure of the paper's modified Cilk Plus
//! runtime: per-worker deques (the THE-protocol deque from
//! `hermes-deque`), randomized victim selection, and the
//! [`TempoController`](hermes_core::TempoController) hooks wired into
//! push/pop/steal/out-of-work — so the workpath- and workload-sensitive
//! algorithms run on live threads exactly where the paper's runtime runs
//! them.
//!
//! One structural substitution, documented in `DESIGN.md`: Cilk steals
//! *continuations* (compiler-supported cactus stacks); this runtime, like
//! rayon and TBB, steals *children* — `join(a, b)` pushes `b` and runs
//! `a`. The deque discipline, thief-victim relation, and work-first
//! ordering of deque entries are preserved, which is all the tempo
//! algorithms observe. The exact continuation semantics are additionally
//! modelled in `hermes-sim`.
//!
//! Frequency actuation is pluggable: [`EmulatedDvfs`] (timing dilation +
//! power model, works anywhere), [`SysfsCpufreqDriver`] (real Linux
//! cpufreq), or [`NullDriver`] (baseline).
//!
//! ## Quickstart
//!
//! ```
//! use hermes_core::{Frequency, Policy, TempoConfig};
//! use hermes_rt::{join, Pool};
//!
//! let tempo = TempoConfig::builder()
//!     .policy(Policy::Unified)
//!     .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
//!     .workers(4)
//!     .build();
//! let pool = Pool::builder()
//!     .workers(4)
//!     .tempo(tempo)
//!     .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
//!     .build();
//!
//! let (a, b) = pool.install(|| join(|| 6 * 7, || "tempo"));
//! assert_eq!((a, b), (42, "tempo"));
//! println!("virtual energy: {:?} J", pool.total_energy());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod driver;
mod elastic;
mod job;
mod latch;
mod metrics;
mod pool;
mod sysfs;
mod task;

pub use driver::{
    DriverError, EmulatedDvfs, FrequencyDriver, NullDriver, PARK_WATTS_FRACTION,
    SLEEP_WATTS_FRACTION,
};
pub use elastic::{
    ElasticConfig, ElasticState, LoadSignal, ScaleController, ScaleDecision, SleepVerdict,
    WorkerState,
};
pub use job::Priority;
pub use latch::{Latch, WakerLatch};
pub use metrics::RtStats;
pub use pool::{
    current_worker_energy_nj, current_worker_index, join, parallel_chunks, parallel_for,
    parallel_map_reduce, DequeKind, Pool, PoolBuilder, SpawnOptions,
};
pub use sysfs::{parse_available_frequencies, parse_energy_uj, RaplProbe, SysfsCpufreqDriver};
// The live-metrics types `Pool::metrics` returns and the span-phase
// vocabulary `spawn_future_traced` records, re-exported so callers
// need no separate hermes-telemetry import.
pub use hermes_telemetry::{MetricsSnapshot, SpanPhase, WakeReason, WorkerMetricsSample};
// The shared topology model the pool's locality-aware victim selection
// is configured with (see `PoolBuilder::topology`).
pub use hermes_topology::{discover as discover_topology, Topology, VictimPolicy};
