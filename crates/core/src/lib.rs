//! # hermes-core
//!
//! The tempo-control algorithms of **HERMES** (Ribic & Liu, *Energy-Efficient
//! Work-Stealing Language Runtimes*, ASPLOS 2014), implemented as a pure,
//! executor-agnostic state machine.
//!
//! HERMES makes work-stealing runtimes energy-efficient by running each
//! worker at a *tempo* — a discrete speed level realised through DVFS — and
//! coordinating tempos with two complementary strategies:
//!
//! * **Workpath-sensitive control** ([`ImmediacyList`], paper §3.1): a thief
//!   executes less-immediate work than its victim (the work-first
//!   principle), so on a successful steal the thief is slowed to one level
//!   below the victim (*Thief Procrastination*). When a worker runs out of
//!   work, every worker downstream on its immediacy list is sped up one
//!   level (*Immediacy Relay*).
//! * **Workload-sensitive control** ([`ThresholdTable`], [`OnlineProfiler`],
//!   paper §3.2): deque length is a workload proxy; crossing profiled
//!   thresholds up or down raises or lowers tempo one level.
//!
//! The two strategies unify in [`TempoController`] (paper Fig. 5), which a
//! host scheduler drives through a small set of hooks (`on_push`,
//! `on_pop`, `on_steal`, `on_out_of_work`) and which actuates frequency
//! changes through the [`FrequencyActuator`] trait.
//!
//! This crate contains **no threads and no clocks**: it is driven both by
//! the deterministic discrete-event simulator (`hermes-sim`) and by the
//! real-thread runtime (`hermes-rt`).
//!
//! ## Quickstart
//!
//! ```
//! use hermes_core::{
//!     Frequency, Policy, RecordingActuator, TempoConfig, TempoController, WorkerId,
//! };
//!
//! // Two-frequency tempo control: fast 2.4 GHz, slow 1.6 GHz (paper Fig. 6).
//! let config = TempoConfig::builder()
//!     .policy(Policy::Unified)
//!     .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
//!     .workers(4)
//!     .build();
//! let mut actuator = RecordingActuator::new();
//! let mut ctl = TempoController::new(config);
//!
//! // Worker 1 steals from worker 0: thief procrastination slows worker 1.
//! ctl.on_steal(WorkerId(1), WorkerId(0), 3, &mut actuator);
//! assert!(ctl.level(WorkerId(1)) > ctl.level(WorkerId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod actuator;
mod controller;
mod freq;
mod immediacy;
mod policy;
mod stats;
mod tempo;
mod thresholds;
mod trace;

pub use actuator::{FrequencyActuator, NullActuator, RecordingActuator, TempoChange};
pub use controller::{HookWindow, TempoConfig, TempoConfigBuilder, TempoController};
pub use freq::{FreqMap, Frequency, InvalidFreqMapError};
pub use immediacy::ImmediacyList;
pub use policy::Policy;
pub use stats::TempoStats;
pub use tempo::TempoLevel;
pub use thresholds::{OnlineProfiler, ProfilerConfig, ThresholdTable};
pub use trace::{TransitionKind, TransitionRecord};

/// Identifier of a worker thread within a work-stealing pool.
///
/// Workers are dense indices `0..num_workers`; the same ids are used by the
/// simulator, the real runtime, and the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}
