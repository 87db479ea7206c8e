//! # koc-sim
//!
//! A cycle-level, trace-driven superscalar out-of-order processor simulator
//! with pluggable commit engines behind the [`CommitEngine`] trait:
//!
//! * [`engine::InOrderEngine`] — the conventional **in-order ROB commit**
//!   baseline (Table 1 of the paper), and
//! * [`engine::CheckpointedEngine`] — the paper's **checkpointed
//!   out-of-order commit** machine, built from the mechanisms in
//!   [`koc_core`]: CAM renaming with future-free bits, a small checkpoint
//!   table, a pseudo-ROB, and Slow Lane Instruction Queuing.
//!
//! Simulations are configured and run through the fluent [`SimBuilder`] /
//! [`Session`] API; grids of configurations run in parallel through
//! [`Sweep`]:
//!
//! ```no_run
//! use koc_sim::{ProcessorConfig, SimBuilder, Suite, Sweep};
//!
//! // The paper's headline comparison (Figure 9, rightmost group):
//! let proposal = SimBuilder::cooo()
//!     .pseudo_rob(128)
//!     .sliq(2048)
//!     .workloads(Suite::paper())
//!     .trace_len(30_000)
//!     .build()
//!     .run();
//! let baselines = Sweep::over([
//!     ProcessorConfig::baseline(4096, 1000),
//!     ProcessorConfig::baseline(128, 1000),
//! ])
//! .trace_len(30_000)
//! .run();
//! println!(
//!     "COoO 128/2048: {:.2} IPC vs baseline-4096 {:.2} and baseline-128 {:.2}",
//!     proposal.mean_ipc(),
//!     baselines[0].mean_ipc(),
//!     baselines[1].mean_ipc()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod inflight;
pub mod pipeline;
pub mod session;
pub mod stats;

pub use config::{BranchPredictorKind, CommitConfig, ProcessorConfig, RegisterModel};
pub use engine::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
pub use inflight::{InFlight, InFlightTable, InstState};
pub use pipeline::{Processor, SliceOutcome};
pub use session::{Session, SimBuilder, SuiteResult, Sweep, WorkloadResult};
pub use stats::{Distribution, RecoveryStats, RetireBreakdown, SimStats, StallStats};

// Re-exported so sessions can be configured without importing
// `koc_workloads` directly.
pub use koc_workloads::Suite;

// Re-exported so streaming runs (`Session::run_one`, `Processor::new`
// over a generator) can be written without importing `koc_isa` directly.
pub use koc_isa::{InstructionSource, IntoInstructionSource, ReplayWindow, SourceExt};

// Re-exported so observers — the fourth seam, next to the configuration,
// the instruction source and the commit engine — can be attached without
// importing `koc_obs` directly.
pub use koc_obs::{
    CycleAccounting, CycleBucket, CycleBuckets, CycleSample, Event, IntervalRecord, NullObserver,
    Observer, PipelineTracer, TimelineRecorder,
};

// Re-exported so the memory-backend knobs (`SimBuilder::dram`,
// `mshr_entries`, `prefetch`, …) can be used without importing `koc_mem`.
pub use koc_mem::{BackendKind, DramConfig, MemoryConfig, PrefetchConfig};
