#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `koc-serve`: the simulator as a fault-tolerant network service.
//!
//! A std-only TCP job server over the `koc-sim` session stack: clients
//! submit (engine config, workload) jobs as newline-delimited
//! `koc-serve/1` JSON; the server answers from a content-addressed
//! crash-safe result cache when it can, and otherwise runs the job sliced
//! through `Processor::advance_slice` so every job supports wall-clock
//! deadlines, cooperative cancellation, and progress streaming.
//!
//! The robustness machinery is the point (see `server.rs` for the
//! invariants and `tests/service.rs` for their proofs): bounded queues
//! with explicit load shedding, per-connection read/write deadlines,
//! worker panic isolation, a retrying client with capped jittered
//! backoff, and a deterministic [`fault::FaultPlan`] that injects torn
//! cache writes, skipped renames, worker panics, short response writes,
//! wedged workers, and clock skew on a replayable schedule.
//!
//! Wall-clock time is confined to [`clock`]; everything else in the crate
//! is deterministic and lint-enforced as such.

pub mod cache;
pub mod client;
pub mod clock;
pub mod fault;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use cache::{Lookup, ResultCache};
pub use client::{Client, ClientError, RetryPolicy, Submission};
pub use fault::{FaultPlan, FaultSet};
pub use protocol::{ErrorKind, JobResult, JobSpec, Request, Response};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServeStats;
