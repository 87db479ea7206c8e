//! # koc-isa
//!
//! Register, micro-op and dynamic-trace model shared by every crate in the
//! *Out-of-Order Commit Processors* (HPCA 2004) reproduction.
//!
//! The paper evaluates SPEC2000fp programs on an Alpha-like superscalar
//! machine. This crate provides the minimal, simulator-friendly instruction
//! representation that the workload generators (`koc-workloads`), the
//! pipeline (`koc-sim`) and the mechanisms under study (`koc-core`)
//! agree on:
//!
//! * [`ArchReg`] — 32 integer + 32 floating-point logical registers,
//! * [`OpKind`] — operation classes with the Table 1 latencies,
//! * [`Instruction`] — one *dynamic* instruction of a trace (operands,
//!   memory address, branch outcome),
//! * [`Trace`] — a finite dynamic instruction stream plus a rewindable
//!   [`TraceCursor`], which is what checkpoint rollback re-execution needs,
//! * [`InstructionSource`] and [`ReplayWindow`] — the streaming ingestion
//!   seam: instructions produced on demand, replayed out of an O(window)
//!   ring buffer, so run length is unbounded by host memory.
//!
//! ```
//! use koc_isa::{ArchReg, Instruction, OpKind, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let ld = b.load(ArchReg::fp(1), ArchReg::int(2), 0x1000);
//! b.fp_alu(ArchReg::fp(2), &[ArchReg::fp(1), ArchReg::fp(3)]);
//! let trace = b.finish();
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace[ld].kind, OpKind::Load);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod inst;
pub mod io;
pub mod json;
pub mod op;
pub mod reg;
pub mod source;
pub mod trace;

pub use builder::TraceBuilder;
pub use inst::MAX_SRCS;
pub use inst::{BranchInfo, Instruction, MemAccess};
pub use op::{FuClass, OpKind, OpLatency};
pub use reg::{ArchReg, PhysReg, RegClass, RegList, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
pub use source::{
    InstructionSource, IntoInstructionSource, MaterializedTrace, ReplayWindow, SourceExt,
};
pub use trace::{InstId, Trace, TraceCursor};
