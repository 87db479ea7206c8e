//! Streaming instruction ingestion: [`InstructionSource`], the
//! [`ReplayWindow`], and stream combinators.
//!
//! The simulator used to require the whole dynamic instruction stream in
//! memory as a [`Trace`] before a run could start, which caps run length by
//! host memory — backwards for a paper whose point is keeping *thousands* of
//! instructions in flight over *billions*-long executions. This module
//! inverts the ownership: a workload is an [`InstructionSource`] that
//! produces dynamic instructions **on demand**, and the pipeline fetches
//! through a [`ReplayWindow`] — a ring buffer that retains only the
//! instructions that may still be replayed (everything from the oldest live
//! recovery point to the fetch head). Peak memory becomes O(in-flight
//! window), independent of how long the stream runs.
//!
//! ```text
//!   InstructionSource ──pull──▶ ReplayWindow ──peek/next──▶ fetch stage
//!   (kernel generator,          (ring buffer:               ▲        │
//!    trace adapter,              release_to ◀── commit      └rewind──┘
//!    combinators)                trims the tail)              (rollback)
//! ```
//!
//! Three source families plug in:
//!
//! * [`MaterializedTrace`] — adapter over a pre-built [`Trace`] (or any
//!   `&Trace`, via [`IntoInstructionSource`]): today's workloads unchanged;
//! * streaming generators — `koc-workloads` emits every kernel lazily;
//! * combinators — [`SourceExt::then`], [`SourceExt::interleave`],
//!   [`SourceExt::repeat_n`] and [`SourceExt::warmup_measure`] compose
//!   sources into richer scenarios without materializing anything.
//!
//! # The replay contract
//!
//! The [`ReplayWindow`] honours the same rewind semantics as
//! [`TraceCursor`](crate::TraceCursor): [`ReplayWindow::rewind_to`] makes a
//! previously delivered instruction the next one fetched (checkpoint
//! rollback re-execution). The twist is that the window may *forget*:
//! [`ReplayWindow::release_to`] declares that no rewind or lookup below a
//! frontier will ever happen again (the commit engine calls it as recovery
//! points retire), letting the buffer drop its tail. Rewinding or reading
//! below the released frontier is a caller bug and panics.

use crate::inst::Instruction;
use crate::trace::{InstId, Trace};
use std::collections::VecDeque;

/// A producer of dynamic instructions, pulled one at a time.
///
/// Implementations are finite or practically unbounded; the consumer learns
/// the end only when [`next_inst`](Self::next_inst) returns `None`. Sources
/// are stateful iterators — delivering an instruction consumes it. Replay
/// (rewind after a rollback) is the [`ReplayWindow`]'s job, not the
/// source's: a source is never asked to produce the same instruction twice.
pub trait InstructionSource {
    /// The workload name (used in reports and diagnostics).
    fn name(&self) -> &str;

    /// Produces the next dynamic instruction, or `None` at end of stream.
    fn next_inst(&mut self) -> Option<Instruction>;

    /// Total stream length, when the source knows it up front (materialized
    /// traces do; generators and combinators may not).
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn next_inst(&mut self) -> Option<Instruction> {
        (**self).next_inst()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn next_inst(&mut self) -> Option<Instruction> {
        (**self).next_inst()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

/// Conversion into a boxed [`InstructionSource`] — the argument type of the
/// simulator's entry points.
///
/// Every source converts to itself; `&Trace` converts to a
/// [`MaterializedTrace`] adapter, so call sites that used to pass a borrowed
/// trace keep compiling unchanged.
pub trait IntoInstructionSource<'a> {
    /// Converts `self` into a boxed source living at most `'a`.
    fn into_source(self) -> Box<dyn InstructionSource + Send + 'a>;
}

impl<'a, S: InstructionSource + Send + 'a> IntoInstructionSource<'a> for S {
    fn into_source(self) -> Box<dyn InstructionSource + Send + 'a> {
        Box::new(self)
    }
}

impl<'a> IntoInstructionSource<'a> for &'a Trace {
    fn into_source(self) -> Box<dyn InstructionSource + Send + 'a> {
        Box::new(MaterializedTrace::new(self))
    }
}

/// Adapter presenting a fully materialized [`Trace`] as an
/// [`InstructionSource`] — zero behaviour change for existing workloads.
#[derive(Debug, Clone)]
pub struct MaterializedTrace<'a> {
    trace: &'a Trace,
    next: InstId,
}

impl<'a> MaterializedTrace<'a> {
    /// A source that replays `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> Self {
        MaterializedTrace { trace, next: 0 }
    }
}

impl InstructionSource for MaterializedTrace<'_> {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        let inst = self.trace.get(self.next).copied();
        if inst.is_some() {
            self.next += 1;
        }
        inst
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.len())
    }
}

// ---------------------------------------------------------------------
// The replay window
// ---------------------------------------------------------------------

/// A rewindable fetch window over an [`InstructionSource`].
///
/// The window buffers every instruction between the *release frontier* (the
/// oldest point any recovery could still rewind to, advanced by
/// [`release_to`](Self::release_to)) and the furthest instruction pulled
/// from the source. Fetch reads through [`peek`](Self::peek) /
/// [`next_inst`](Self::next_inst); rollback calls
/// [`rewind_to`](Self::rewind_to); in-flight instructions are looked up by
/// [`get`](Self::get). Instruction ids are stream positions, exactly as
/// [`InstId`] indexes a [`Trace`], so the same ids work across rewinds.
///
/// Occupancy is O(release frontier .. fetch head) — the machine's in-flight
/// window plus fetch lookahead — regardless of stream length;
/// [`peak_occupancy`](Self::peak_occupancy) reports the high-water mark.
pub struct ReplayWindow<'a> {
    source: Box<dyn InstructionSource + Send + 'a>,
    name: String,
    buf: VecDeque<Instruction>,
    /// Stream position of `buf[0]` (== the release frontier).
    base: InstId,
    /// Stream position of the next instruction to deliver.
    pos: InstId,
    /// The source returned `None`; `base + buf.len()` is the final length.
    ended: bool,
    peak: usize,
}

impl<'a> ReplayWindow<'a> {
    /// A window over any source (or `&Trace`).
    pub fn new(source: impl IntoInstructionSource<'a>) -> Self {
        let source = source.into_source();
        let name = source.name().to_string();
        ReplayWindow {
            source,
            name,
            buf: VecDeque::new(),
            base: 0,
            pos: 0,
            ended: false,
            peak: 0,
        }
    }

    /// The workload name of the underlying source.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream position (the [`InstId`] of the *next* instruction to
    /// fetch).
    pub fn position(&self) -> InstId {
        self.pos
    }

    /// Total distinct instructions pulled from the source so far. Once
    /// [`at_end`](Self::at_end) is true, this is the stream's length.
    pub fn fetched(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Instructions currently buffered (release frontier to fetch head).
    pub fn occupancy(&self) -> usize {
        self.buf.len()
    }

    /// High-water mark of [`occupancy`](Self::occupancy) over the window's
    /// lifetime — the run's actual replay-memory requirement.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// The underlying source's length hint, if it has one.
    pub fn len_hint(&self) -> Option<usize> {
        self.source.len_hint()
    }

    /// Pulls from the source until an instruction is buffered at `pos` or
    /// the source ends.
    fn fill(&mut self) {
        while !self.ended && self.pos >= self.base + self.buf.len() {
            match self.source.next_inst() {
                Some(inst) => {
                    self.buf.push_back(inst);
                    self.peak = self.peak.max(self.buf.len());
                }
                None => self.ended = true,
            }
        }
    }

    /// Whether the stream is exhausted at the current position (pulls one
    /// instruction ahead to find out, so the answer is definitive).
    pub fn at_end(&mut self) -> bool {
        self.fill();
        self.pos >= self.base + self.buf.len()
    }

    /// Peeks at the next instruction without consuming it, pulling from the
    /// source if the window has not buffered it yet.
    pub fn peek(&mut self) -> Option<(InstId, &Instruction)> {
        self.fill();
        self.buf.get(self.pos - self.base).map(|i| (self.pos, i))
    }

    /// Fetches (consumes) the next instruction.
    pub fn next_inst(&mut self) -> Option<(InstId, Instruction)> {
        let out = self.peek().map(|(id, inst)| (id, *inst));
        if out.is_some() {
            self.pos += 1;
        }
        out
    }

    /// The buffered instruction at stream position `id`.
    ///
    /// # Panics
    /// Panics if `id` is below the release frontier (the caller promised,
    /// via [`release_to`](Self::release_to), never to look there again) or
    /// at/above the fetch head.
    pub fn get(&self, id: InstId) -> &Instruction {
        assert!(
            id >= self.base,
            "instruction {id} was released from the replay window (frontier {})",
            self.base
        );
        self.buf
            .get(id - self.base)
            // koc-lint: allow(panic, "ReplayWindow contract: only fetched ids may be looked up")
            .unwrap_or_else(|| panic!("instruction {id} has not been fetched yet"))
    }

    /// The buffered instruction at `id`, or `None` if it was released or
    /// not yet fetched.
    pub fn try_get(&self, id: InstId) -> Option<&Instruction> {
        id.checked_sub(self.base).and_then(|i| self.buf.get(i))
    }

    /// Rewinds so that the next fetched instruction is `id` — the
    /// [`TraceCursor`](crate::TraceCursor) rollback contract. The same
    /// instructions are then delivered again from the buffer (the
    /// re-execution cost of coarse-grain recovery).
    ///
    /// # Panics
    /// Panics if `id` was released or lies beyond the current position.
    pub fn rewind_to(&mut self, id: InstId) {
        assert!(
            id >= self.base,
            "rewind target {id} was released from the replay window (frontier {})",
            self.base
        );
        assert!(
            id <= self.pos,
            "rewind target {id} is ahead of the fetch position {}",
            self.pos
        );
        self.pos = id;
    }

    /// Advances the release frontier: every instruction below `frontier`
    /// can never be rewound to or looked up again, so its buffer slot is
    /// reclaimed. Called by the commit engine as recovery points retire.
    /// A frontier ahead of the fetch position is clamped to it; a frontier
    /// behind the current one is a no-op (release is monotonic).
    pub fn release_to(&mut self, frontier: InstId) {
        let to = frontier.min(self.pos);
        while self.base < to {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

impl std::fmt::Debug for ReplayWindow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayWindow")
            .field("name", &self.name)
            .field("base", &self.base)
            .field("pos", &self.pos)
            .field("occupancy", &self.buf.len())
            .field("peak", &self.peak)
            .field("ended", &self.ended)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------

/// Stream-algebra adapters available on every [`InstructionSource`]
/// (blanket-implemented, like [`Iterator`]'s adapters).
pub trait SourceExt: InstructionSource + Sized {
    /// Runs `self` to completion, then `next` — e.g. a cache-warming kernel
    /// followed by the kernel under study. The second stream's program
    /// counters are rebased past the first's so the branch predictor sees
    /// two distinct code regions.
    fn then<B: InstructionSource>(self, next: B) -> Chain<Self, B> {
        Chain {
            name: format!("{}+{}", self.name(), next.name()),
            first: Some(self),
            second: next,
            pc_end: 0,
        }
    }

    /// Alternates blocks of `block` instructions from `self` and `other` —
    /// a coarse model of two co-scheduled workloads sharing the pipeline.
    /// Both streams keep their own program counters and architectural
    /// registers, so the interleaving also creates cross-workload (false)
    /// register dependences; that contention is the scenario.
    ///
    /// # Panics
    /// Panics if `block` is zero.
    fn interleave<B: InstructionSource>(self, other: B, block: usize) -> Interleave<Self, B> {
        assert!(block > 0, "interleave block must be non-zero");
        Interleave {
            name: format!("{}x{}", self.name(), other.name()),
            a: self,
            b: other,
            block,
            emitted_in_block: 0,
            from_a: true,
            a_done: false,
            b_done: false,
        }
    }

    /// Replays the stream `n` times end to end — the same static code
    /// re-executed, as a real outer loop would (program counters repeat
    /// per pass). The source must be `Clone` so each pass restarts from a
    /// pristine copy; `n = 0` is an empty stream.
    fn repeat_n(self, n: usize) -> Repeat<Self>
    where
        Self: Clone,
    {
        Repeat {
            name: format!("{}*{n}", self.name()),
            pristine: self.clone(),
            current: (n > 0).then_some(self),
            remaining: n,
            passes: n,
        }
    }

    /// Marks the first `warmup` instructions as a warm-up region and the
    /// next `measure` as the measured region, truncating the stream after
    /// them. The boundary is queryable via [`WarmupMeasure::region_of`],
    /// so harnesses can attribute statistics to the region an instruction
    /// belongs to.
    fn warmup_measure(self, warmup: usize, measure: usize) -> WarmupMeasure<Self> {
        WarmupMeasure {
            inner: self,
            warmup,
            measure,
            emitted: 0,
        }
    }
}

impl<S: InstructionSource + Sized> SourceExt for S {}

/// Sequential composition: see [`SourceExt::then`].
#[derive(Debug, Clone)]
pub struct Chain<A, B> {
    name: String,
    first: Option<A>,
    second: B,
    /// One past the highest pc the first stream emitted, aligned up; added
    /// to the second stream's pcs and branch targets.
    pc_end: u64,
}

impl<A: InstructionSource, B: InstructionSource> InstructionSource for Chain<A, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        if let Some(first) = &mut self.first {
            if let Some(inst) = first.next_inst() {
                self.pc_end = self.pc_end.max(inst.pc.saturating_add(4));
                return Some(inst);
            }
            self.first = None;
        }
        self.second.next_inst().map(|mut inst| {
            inst.pc = inst.pc.wrapping_add(self.pc_end);
            if let Some(b) = &mut inst.branch {
                b.target = b.target.wrapping_add(self.pc_end);
            }
            inst
        })
    }

    fn len_hint(&self) -> Option<usize> {
        match (&self.first, self.second.len_hint()) {
            (Some(first), Some(b)) => first.len_hint().map(|a| a + b),
            // Once the first stream is drained the count of already-emitted
            // instructions is unknown here; stay honest and decline.
            _ => None,
        }
    }
}

/// Block interleaving: see [`SourceExt::interleave`].
#[derive(Debug, Clone)]
pub struct Interleave<A, B> {
    name: String,
    a: A,
    b: B,
    block: usize,
    emitted_in_block: usize,
    from_a: bool,
    a_done: bool,
    b_done: bool,
}

impl<A: InstructionSource, B: InstructionSource> InstructionSource for Interleave<A, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        loop {
            if self.a_done && self.b_done {
                return None;
            }
            let current_done = if self.from_a {
                self.a_done
            } else {
                self.b_done
            };
            if current_done {
                // Current side exhausted; drain the other without blocking.
                self.from_a = !self.from_a;
                self.emitted_in_block = 0;
                continue;
            }
            let pulled = if self.from_a {
                self.a.next_inst()
            } else {
                self.b.next_inst()
            };
            match pulled {
                Some(inst) => {
                    self.emitted_in_block += 1;
                    if self.emitted_in_block >= self.block {
                        self.emitted_in_block = 0;
                        self.from_a = !self.from_a;
                    }
                    return Some(inst);
                }
                None => {
                    if self.from_a {
                        self.a_done = true;
                    } else {
                        self.b_done = true;
                    }
                    self.emitted_in_block = 0;
                    self.from_a = !self.from_a;
                }
            }
        }
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.a.len_hint()? + self.b.len_hint()?)
    }
}

/// End-to-end repetition: see [`SourceExt::repeat_n`].
#[derive(Debug, Clone)]
pub struct Repeat<S> {
    name: String,
    pristine: S,
    current: Option<S>,
    remaining: usize,
    /// Total passes requested at construction (for [`len_hint`], which
    /// reports the whole stream's length, not what is left).
    passes: usize,
}

impl<S: InstructionSource + Clone> InstructionSource for Repeat<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        loop {
            let current = self.current.as_mut()?;
            if let Some(inst) = current.next_inst() {
                return Some(inst);
            }
            self.remaining -= 1;
            self.current = (self.remaining > 0).then(|| self.pristine.clone());
        }
    }

    fn len_hint(&self) -> Option<usize> {
        self.pristine.len_hint().map(|l| l * self.passes)
    }
}

/// The region an instruction of a [`WarmupMeasure`] stream belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The warm-up prefix (prime caches and predictors; exclude from
    /// reported statistics).
    Warmup,
    /// The measured region.
    Measure,
}

/// Warm-up/measure region markers: see [`SourceExt::warmup_measure`].
#[derive(Debug, Clone)]
pub struct WarmupMeasure<S> {
    inner: S,
    warmup: usize,
    measure: usize,
    emitted: usize,
}

impl<S> WarmupMeasure<S> {
    /// The region the instruction at stream position `id` belongs to.
    pub fn region_of(&self, id: InstId) -> Region {
        if id < self.warmup {
            Region::Warmup
        } else {
            Region::Measure
        }
    }

    /// Stream position of the first measured instruction.
    pub fn measure_start(&self) -> InstId {
        self.warmup
    }
}

impl<S: InstructionSource> InstructionSource for WarmupMeasure<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        if self.emitted >= self.warmup + self.measure {
            return None;
        }
        let inst = self.inner.next_inst()?;
        self.emitted += 1;
        Some(inst)
    }

    fn len_hint(&self) -> Option<usize> {
        // Without an inner hint the stream might end before the cap, so no
        // exact length can be promised.
        let cap = self.warmup + self.measure;
        self.inner.len_hint().map(|l| l.min(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::op::OpKind;
    use crate::reg::ArchReg;

    fn numbered(name: &str, n: usize) -> Trace {
        let mut b = TraceBuilder::named(name);
        for i in 0..n {
            b.int_alu(ArchReg::int((i % 8) as u8), &[]);
        }
        b.finish()
    }

    fn drain(mut s: impl InstructionSource) -> Vec<Instruction> {
        let mut out = Vec::new();
        while let Some(i) = s.next_inst() {
            out.push(i);
        }
        out
    }

    #[test]
    fn materialized_trace_streams_the_trace_in_order() {
        let t = numbered("t", 5);
        let insts = drain(MaterializedTrace::new(&t));
        assert_eq!(insts.len(), 5);
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(*inst, t[i]);
        }
        assert_eq!(MaterializedTrace::new(&t).len_hint(), Some(5));
    }

    #[test]
    fn window_delivers_the_stream_with_ids() {
        let t = numbered("t", 4);
        let mut w = ReplayWindow::new(&t);
        assert_eq!(w.name(), "t");
        let mut ids = Vec::new();
        while let Some((id, inst)) = w.next_inst() {
            assert_eq!(inst, t[id]);
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(w.at_end());
        assert_eq!(w.fetched(), 4);
    }

    #[test]
    fn window_rewind_replays_buffered_instructions() {
        let t = numbered("t", 6);
        let mut w = ReplayWindow::new(&t);
        for _ in 0..4 {
            w.next_inst();
        }
        w.rewind_to(1);
        assert_eq!(w.position(), 1);
        let replayed: Vec<InstId> =
            std::iter::from_fn(|| w.next_inst().map(|(id, _)| id)).collect();
        assert_eq!(replayed, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn window_release_bounds_occupancy() {
        let t = numbered("t", 100);
        let mut w = ReplayWindow::new(&t);
        for i in 0..100usize {
            w.next_inst();
            // Retire everything older than 4 instructions behind fetch.
            w.release_to((i + 1).saturating_sub(4));
        }
        assert!(w.at_end());
        assert!(
            w.peak_occupancy() <= 5,
            "peak {} should track the release lag, not the stream",
            w.peak_occupancy()
        );
        assert_eq!(w.occupancy(), 4);
    }

    #[test]
    fn window_get_looks_up_buffered_ids() {
        let t = numbered("t", 10);
        let mut w = ReplayWindow::new(&t);
        for _ in 0..5 {
            w.next_inst();
        }
        assert_eq!(*w.get(2), t[2]);
        assert!(w.try_get(7).is_none(), "not fetched yet");
        w.release_to(3);
        assert!(w.try_get(2).is_none(), "released");
        assert_eq!(*w.get(3), t[3]);
    }

    #[test]
    #[should_panic(expected = "released from the replay window")]
    fn rewind_below_the_release_frontier_panics() {
        let t = numbered("t", 10);
        let mut w = ReplayWindow::new(&t);
        for _ in 0..6 {
            w.next_inst();
        }
        w.release_to(4);
        w.rewind_to(2);
    }

    #[test]
    #[should_panic(expected = "ahead of the fetch position")]
    fn rewind_ahead_of_fetch_panics() {
        let t = numbered("t", 10);
        let mut w = ReplayWindow::new(&t);
        w.next_inst();
        w.rewind_to(5);
    }

    #[test]
    fn release_is_clamped_and_monotonic() {
        let t = numbered("t", 10);
        let mut w = ReplayWindow::new(&t);
        for _ in 0..3 {
            w.next_inst();
        }
        w.release_to(100); // clamped to the fetch position
        assert_eq!(w.occupancy(), 0);
        w.release_to(1); // going backwards is a no-op
        let (id, inst) = w.next_inst().unwrap();
        assert_eq!((id, inst), (3, t[3]), "fetch resumes at position 3");
    }

    #[test]
    fn empty_source_is_immediately_at_end() {
        let t = Trace::new("empty");
        let mut w = ReplayWindow::new(&t);
        assert!(w.at_end());
        assert!(w.peek().is_none());
        assert!(w.next_inst().is_none());
        assert_eq!(w.fetched(), 0);
    }

    #[test]
    fn chain_concatenates_and_rebases_pcs() {
        let a = numbered("a", 3);
        let b = {
            let mut bld = TraceBuilder::named("b");
            bld.int_alu(ArchReg::int(0), &[]);
            bld.backward_branch(ArchReg::int(0), true);
            bld.finish()
        };
        let chained = MaterializedTrace::new(&a).then(MaterializedTrace::new(&b));
        assert_eq!(chained.name(), "a+b");
        assert_eq!(chained.len_hint(), Some(5));
        let insts = drain(chained);
        assert_eq!(insts.len(), 5);
        // First stream's pcs are 0,4,8; the second is rebased past them.
        assert_eq!(insts[3].pc, 12);
        assert_eq!(insts[4].pc, 16);
        let br = insts[4].branch.unwrap();
        assert!(br.target >= 12 || br.target == 0, "target rebased: {br:?}");
    }

    #[test]
    fn interleave_alternates_blocks_and_drains_tails() {
        let a = numbered("a", 5);
        let b = numbered("b", 2);
        let mixed = MaterializedTrace::new(&a).interleave(MaterializedTrace::new(&b), 2);
        assert_eq!(mixed.len_hint(), Some(7));
        let pcs: Vec<u64> = drain(mixed).iter().map(|i| i.pc).collect();
        // a: 0,4,8,12,16  b: 0,4 — blocks of two, then a's tail.
        assert_eq!(pcs, vec![0, 4, 0, 4, 8, 12, 16]);
    }

    #[test]
    fn repeat_replays_the_stream_with_repeating_pcs() {
        let t = numbered("t", 3);
        let r = MaterializedTrace::new(&t).repeat_n(3);
        assert_eq!(r.name(), "t*3");
        assert_eq!(r.len_hint(), Some(9));
        let insts = drain(r);
        assert_eq!(insts.len(), 9);
        assert_eq!(insts[0].pc, insts[3].pc);
        assert_eq!(insts[2].pc, insts[8].pc);
        let empty = MaterializedTrace::new(&t).repeat_n(0);
        assert_eq!(empty.len_hint(), Some(0), "zero passes is an empty stream");
        assert!(drain(empty).is_empty());
    }

    #[test]
    fn warmup_measure_truncates_and_classifies() {
        let t = numbered("t", 100);
        let wm = MaterializedTrace::new(&t).warmup_measure(10, 20);
        assert_eq!(wm.len_hint(), Some(30));
        assert_eq!(wm.region_of(9), Region::Warmup);
        assert_eq!(wm.region_of(10), Region::Measure);
        assert_eq!(wm.measure_start(), 10);
        assert_eq!(drain(wm).len(), 30);
    }

    #[test]
    fn combinators_compose() {
        let t = numbered("t", 4);
        let s = MaterializedTrace::new(&t)
            .repeat_n(2)
            .then(MaterializedTrace::new(&t))
            .warmup_measure(3, 6);
        let insts = drain(s);
        assert_eq!(insts.len(), 9);
        assert!(insts.iter().all(|i| i.kind == OpKind::IntAlu));
    }

    #[test]
    fn window_over_a_combinator_stream_rewinds_fine() {
        let t = numbered("t", 4);
        let mut w = ReplayWindow::new(MaterializedTrace::new(&t).repeat_n(2));
        let first: Vec<InstId> = std::iter::from_fn(|| w.next_inst().map(|(id, _)| id)).collect();
        assert_eq!(first.len(), 8);
        w.rewind_to(5);
        assert_eq!(w.next_inst().unwrap().0, 5);
    }
}
