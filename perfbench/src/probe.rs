//! Wrappers that time calls into the simulator's layers from outside: a
//! [`TimedEngine`] around a commit engine, a [`TimedSource`] around an
//! instruction source and a [`TimedObserver`] around an observer.
//!
//! Every call is counted. Reading the clock around every call costs more
//! than many of the calls themselves, so only a deterministic pseudo-random
//! sample of about one call in [`SAMPLE_EVERY`] is timed, and the sampled
//! time is scaled up by calls over sampled calls. The cost of an empty
//! timed region, measured once by [`timer_floor_ns`], is subtracted from
//! every sample.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use koc_core::CheckpointId;
use koc_isa::{InstId, Instruction};
use koc_sim::{
    CommitEngine, CycleSample, DispatchStall, Dispatched, EngineCtx, Event, InstructionSource,
    Observer, SimStats, Writeback,
};

/// Mean gap between timed calls of one hook.
pub const SAMPLE_EVERY: u64 = 16;

/// The median cost in ns of an empty timed region (`Instant::now` and
/// `elapsed`) on this host, measured on first use.
pub fn timer_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Call count and sampled time of one hook.
#[derive(Debug, Clone, Copy)]
pub struct HookClock {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub timed_calls: u64,
    /// Summed time of the timed calls, less the timer floor, in ns.
    pub timed_ns: u64,
    countdown: u64,
    rng: u64,
    floor: u64,
}

impl Default for HookClock {
    fn default() -> Self {
        HookClock {
            calls: 0,
            timed_calls: 0,
            timed_ns: 0,
            countdown: 1,
            rng: 0x9E37_79B9_7F4A_7C15,
            floor: timer_floor_ns(),
        }
    }
}

impl HookClock {
    /// Counts one call of `f`, timing it when the sampler picks it.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown != 0 {
            return f();
        }
        // Gaps are uniform in 1..2*SAMPLE_EVERY, so sampling cannot lock
        // onto a periodic pattern of the pipeline.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.countdown = 1 + self.rng % (2 * SAMPLE_EVERY - 1);
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.timed_calls += 1;
        self.timed_ns += ns.saturating_sub(self.floor);
        r
    }

    /// Estimated total time of all calls, in ns.
    pub fn estimated_ns(&self) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            self.timed_ns as f64 * self.calls as f64 / self.timed_calls as f64
        }
    }

    /// Mean time of one call, in ns (0 when none was timed).
    pub fn ns_per_call(&self) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed_calls as f64
        }
    }

    /// Adds another clock's counts (for totals over several runs).
    pub fn merge(&mut self, other: &HookClock) {
        self.calls += other.calls;
        self.timed_calls += other.timed_calls;
        self.timed_ns += other.timed_ns;
    }
}

/// The engine hooks, grouped as the benchmark reports them.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineClocks {
    /// `reserve`, `allocate`, `dispatched` and `frontend_drain`.
    pub dispatch: HookClock,
    /// `wake` (SLIQ wake-up).
    pub wake: HookClock,
    /// `completed`.
    pub writeback: HookClock,
    /// `commit`, called once per stepped cycle.
    pub commit: HookClock,
    /// `recover_branch` and `recover_exception`.
    pub recovery: HookClock,
}

impl EngineClocks {
    /// The four hook groups and recovery, by report name.
    pub fn named(&self) -> [(&'static str, &HookClock); 5] {
        [
            ("dispatch", &self.dispatch),
            ("wake", &self.wake),
            ("writeback", &self.writeback),
            ("commit", &self.commit),
            ("recovery", &self.recovery),
        ]
    }

    /// Estimated time of every timed hook, in ns.
    pub fn total_ns(&self) -> f64 {
        self.named().iter().map(|(_, c)| c.estimated_ns()).sum()
    }

    /// Adds another run's clocks.
    pub fn merge(&mut self, other: &EngineClocks) {
        self.dispatch.merge(&other.dispatch);
        self.wake.merge(&other.wake);
        self.writeback.merge(&other.writeback);
        self.commit.merge(&other.commit);
        self.recovery.merge(&other.recovery);
    }
}

/// A commit engine wrapped so that each hook call is counted and sampled.
/// The processor owns the engine, so the clocks are published to a shared
/// cell when the run finalizes.
pub struct TimedEngine<O: Observer> {
    inner: Box<dyn CommitEngine<O>>,
    clocks: EngineClocks,
    sink: Rc<Cell<EngineClocks>>,
}

impl<O: Observer> TimedEngine<O> {
    /// Wraps `inner`; read the clocks from the returned cell after the run.
    pub fn wrap(inner: Box<dyn CommitEngine<O>>) -> (Box<Self>, Rc<Cell<EngineClocks>>) {
        let sink = Rc::new(Cell::new(EngineClocks::default()));
        let engine = TimedEngine {
            inner,
            clocks: EngineClocks::default(),
            sink: Rc::clone(&sink),
        };
        (Box::new(engine), sink)
    }
}

impl<O: Observer> CommitEngine<O> for TimedEngine<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn live_checkpoints(&self) -> usize {
        self.inner.live_checkpoints()
    }

    fn reserve(
        &mut self,
        id: InstId,
        inst: &Instruction,
        ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall> {
        let Self { inner, clocks, .. } = self;
        clocks.dispatch.time(|| inner.reserve(id, inst, ctx))
    }

    fn allocate(&mut self, d: &Dispatched) -> CheckpointId {
        let Self { inner, clocks, .. } = self;
        clocks.dispatch.time(|| inner.allocate(d))
    }

    fn dispatched(&mut self, d: &Dispatched, ckpt: CheckpointId, ctx: &mut EngineCtx<'_, '_, O>) {
        let Self { inner, clocks, .. } = self;
        clocks.dispatch.time(|| inner.dispatched(d, ckpt, ctx))
    }

    fn frontend_drain(&mut self, budget: usize, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        let Self { inner, clocks, .. } = self;
        clocks.dispatch.time(|| inner.frontend_drain(budget, ctx))
    }

    fn wake(&mut self, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        let Self { inner, clocks, .. } = self;
        clocks.wake.time(|| inner.wake(ctx))
    }

    fn next_wake(&self) -> Option<u64> {
        self.inner.next_wake()
    }

    fn completed(&mut self, wb: &Writeback, ctx: &mut EngineCtx<'_, '_, O>) {
        let Self { inner, clocks, .. } = self;
        clocks.writeback.time(|| inner.completed(wb, ctx))
    }

    fn commit(&mut self, ctx: &mut EngineCtx<'_, '_, O>) {
        let Self { inner, clocks, .. } = self;
        clocks.commit.time(|| inner.commit(ctx))
    }

    fn recover_branch(&mut self, branch: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        let Self { inner, clocks, .. } = self;
        clocks.recovery.time(|| inner.recover_branch(branch, ctx))
    }

    fn recover_exception(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) -> bool {
        let Self { inner, clocks, .. } = self;
        clocks.recovery.time(|| inner.recover_exception(inst, ctx))
    }

    fn finalize(&mut self, stats: &mut SimStats) {
        self.inner.finalize(stats);
        self.sink.set(self.clocks);
    }
}

/// An instruction source wrapped so that `next_inst` is counted and
/// sampled. Pass it to the processor by `&mut` and read `clock` afterwards.
pub struct TimedSource<S> {
    inner: S,
    /// Calls of `next_inst`.
    pub clock: HookClock,
}

impl<S: InstructionSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            clock: HookClock::default(),
        }
    }
}

impl<S: InstructionSource> InstructionSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        let Self { inner, clock } = self;
        clock.time(|| inner.next_inst())
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// An observer wrapped so that `sample` and `skip` are counted and sampled.
/// Events are counted but not timed: the engine raises most of them inside
/// its own hooks, whose time the engine clocks already hold.
#[derive(Debug)]
pub struct TimedObserver<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Events delivered.
    pub events: u64,
    /// Calls of `sample` (one per stepped cycle).
    pub sample: HookClock,
    /// Calls of `skip` (one per fast-forwarded gap).
    pub skip: HookClock,
}

impl<O: Observer> TimedObserver<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            events: 0,
            sample: HookClock::default(),
            skip: HookClock::default(),
        }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    const ENABLED: bool = true;

    fn event(&mut self, cycle: u64, ev: Event) {
        self.events += 1;
        self.inner.event(cycle, ev);
    }

    fn sample(&mut self, s: &CycleSample) {
        let Self { inner, sample, .. } = self;
        sample.time(|| inner.sample(s))
    }

    fn skip(&mut self, s: &CycleSample, n: u64) {
        let Self { inner, skip, .. } = self;
        skip.time(|| inner.skip(s, n))
    }
}
