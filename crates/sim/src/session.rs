//! The fluent simulation API: [`SimBuilder`] configures a machine and a
//! workload suite, [`Session`] runs it, and [`Sweep`] runs a whole grid of
//! configurations in parallel.
//!
//! ```no_run
//! use koc_sim::{SimBuilder, Suite};
//!
//! // The paper's headline machine over the paper's suite:
//! let session = SimBuilder::cooo()
//!     .pseudo_rob(128)
//!     .sliq(2048)
//!     .workloads(Suite::paper())
//!     .trace_len(30_000)
//!     .build();
//! let result = session.run();
//! println!("COoO 128/2048: {:.2} IPC", result.mean_ipc());
//! ```

use crate::config::{BranchPredictorKind, CommitConfig, ProcessorConfig, RegisterModel};
use crate::pipeline::Processor;
use crate::stats::SimStats;
use koc_core::CheckpointPolicy;
use koc_isa::IntoInstructionSource;
use koc_mem::{BackendKind, DramConfig, PrefetchConfig};
use koc_obs::Observer;
use koc_workloads::{suite::suite_average, Suite, Workload};
use rayon::prelude::*;

/// Default minimum dynamic trace length per workload when none is given.
pub const DEFAULT_TRACE_LEN: usize = 10_000;

/// The result of running one configuration over one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload's suite name.
    pub workload: String,
    /// Full statistics for the run.
    pub stats: SimStats,
}

/// The result of running one configuration over a whole suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The configuration that produced the result.
    pub config: ProcessorConfig,
    /// Per-workload results, in suite order.
    pub per_workload: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// The suite-average IPC — the reduction every figure of the paper
    /// reports.
    pub fn mean_ipc(&self) -> f64 {
        suite_average(
            &self
                .per_workload
                .iter()
                .map(|r| r.stats.ipc())
                .collect::<Vec<_>>(),
        )
    }

    /// The suite-average number of in-flight instructions (Figure 11).
    pub fn mean_inflight(&self) -> f64 {
        suite_average(
            &self
                .per_workload
                .iter()
                .map(|r| r.stats.avg_inflight())
                .collect::<Vec<_>>(),
        )
    }

    /// Per-workload IPC values, in suite order.
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_workload.iter().map(|r| r.stats.ipc()).collect()
    }
}

/// Fluent builder for a simulation [`Session`].
///
/// Starts from one of the named machines ([`SimBuilder::baseline`],
/// [`SimBuilder::cooo`], [`SimBuilder::table1`]) or an explicit
/// configuration, applies overrides, picks a workload [`Suite`], and
/// [`build`](SimBuilder::build)s a runnable session.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    config: ProcessorConfig,
    suite: Suite,
    trace_len: usize,
    cycle_budget: Option<u64>,
}

impl SimBuilder {
    /// Starts from an explicit configuration.
    pub fn from_config(config: ProcessorConfig) -> Self {
        SimBuilder {
            config,
            suite: Suite::paper(),
            trace_len: DEFAULT_TRACE_LEN,
            cycle_budget: None,
        }
    }

    /// The Table 1 conventional baseline with `window`-entry ROB and
    /// instruction queues and 1000-cycle memory.
    pub fn baseline(window: usize) -> Self {
        Self::from_config(ProcessorConfig::baseline(window, 1000))
    }

    /// The paper's proposed machine at its headline configuration:
    /// 8 checkpoints, 128-entry pseudo-ROB and instruction queues,
    /// 2048-entry SLIQ, 1000-cycle memory. Refine with
    /// [`pseudo_rob`](Self::pseudo_rob), [`sliq`](Self::sliq),
    /// [`checkpoints`](Self::checkpoints) and the other overrides.
    pub fn cooo() -> Self {
        Self::from_config(ProcessorConfig::cooo(128, 2048, 1000))
    }

    /// The Table 1 parameters exactly as printed (4096-entry everything).
    pub fn table1() -> Self {
        Self::from_config(ProcessorConfig::table1())
    }

    /// Sets the pseudo-ROB size, sizing the instruction queues to match (the
    /// paper always sizes them equally).
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn pseudo_rob(mut self, entries: usize) -> Self {
        match &mut self.config.commit {
            CommitConfig::Checkpointed {
                pseudo_rob_size, ..
            } => *pseudo_rob_size = entries,
            CommitConfig::InOrderRob { .. } => {
                panic!("pseudo-ROB size applies to the checkpointed engine") // koc-lint: allow(panic, "setter contract: applies only to the checkpointed engine")
            }
        }
        self.config.iq_size = entries;
        self
    }

    /// Sets the SLIQ capacity.
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn sliq(mut self, entries: usize) -> Self {
        match &mut self.config.commit {
            CommitConfig::Checkpointed { sliq, .. } => sliq.capacity = entries,
            CommitConfig::InOrderRob { .. } => {
                panic!("SLIQ capacity applies to the checkpointed engine") // koc-lint: allow(panic, "setter contract: applies only to the checkpointed engine")
            }
        }
        self
    }

    /// Sets the number of checkpoint-table entries (Figure 13).
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn checkpoints(mut self, entries: usize) -> Self {
        self.config = self.config.with_checkpoints(entries);
        self
    }

    /// Sets the checkpoint-placement policy.
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        match &mut self.config.commit {
            CommitConfig::Checkpointed { policy: p, .. } => *p = policy,
            CommitConfig::InOrderRob { .. } => {
                panic!("checkpoint policy applies to the checkpointed engine") // koc-lint: allow(panic, "setter contract: applies only to the checkpointed engine")
            }
        }
        self
    }

    /// Sets the SLIQ → instruction-queue re-insertion delay (Figure 10).
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn reinsert_delay(mut self, cycles: u32) -> Self {
        self.config = self.config.with_reinsert_delay(cycles);
        self
    }

    /// Sets the in-flight window: the instruction-queue size plus — for the
    /// baseline — the ROB size, or — for the checkpointed machine — the
    /// pseudo-ROB size (the structures the paper scales together).
    pub fn window(mut self, entries: usize) -> Self {
        self.config.iq_size = entries;
        match &mut self.config.commit {
            CommitConfig::InOrderRob { rob_size } => *rob_size = entries,
            CommitConfig::Checkpointed {
                pseudo_rob_size, ..
            } => *pseudo_rob_size = entries,
        }
        self
    }

    /// Sets the register model (Figures 13 and 14).
    pub fn registers(mut self, registers: RegisterModel) -> Self {
        self.config.registers = registers;
        self
    }

    /// Sets the branch predictor.
    pub fn predictor(mut self, predictor: BranchPredictorKind) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// Sets the main-memory latency, keeping the rest of the hierarchy.
    pub fn memory_latency(mut self, cycles: u32) -> Self {
        self.config = self.config.with_memory_latency(cycles);
        self
    }

    /// Selects the timed memory backend wholesale
    /// ([`BackendKind::Flat`] is the default and reproduces the paper).
    pub fn memory_backend(mut self, backend: BackendKind) -> Self {
        self.config.memory = self.config.memory.with_backend(backend);
        self
    }

    /// Switches main memory to the banked DRAM backend with the given
    /// geometry and timing.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.config.memory = self.config.memory.with_dram(dram);
        self
    }

    /// Sets the MSHR count — the maximum outstanding misses. Upgrades a
    /// flat backend to the default DRAM part first.
    pub fn mshr_entries(mut self, entries: usize) -> Self {
        self.config.memory = self.config.memory.with_mshr_entries(entries);
        self
    }

    /// Sets the DRAM bank count. Upgrades a flat backend to the default
    /// DRAM part first.
    pub fn dram_banks(mut self, banks: usize) -> Self {
        self.config.memory = self.config.memory.with_dram_banks(banks);
        self
    }

    /// Sets the per-bank row-buffer size in bytes. Upgrades a flat backend
    /// to the default DRAM part first.
    pub fn row_buffer(mut self, bytes: u64) -> Self {
        self.config.memory = self.config.memory.with_row_buffer(bytes);
        self
    }

    /// Configures prefetching into the L2 miss stream.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.config.memory = self.config.memory.with_prefetch(prefetch);
        self
    }

    /// Replaces the commit configuration wholesale.
    pub fn commit(mut self, commit: CommitConfig) -> Self {
        self.config.commit = commit;
        self
    }

    /// Selects the workload suite the session runs.
    pub fn workloads(mut self, suite: Suite) -> Self {
        self.suite = suite;
        self
    }

    /// Sets the minimum dynamic trace length per generated workload.
    pub fn trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// Enables or disables the event-driven fast-forward (on by default):
    /// when every pipeline stage is stalled on the memory backend, the
    /// simulator jumps to the next scheduled event instead of ticking
    /// through the dead cycles. Bit-identical results either way.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.config = self.config.with_fast_forward(enabled);
        self
    }

    /// Caps every run of this session at `cycles` simulated cycles. A run
    /// that hits the cap stops early and reports partial statistics with
    /// [`SimStats::budget_exhausted`](crate::SimStats) set — the cheap way
    /// to bound exploratory sweeps over huge grids.
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// The configuration as currently built.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Validates the configuration and returns a runnable [`Session`].
    /// Workloads are materialized lazily, when the session first needs them.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ProcessorConfig::validate`].
    pub fn build(self) -> Session {
        if let Err(e) = self.config.validate() {
            panic!("invalid processor configuration: {e}"); // koc-lint: allow(panic, "invalid configuration is a caller bug; validate() names the field")
        }
        Session {
            config: self.config,
            suite: self.suite,
            trace_len: self.trace_len,
            cycle_budget: self.cycle_budget,
        }
    }
}

/// A runnable simulation: one machine configuration over a workload suite.
#[derive(Debug, Clone)]
pub struct Session {
    config: ProcessorConfig,
    suite: Suite,
    trace_len: usize,
    cycle_budget: Option<u64>,
}

impl Session {
    /// The session's machine configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Materializes the session's workloads, in suite order.
    pub fn workloads(&self) -> Vec<Workload> {
        self.suite.generate(self.trace_len)
    }

    /// Generates the suite's workloads and runs every one of them (in
    /// parallel), returning the suite result. To stream a workload instead
    /// of materializing it, pass its source to [`run_one`](Self::run_one).
    pub fn run(&self) -> SuiteResult {
        let mut sweep = Sweep::over([self.config])
            .workloads(self.suite.clone())
            .trace_len(self.trace_len);
        if let Some(budget) = self.cycle_budget {
            sweep = sweep.cycle_budget(budget);
        }
        sweep
            .run()
            .pop()
            .expect("a sweep returns one result per configuration") // koc-lint: allow(panic, "a sweep returns one result per configuration")
    }

    /// Runs the session's configuration over pre-generated workloads (in
    /// parallel), ignoring the session's own suite. The workloads stream
    /// through the replay window from their materialized traces.
    pub fn run_on(&self, workloads: &[Workload]) -> SuiteResult {
        let mut sweep = Sweep::over([self.config]);
        if let Some(budget) = self.cycle_budget {
            sweep = sweep.cycle_budget(budget);
        }
        sweep
            .run_on(workloads)
            .pop()
            .expect("a sweep returns one result per configuration") // koc-lint: allow(panic, "a sweep returns one result per configuration")
    }

    /// Runs the session's configuration over one externally supplied
    /// instruction stream — the single one-off entry point, generic over
    /// both the ingestion side ([`IntoInstructionSource`]: a `&Trace`, a
    /// streaming generator, a combinator pipeline…) and the observation
    /// side ([`Observer`]: pass [`koc_obs::NullObserver`] for an unobserved
    /// run, or any recording observer to get it back filled in).
    ///
    /// Attaching an observer never changes simulated timing, and memory
    /// stays O(in-flight window) regardless of how many instructions the
    /// source produces.
    pub fn run_one<'s, O: Observer>(
        &self,
        source: impl IntoInstructionSource<'s>,
        obs: O,
    ) -> (SimStats, O) {
        run_to_completion(
            Processor::with_observer(self.config, source, obs),
            self.cycle_budget,
        )
    }

    /// A fresh processor over `source`, for callers that want to drive the
    /// pipeline cycle by cycle (or inspect state mid-run).
    pub fn processor<'t>(&self, source: impl IntoInstructionSource<'t>) -> Processor<'t> {
        Processor::new(self.config, source)
    }
}

/// A parallel sweep: a grid of configurations, each run over the same
/// workloads. Every (workload × configuration) pair is an independent job
/// fanned out over the worker threads. Results come back in the same order
/// as the input configurations — one [`SuiteResult`] per configuration.
///
/// ```no_run
/// use koc_sim::{ProcessorConfig, Sweep};
///
/// // Figure 9's nine proposal configurations, fanned out over all cores:
/// let configs = [512usize, 1024, 2048].iter().flat_map(|&sliq| {
///     [32usize, 64, 128].iter().map(move |&iq| ProcessorConfig::cooo(iq, sliq, 1000))
/// });
/// let results = Sweep::over(configs).trace_len(30_000).run();
/// for r in &results {
///     println!("{:.2}", r.mean_ipc());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    configs: Vec<ProcessorConfig>,
    suite: Suite,
    trace_len: usize,
    cycle_budget: Option<u64>,
}

impl Sweep {
    /// A sweep over the given configurations (run order = input order).
    pub fn over(configs: impl IntoIterator<Item = ProcessorConfig>) -> Self {
        Sweep {
            configs: configs.into_iter().collect(),
            suite: Suite::paper(),
            trace_len: DEFAULT_TRACE_LEN,
            cycle_budget: None,
        }
    }

    /// Selects the workload suite every configuration runs.
    pub fn workloads(mut self, suite: Suite) -> Self {
        self.suite = suite;
        self
    }

    /// Sets the minimum dynamic trace length per generated workload.
    pub fn trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// Caps every (configuration x workload) run at `cycles` simulated
    /// cycles (see [`SimBuilder::cycle_budget`]).
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// The configurations in the sweep, in run order.
    pub fn configs(&self) -> &[ProcessorConfig] {
        &self.configs
    }

    /// Generates the suite once and runs the whole grid over it (see
    /// [`run_on`](Self::run_on)). Returns one result per configuration, in
    /// input order.
    pub fn run(&self) -> Vec<SuiteResult> {
        self.run_on(&self.suite.generate(self.trace_len))
    }

    /// Runs the grid over pre-generated workloads (shared by reference, so
    /// nothing is cloned per configuration). Returns one result per
    /// configuration, in input order.
    ///
    /// Pairs are queued workload-major (`w0c0, w0c1, …, w1c0, …`), so the
    /// costly configurations of a grid — the big windows — spread across
    /// workers instead of lining up on one of them.
    pub fn run_on(&self, workloads: &[Workload]) -> Vec<SuiteResult> {
        let pairs: Vec<(&Workload, &ProcessorConfig)> = workloads
            .iter()
            .flat_map(|w| self.configs.iter().map(move |c| (w, c)))
            .collect();
        let stats: Vec<SimStats> = pairs
            .par_iter()
            .map(|(w, config)| {
                run_to_completion(Processor::new(**config, &w.trace), self.cycle_budget).0
            })
            .collect();
        self.configs
            .iter()
            .enumerate()
            .map(|(ci, config)| SuiteResult {
                config: *config,
                per_workload: workloads
                    .iter()
                    .enumerate()
                    .map(|(wi, w)| WorkloadResult {
                        workload: w.name.clone(),
                        stats: stats[wi * self.configs.len() + ci].clone(),
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Runs `processor` to the end, or until `budget` simulated cycles.
fn run_to_completion<O: Observer>(
    mut processor: Processor<'_, O>,
    budget: Option<u64>,
) -> (SimStats, O) {
    processor.advance_slice(usize::MAX, u64::MAX, budget);
    processor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_workloads::kernels;

    #[test]
    fn builder_produces_the_issue_example_configuration() {
        let session = SimBuilder::cooo()
            .pseudo_rob(128)
            .sliq(2048)
            .workloads(Suite::paper())
            .trace_len(1_000)
            .build();
        let c = session.config();
        assert_eq!(c.iq_size, 128);
        match c.commit {
            CommitConfig::Checkpointed {
                pseudo_rob_size,
                sliq,
                checkpoint_entries,
                ..
            } => {
                assert_eq!(pseudo_rob_size, 128);
                assert_eq!(sliq.capacity, 2048);
                assert_eq!(checkpoint_entries, 8);
            }
            _ => panic!("expected the checkpointed engine"),
        }
        assert_eq!(session.workloads().len(), 5);
    }

    #[test]
    fn session_runs_a_single_kernel_suite() {
        let result = SimBuilder::baseline(128)
            .memory_latency(100)
            .workloads(Suite::kernel("stream_add", kernels::stream_add()))
            .trace_len(2_000)
            .build()
            .run();
        assert_eq!(result.per_workload.len(), 1);
        assert!(result.mean_ipc() > 0.0);
        assert_eq!(result.per_workload[0].workload, "stream_add");
    }

    #[test]
    fn window_scales_rob_and_queues_together() {
        let b = SimBuilder::baseline(128).window(512);
        assert_eq!(b.config().iq_size, 512);
        assert_eq!(
            b.config().commit,
            CommitConfig::InOrderRob { rob_size: 512 }
        );
    }

    #[test]
    #[should_panic(expected = "checkpointed engine")]
    fn sliq_override_on_the_baseline_panics() {
        let _ = SimBuilder::baseline(128).sliq(1024);
    }

    #[test]
    fn sweep_returns_results_in_input_order() {
        let windows = [32usize, 64, 128];
        let sweep = Sweep::over(windows.iter().map(|&w| ProcessorConfig::baseline(w, 100)))
            .workloads(Suite::kernel("stream_add", kernels::stream_add()))
            .trace_len(1_500);
        let results = sweep.run();
        assert_eq!(results.len(), windows.len());
        for (r, &w) in results.iter().zip(windows.iter()) {
            assert_eq!(r.config.iq_size, w, "results must follow input order");
            assert_eq!(r.per_workload.len(), 1);
        }
    }

    #[test]
    fn empty_workloads_still_yield_one_result_per_config() {
        let results = Sweep::over([
            ProcessorConfig::baseline(64, 100),
            ProcessorConfig::cooo(32, 512, 100),
        ])
        .run_on(&[]);
        assert_eq!(results.len(), 2, "one (empty) result per configuration");
        assert!(results.iter().all(|r| r.per_workload.is_empty()));
        assert_eq!(results[1].config.iq_size, 32, "input order holds");

        let session = SimBuilder::baseline(64)
            .workloads(Suite::custom(Vec::new()))
            .build();
        let r = session.run();
        assert!(r.per_workload.is_empty());
        assert_eq!(
            r.mean_ipc(),
            0.0,
            "suite average of nothing is zero, not a panic"
        );
    }

    #[test]
    fn sweep_run_on_shares_pregenerated_workloads() {
        let workloads = Suite::paper().generate(800);
        let results = Sweep::over([
            ProcessorConfig::baseline(64, 100),
            ProcessorConfig::cooo(32, 512, 100),
        ])
        .run_on(&workloads);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_workload.len(), workloads.len());
            for (wr, w) in r.per_workload.iter().zip(workloads.iter()) {
                assert_eq!(wr.workload, w.name);
                assert_eq!(wr.stats.committed_instructions as usize, w.trace.len());
            }
        }
    }
}
