//! Grid-stepping gates: running many configurations over one stream must
//! be a pure scheduling change for the `Sweep` executor.
//!
//! 1. **Identity** — a multi-config grid is bit-identical to each
//!    configuration run on its own, whether the workload is a
//!    materialized trace or a streamed `spec.source()`, on both engines,
//!    with fast-forward on and off, uncapped and under a cycle budget
//!    (`budget_exhausted` included; zero tolerance, like
//!    `tests/determinism.rs`).
//! 2. **Budget semantics** — staggered cycle budgets behave exactly like
//!    a sequential reference that steps a solo processor in fixed-size
//!    cycle slices (property-tested over random lane counts, budgets and
//!    slice sizes).

use koc_sim::{Processor, ProcessorConfig, SimStats, SliceOutcome, Suite, Sweep};
use koc_workloads::{kernels, Workload};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Config grids covering the in-order engine, the checkpointed engine and
/// a mixed grid, at a latency small enough to step without fast-forward.
fn grids() -> Vec<Vec<ProcessorConfig>> {
    vec![
        vec![
            ProcessorConfig::baseline(64, 250),
            ProcessorConfig::baseline(128, 250),
        ],
        vec![
            ProcessorConfig::cooo(32, 512, 250),
            ProcessorConfig::cooo(16, 256, 250),
            ProcessorConfig::cooo(64, 1024, 250),
        ],
        vec![
            ProcessorConfig::baseline(64, 250),
            ProcessorConfig::cooo(32, 512, 250),
        ],
    ]
}

#[test]
fn lockstep_matches_per_config_across_engines_sources_and_fast_forward() {
    // pointer_chase is slow enough to exhaust the budget while stream_mlp
    // finishes under it.
    let specs = Suite::mlp_contrast().specs(1_000);
    let workloads: Vec<Workload> = specs.iter().map(|s| s.materialize()).collect();
    let (mut capped, mut complete) = (0, 0);
    for configs in grids() {
        for fast_forward in [true, false] {
            let configs: Vec<ProcessorConfig> = configs
                .iter()
                .map(|c| c.with_fast_forward(fast_forward))
                .collect();
            for budget in [None, Some(20_000)] {
                let sweep = |configs: &[ProcessorConfig]| {
                    let mut sweep = Sweep::over(configs.iter().copied());
                    if let Some(cycles) = budget {
                        sweep = sweep.cycle_budget(cycles);
                    }
                    sweep.run_on(&workloads)
                };
                let grid = sweep(&configs);
                assert_eq!(grid.len(), configs.len());
                for (result, config) in grid.iter().zip(&configs) {
                    assert_eq!(result.config, *config, "result order must be input order");
                    let per_config = sweep(std::slice::from_ref(config));
                    for ((cell, alone), spec) in result
                        .per_workload
                        .iter()
                        .zip(&per_config[0].per_workload)
                        .zip(&specs)
                    {
                        assert_eq!(cell.workload, alone.workload);
                        assert_eq!(
                            cell.stats, alone.stats,
                            "{}: the grid must be bit-identical to a one-config sweep \
                             (fast_forward={fast_forward}, budget={budget:?})",
                            cell.workload
                        );
                        let mut solo = Processor::new(*config, spec.source());
                        solo.advance_slice(usize::MAX, u64::MAX, budget);
                        assert_eq!(
                            cell.stats,
                            solo.finish().0,
                            "{}: the materialized grid must be bit-identical to a streamed \
                             solo run (fast_forward={fast_forward}, budget={budget:?})",
                            cell.workload
                        );
                        if budget.is_some() {
                            if cell.stats.budget_exhausted {
                                capped += 1;
                            } else {
                                complete += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        capped > 0 && complete > 0,
        "the budget must cap some cells and spare others ({capped} capped, {complete} complete)"
    );
}

fn proptest_workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::generate("stream_add", kernels::stream_add(), 1_500))
}

/// The sequential reference: a solo processor stepped in `slice`-cycle
/// slices until the run is over, stopped at `budget` cycles.
fn sliced_reference(
    config: ProcessorConfig,
    workload: &Workload,
    budget: Option<u64>,
    slice: u64,
) -> SimStats {
    let mut processor = Processor::new(config, &workload.trace);
    let mut until = 0u64;
    loop {
        until = until.saturating_add(slice);
        if processor.advance_slice(usize::MAX, until, budget) != SliceOutcome::CycleTarget {
            break;
        }
    }
    processor.finish().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random lane counts, staggered cycle budgets and arbitrary slice
    /// sizes against the sequential reference: every lane of every
    /// budgeted grid must report exactly what a solo run of its
    /// configuration reports under the same budget.
    #[test]
    fn staggered_budgets_match_the_sequential_reference(
        lanes in 1usize..5,
        slice in 1u64..600,
        budget_pool in proptest::collection::vec(0u64..2_500, 1..5),
    ) {
        let palette = [
            ProcessorConfig::baseline(64, 300),
            ProcessorConfig::cooo(32, 512, 300),
            ProcessorConfig::cooo(16, 256, 300),
            ProcessorConfig::baseline(128, 300),
        ];
        let configs: Vec<ProcessorConfig> =
            (0..lanes).map(|i| palette[i % palette.len()]).collect();
        // Values below 150 mean "uncapped": a mix of None and staggered
        // caps, without needing an Option strategy.
        let budgets: Vec<Option<u64>> = budget_pool
            .iter()
            .map(|&b| Some(b).filter(|&b| b >= 150))
            .collect();
        let workload = proptest_workload();
        for budget in budgets {
            let mut sweep = Sweep::over(configs.iter().copied());
            if let Some(cycles) = budget {
                sweep = sweep.cycle_budget(cycles);
            }
            let got = sweep.run_on(std::slice::from_ref(workload));
            prop_assert_eq!(got.len(), configs.len());
            for (result, config) in got.iter().zip(&configs) {
                let reference = sliced_reference(*config, workload, budget, slice);
                prop_assert_eq!(&result.per_workload[0].stats, &reference);
            }
        }
    }
}
