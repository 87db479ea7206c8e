//! Sweep baseline gate: the grid executor, which fans every (workload ×
//! configuration) pair out as an independent job over the worker threads,
//! must land exactly on the committed `bench/baseline.json` cycle counts.
//! Grid-vs-solo identity lives in `tests/lockstep.rs`.

use koc_sim::Sweep;

/// The committed `bench/baseline.json` cycle counts for both canonical
/// engines over the full quick suite, pinned in-source: a sweep must land
/// on exactly these numbers.
#[test]
fn sweep_lands_on_the_committed_baseline_cycles() {
    use koc_bench::harness::{engines, workloads, QUICK_TRACE_LEN};

    const PINNED: &[(&str, u64, u64, u64)] = &[
        // (workload, baseline cycles, cooo cycles, retired)
        ("stream_add", 47_328, 4_183, 8_004),
        ("stencil27", 61_382, 4_460, 8_100),
        ("dense_blocked", 57_208, 3_623, 8_140),
        ("reduction", 59_149, 5_608, 8_008),
        ("gather", 63_937, 4_516, 8_070),
        ("pointer_chase", 6_458_794, 6_458_795, 8_000),
        ("stream_mlp", 63_883, 3_933, 8_024),
    ];
    let workloads = workloads(QUICK_TRACE_LEN);
    assert_eq!(workloads.len(), PINNED.len(), "quick suite changed shape");
    let results = Sweep::over(engines().map(|(_, config)| config)).run_on(&workloads);
    for (result, (engine, _)) in results.iter().zip(engines()) {
        for (cell, &(name, base_cycles, cooo_cycles, retired)) in
            result.per_workload.iter().zip(PINNED)
        {
            let cycles = if engine == "baseline" {
                base_cycles
            } else {
                cooo_cycles
            };
            assert_eq!(cell.workload, name);
            assert_eq!(
                (cell.stats.cycles, cell.stats.committed_instructions),
                (cycles, retired),
                "{name}/{engine}: cycles must stay on bench/baseline.json"
            );
        }
    }
}
