//! Smoke tests for the statistics the experiment harness relies on: the
//! figure-specific outputs exist and behave sensibly on small runs.

use koc_bench::experiments::fig07_live::{LiveBreakdown, PERCENTILES};
use koc_core::RetireClass;
use koc_sim::{Processor, ProcessorConfig, RegisterModel, SimStats};
use koc_workloads::{kernels, Workload};

fn run_trace(config: ProcessorConfig, trace: &koc_isa::Trace) -> SimStats {
    Processor::new(config, trace).run()
}

fn workload() -> Workload {
    Workload::generate("stream_add", kernels::stream_add(), 5_000)
}

#[test]
fn figure7_distributions_are_recorded() {
    let w = workload();
    let (stats, live) = Processor::with_observer(
        ProcessorConfig::baseline(2048, 500),
        &w.trace,
        LiveBreakdown::new(&w.trace),
    )
    .run_observed();
    let p: Vec<usize> = PERCENTILES
        .iter()
        .map(|&(_, p)| stats.inflight.percentile(p))
        .collect();
    assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
    assert!(
        live.live.mean() <= stats.inflight.mean(),
        "live instructions are a subset of in-flight"
    );
    assert_eq!(
        live.live.count() as u64,
        stats.cycles,
        "one sample per cycle"
    );
    assert!(
        live.blocked_long.count() > 0,
        "the long/short breakdown is sampled"
    );
    assert_eq!(live.blocked_long.count(), live.blocked_short.count());
}

#[test]
fn figure11_inflight_average_tracks_window_size() {
    let w = workload();
    let small = run_trace(ProcessorConfig::baseline(128, 1000), &w.trace);
    let large = run_trace(ProcessorConfig::baseline(2048, 1000), &w.trace);
    assert!(small.avg_inflight() <= 128.0 + 1.0);
    assert!(large.avg_inflight() > small.avg_inflight());
}

#[test]
fn figure12_breakdown_covers_all_retirements() {
    let w = workload();
    let stats = run_trace(ProcessorConfig::cooo(32, 1024, 1000), &w.trace);
    let total = stats.retire_breakdown.total();
    assert!(total > 0);
    let sum: u64 = RetireClass::all()
        .iter()
        .map(|&c| stats.retire_breakdown.count(c))
        .sum();
    assert_eq!(sum, total);
    assert!(stats.retire_breakdown.count(RetireClass::Store) > 0);
}

#[test]
fn figure13_checkpoint_sweep_is_monotonicish() {
    let w = workload();
    let few = run_trace(
        ProcessorConfig::cooo(128, 2048, 500).with_checkpoints(4),
        &w.trace,
    );
    let many = run_trace(
        ProcessorConfig::cooo(128, 2048, 500).with_checkpoints(32),
        &w.trace,
    );
    assert!(many.ipc() >= few.ipc() * 0.9);
}

#[test]
fn figure14_virtual_registers_run_and_constrain() {
    let w = workload();
    let plenty = run_trace(
        ProcessorConfig::cooo(128, 1024, 500).with_registers(RegisterModel::Virtual {
            virtual_tags: 2048,
            phys_regs: 512,
        }),
        &w.trace,
    );
    let scarce = run_trace(
        ProcessorConfig::cooo(128, 1024, 500).with_registers(RegisterModel::Virtual {
            virtual_tags: 512,
            phys_regs: 256,
        }),
        &w.trace,
    );
    assert_eq!(plenty.committed_instructions as usize, w.trace.len());
    assert_eq!(scarce.committed_instructions as usize, w.trace.len());
    assert!(
        plenty.ipc() >= scarce.ipc() * 0.95,
        "more register resources should not hurt: {} vs {}",
        plenty.ipc(),
        scarce.ipc()
    );
}

#[test]
fn table1_constructor_reports_the_paper_parameters() {
    let c = ProcessorConfig::table1();
    assert_eq!(c.fetch_width, 4);
    assert_eq!(c.iq_size, 4096);
    assert_eq!(c.lsq_size, 4096);
    assert_eq!(c.memory.memory_latency, 1000);
}
