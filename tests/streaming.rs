//! Integration gates for the streaming `InstructionSource` ingestion path.
//!
//! Three properties the API redesign promises:
//!
//! 1. **Bit-identical timing** — the full paper suite produces the same
//!    cycle counts (indeed the same `SimStats`) whether a `Processor` runs
//!    over a materialized `&Trace` or the workload's streaming source,
//!    under both commit engines, with event-driven fast-forward on and off.
//! 2. **O(window) memory** — a multi-million-instruction streaming run
//!    completes with a replay-window peak bounded by the machine's
//!    recovery depth (ROB / checkpoint span), independent of stream
//!    length.
//! 3. **Composability** — combinator pipelines (`then`, `repeat_n`,
//!    `warmup_measure`) and reloaded trace files run end to end.

use koc::isa::{InstructionSource, SourceExt, Trace};
use koc::sim::{NullObserver, Processor, ProcessorConfig, SimBuilder, Suite};
use koc::workloads::{generate_kernel, kernels, KernelSource, Workload};

/// Stream length for the long-run memory guard: ten million instructions
/// in release builds (the acceptance target), scaled down for debug test
/// runs where the simulator is several times slower.
const GUARD_LEN: usize = if cfg!(debug_assertions) {
    600_000
} else {
    10_000_000
};

#[test]
fn paper_suite_is_bit_identical_streamed_vs_materialized() {
    let specs = Suite::paper().specs(1_500);
    let workloads: Vec<Workload> = specs.iter().map(|s| s.materialize()).collect();
    for fast_forward in [true, false] {
        for base in [
            ProcessorConfig::baseline(128, 500),
            ProcessorConfig::cooo(64, 1024, 500),
        ] {
            let config = base.with_fast_forward(fast_forward);
            for (spec, workload) in specs.iter().zip(&workloads) {
                let materialized = Processor::new(config, &workload.trace).run();
                let streamed = Processor::new(config, spec.source()).run();
                assert_eq!(
                    materialized, streamed,
                    "{} (ff={fast_forward}) must not depend on how it is fed",
                    workload.name
                );
            }
        }
    }
}

#[test]
fn long_streaming_run_keeps_the_replay_window_at_rob_depth() {
    // In-order baseline: the replay window can never exceed the ROB (the
    // only recovery points) plus fetch lookahead.
    let window = 128;
    let config = kernels::stream_add().with_target_len(GUARD_LEN);
    let stats = SimBuilder::baseline(window)
        .build()
        .run_one(KernelSource::new("stream_add", config), NullObserver)
        .0;
    assert!(stats.committed_instructions as usize >= GUARD_LEN);
    assert!(
        stats.replay_window_peak <= window + 2,
        "peak {} must be bounded by the ROB, not the {GUARD_LEN}-instruction stream",
        stats.replay_window_peak
    );
}

#[test]
fn checkpointed_replay_window_is_bounded_by_checkpoint_depth_not_length() {
    // Checkpointed engine: recovery points are whole checkpoints, so the
    // window spans the live checkpoints — still independent of run length.
    let session = SimBuilder::cooo().build();
    let run = |len: usize| {
        let config = kernels::stream_add().with_target_len(len);
        session
            .run_one(KernelSource::new("stream_add", config), NullObserver)
            .0
    };
    let short = run(GUARD_LEN / 5);
    let long = run(GUARD_LEN / 2);
    assert!(short.committed_instructions < long.committed_instructions);
    // 2.5x more instructions, same peak (modulo end-of-stream drain jitter):
    // occupancy is a property of the machine, not of the stream length.
    assert!(
        short.replay_window_peak.abs_diff(long.replay_window_peak) <= 64,
        "peaks {} vs {} must not scale with stream length",
        short.replay_window_peak,
        long.replay_window_peak
    );
    assert!(
        long.replay_window_peak <= 8_192,
        "peak {} should track checkpoint depth",
        long.replay_window_peak
    );
}

#[test]
fn combinator_streams_run_end_to_end() {
    let warm = KernelSource::new(
        "dense_blocked",
        kernels::dense_blocked().with_target_len(800),
    );
    let measured = KernelSource::new("gather", kernels::gather().with_target_len(1_200));
    let stream = warm.then(measured.repeat_n(2)).warmup_measure(500, 2_000);
    // gather places irregular branches randomly, so no exact length can be
    // promised up front — the hint must decline rather than guess the cap.
    assert_eq!(stream.len_hint(), None);
    let stats = SimBuilder::baseline(64)
        .memory_latency(200)
        .build()
        .run_one(stream, NullObserver)
        .0;
    assert_eq!(stats.committed_instructions as usize, 2_500);
    assert!(stats.cycles > 0);
}

#[test]
fn saved_traces_reload_and_replay_identically() {
    let trace = generate_kernel("gather", &kernels::gather().with_target_len(2_000));
    let path = std::env::temp_dir().join(format!("koc-streaming-{}.json", std::process::id()));
    trace.save(&path).expect("save");
    let reloaded = Trace::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded, trace);
    let session = SimBuilder::cooo().build();
    assert_eq!(
        session.run_one(&trace, NullObserver).0,
        session.run_one(&reloaded, NullObserver).0,
        "a reloaded trace must time identically"
    );
}

#[test]
fn custom_suites_stream_their_fixed_traces() {
    let workload = Workload::generate("stencil27", kernels::stencil27(), 1_000);
    let spec = Suite::custom(vec![workload.clone()])
        .specs(99_999)
        .remove(0);
    let config = ProcessorConfig::baseline(64, 300);
    assert_eq!(
        Processor::new(config, &workload.trace).run(),
        Processor::new(config, spec.source()).run()
    );
}
