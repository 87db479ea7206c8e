//! Streaming ingestion: unbounded-length runs in O(window) memory.
//!
//! ```bash
//! cargo run --release --example streaming_ingestion
//! ```
//!
//! The classic path materializes a workload's whole dynamic trace before
//! the run starts, so run length is capped by host memory. The streaming
//! path hands the pipeline an `InstructionSource` instead: instructions
//! are generated on demand, buffered only between the oldest live
//! recovery point and the fetch head (the `ReplayWindow`), and replayed
//! from that buffer on checkpoint rollback. This example drives a
//! 5-million-instruction run and prints the replay window's high-water
//! mark — thousands of entries, not millions — then composes a scenario
//! from combinators.

use koc::isa::{InstructionSource, SourceExt};
use koc::sim::{NullObserver, SimBuilder, Suite};
use koc::workloads::{kernels, suite::suite_average, KernelSource};

fn main() {
    // A run ~500x longer than the default suite traces, in O(window)
    // memory. `run_one` accepts anything implementing
    // `InstructionSource` (a `&Trace` included).
    let session = SimBuilder::cooo().build();
    let config = kernels::stream_add().with_target_len(5_000_000);
    let source = KernelSource::new("stream_add", config);
    println!(
        "streaming {} instructions through the replay window...",
        source.len_hint().expect("stream_add length is exact")
    );
    let start = std::time::Instant::now();
    let stats = session.run_one(source, NullObserver).0;
    println!(
        "  {} retired, {} cycles, IPC {:.2}, {:.1}s wall",
        stats.committed_instructions,
        stats.cycles,
        stats.ipc(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  replay-window peak: {} instructions ({}x smaller than the stream)\n",
        stats.replay_window_peak,
        stats.committed_instructions as usize / stats.replay_window_peak.max(1)
    );

    // Combinators compose scenarios without materializing anything: warm
    // the caches with a resident kernel, then measure an irregular one,
    // twice end to end.
    let warm = KernelSource::new(
        "dense_blocked",
        kernels::dense_blocked().with_target_len(5_000),
    );
    let hot = KernelSource::new("gather", kernels::gather().with_target_len(20_000));
    let scenario = warm.then(hot.repeat_n(2)).warmup_measure(5_000, 30_000);
    let stats = session.run_one(scenario, NullObserver).0;
    println!(
        "combinator scenario (warmup+measure): {} retired, IPC {:.2}",
        stats.committed_instructions,
        stats.ipc()
    );

    // The streamed suite: every workload spec hands out a fresh source,
    // with the same cycle counts as the materialized suite and without
    // ever building a trace.
    let ipcs: Vec<f64> = Suite::paper()
        .specs(10_000)
        .iter()
        .map(|spec| session.run_one(spec.source(), NullObserver).0.ipc())
        .collect();
    println!("streamed paper suite: {:.2} mean IPC", suite_average(&ipcs));
}
