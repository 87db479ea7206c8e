//! `memwall_stream`: one multi-million-instruction streamed run per engine
//! over `pointer_chase`, then `stream_mlp`, then `stream_add`, pulled
//! lazily from `KernelSource`, on banked DRAM (16 MSHRs) with the stride
//! prefetcher, and with a `CycleAccounting` observer attached.
//!
//! The opposite of `fig9_sweep`: fast-forward skips most cycles, the DRAM,
//! MSHR and prefetch backend and the observer do real work, and generation
//! and the replay window run inside the timed region.

use std::time::Instant;

use koc_bench::experiments::mlp_sensitivity::dram;
use koc_sim::{
    engine, CycleAccounting, InstructionSource, Observer, PrefetchConfig, Processor,
    ProcessorConfig, SimStats, SourceExt,
};
use koc_workloads::{kernels, KernelConfig, KernelSource};

use crate::layers::{record_shared, EngineTrace, Layers, ENGINES};
use crate::probe::{TimedEngine, TimedObserver, TimedSource};
use crate::stats::{sum_of_slice_medians, Tally};
use crate::{check_run, drain_ns_per_inst, mix, timed, Outcome, Peak, RunOpts, Timings};

/// Dynamic instructions drawn from each of the three kernels.
pub const LEN_PER_KERNEL: usize = 700_000;

/// Fetched instructions per timed slice of a streamed run.
pub const SLICE: usize = 100_000;

/// Main-memory latency, cycles.
pub const MEMORY_LATENCY: u32 = 1000;

/// Source-and-processor constructions timed for `setup_s` after each
/// streamed run. Set-up is timed across the whole run, so its median sees
/// the same host as the trials.
const SETUP_PER_RUN: usize = 32;

/// The machine of one engine: IQ 32, banked DRAM with 16 MSHRs and the
/// stride prefetcher.
pub fn machine(engine: &str) -> ProcessorConfig {
    let mut c = if engine == "cooo" {
        ProcessorConfig::cooo(32, 2048, MEMORY_LATENCY)
    } else {
        ProcessorConfig::baseline(32, MEMORY_LATENCY)
    };
    c.memory = c
        .memory
        .with_dram(dram(16))
        .with_prefetch(PrefetchConfig::stride());
    c
}

/// The three kernels with `seed` folded into each kernel seed.
pub fn kernel_configs(seed: u64, len: usize) -> Vec<(&'static str, KernelConfig)> {
    [
        ("pointer_chase", kernels::pointer_chase()),
        ("stream_mlp", kernels::stream_mlp()),
        ("stream_add", kernels::stream_add()),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, mut c))| {
        c.seed ^= mix(seed, 100 + i as u64);
        (name, c.with_target_len(len))
    })
    .collect()
}

/// The chained stream and its length.
pub fn source(seed: u64, len: usize) -> (impl InstructionSource + Send, usize) {
    let k = kernel_configs(seed, len);
    let kernel = |i: usize| KernelSource::new(k[i].0, k[i].1);
    let chain = kernel(0).then(kernel(1)).then(kernel(2));
    let len = chain.len_hint().expect("regular kernels know their length");
    (chain, len)
}

/// Runs the workload.
pub fn run(opts: &RunOpts, tally: &mut Tally) -> Outcome {
    let len = LEN_PER_KERNEL;
    let mut setup = Vec::new();
    let construct = |setup: &mut Vec<f64>| {
        for _ in 0..SETUP_PER_RUN {
            timed(setup, || {
                for e in ENGINES {
                    let (src, _) = source(opts.seed, len);
                    std::hint::black_box(Processor::with_observer(
                        machine(e),
                        src,
                        CycleAccounting::new(),
                    ));
                }
            });
        }
    };
    let params = vec![
        ("kernels", "pointer_chase+stream_mlp+stream_add".to_string()),
        ("inst_per_run", source(opts.seed, len).1.to_string()),
        ("iq", "32".to_string()),
        (
            "memory",
            format!("banked DRAM, 16 MSHRs, stride prefetch, {MEMORY_LATENCY} cycles"),
        ),
        ("observer", "CycleAccounting".to_string()),
        ("slice", SLICE.to_string()),
    ];

    let mut timings = Timings::default();
    let mut traces = [EngineTrace::default(), EngineTrace::default()];
    let mut reference: [Option<SimStats>; 2] = [None, None];
    // Per engine, per trial, the time of each slice, ns.
    let mut slices: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut trial = 0;
    while trial < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        for k in 0..2 {
            let e = (k + trial) % 2;
            let config = machine(ENGINES[e]);
            let (src, expected) = source(opts.seed, len);
            let processor = Processor::with_observer(config, src, CycleAccounting::new());
            let (stats, acct, slice_ns) = run_sliced(processor, expected);
            let ns: f64 = slice_ns.iter().sum();
            timings.jobs_ms.extend(slice_ns.iter().map(|ns| ns / 1e6));
            slices[e].push(slice_ns);
            let what = format!("{} trial {trial}", ENGINES[e]);
            check_run(tally, &stats, expected, e == 0, &what);
            tally.check(acct.buckets().total() == stats.cycles, || {
                format!(
                    "{what}: cycle buckets sum to {} of {} cycles",
                    acct.buckets().total(),
                    stats.cycles
                )
            });
            match &reference[e] {
                None => reference[e] = Some(stats.clone()),
                Some(r) => tally.check(*r == stats, || format!("{what}: differs from trial 0")),
            }
            if opts.traced {
                traced_run(
                    &config,
                    opts.seed,
                    len,
                    &stats,
                    &mut traces[e],
                    tally,
                    &what,
                );
                traces[e].untraced_ns += ns;
            }
            construct(&mut setup);
        }
        if trial == 0 {
            timings.peak = Peak::after_first("trial");
        }
        trial += 1;
    }

    if !opts.traced {
        for e in 0..2 {
            let committed = reference[e]
                .as_ref()
                .map_or(0, |s| s.committed_instructions);
            let ns = sum_of_slice_medians(&slices[e]).unwrap_or(0.0);
            timings.add_engine(ENGINES[e], ns, committed);
        }
        let per_inst = format!(
            "run: each {SLICE}-instruction slice's median over {} trials, summed",
            slices[0].len()
        );
        return Outcome::end_to_end(
            timings.metrics(&setup, "slices of streamed runs", &per_inst),
            params,
        );
    }
    let mut layers = Layers::default();
    for (e, t) in ENGINES.iter().zip(&traces) {
        t.record(e, &mut layers);
    }
    let drain = drain_ns_per_inst(|| vec![Box::new(source(opts.seed, len).0)]);
    let closure = record_shared(&traces, drain, &mut layers);
    let traced: f64 = traces.iter().map(|t| t.traced_ns).sum();
    let untraced: f64 = traces.iter().map(|t| t.untraced_ns).sum();
    Outcome::traced(
        layers,
        traced / untraced - 1.0,
        Some(closure),
        params,
        tally,
    )
}

/// Runs `processor` over its `len` instructions to the end in slices of
/// [`SLICE`] fetched instructions (the last one takes the remainder) and
/// returns, with its results, the time of each slice in ns. Slicing does
/// not change what is simulated.
fn run_sliced<O: Observer>(mut processor: Processor<'_, O>, len: usize) -> (SimStats, O, Vec<f64>) {
    let mut slices = Vec::new();
    let mut target = SLICE;
    loop {
        if target + SLICE > len {
            target = usize::MAX;
        }
        let t = Instant::now();
        if processor.advance_until(target, None) {
            let (stats, obs) = processor.run_observed();
            slices.push(t.elapsed().as_nanos() as f64);
            return (stats, obs, slices);
        }
        slices.push(t.elapsed().as_nanos() as f64);
        target += SLICE;
    }
}

/// Repeats one run with every wrapper attached and checks that it
/// simulates exactly what the untraced run did.
fn traced_run(
    config: &ProcessorConfig,
    seed: u64,
    len: usize,
    plain: &SimStats,
    trace: &mut EngineTrace,
    tally: &mut Tally,
    what: &str,
) {
    let mut src = TimedSource::new(source(seed, len).0);
    let obs = TimedObserver::new(CycleAccounting::new());
    let (timed, clocks) = TimedEngine::wrap(engine::from_config::<TimedObserver<CycleAccounting>>(
        &config.commit,
    ));
    let processor = Processor::with_parts(*config, &mut src, timed, obs);
    let t = Instant::now();
    let (stats, obs) = processor.run_observed();
    trace.traced_ns += t.elapsed().as_nanos() as f64;
    tally.check(stats == *plain, || {
        format!("{what}: traced run differs from untraced")
    });
    tally.check(obs.inner.buckets().total() == stats.cycles, || {
        format!("{what}: traced cycle buckets do not sum to cycles")
    });
    trace.clocks.merge(&clocks.get());
    trace.source.merge(&src.clock);
    trace.obs_sample.merge(&obs.sample);
    trace.obs_skip.merge(&obs.skip);
    trace.obs_events += obs.events;
    trace.add_run(&stats);
}
