//! `fig9_sweep`: the Figure 9 grid, materialised and run through
//! `Sweep::run_on` at `nproc` threads with the flat 1000-cycle memory, one
//! sweep per engine.
//!
//! This is the paper-figure path: the cooo engine and the per-cycle shell
//! do nearly all the work, fast-forward and the memory backend next to
//! none, and it is the only workload that exercises `Sweep`'s lockstep
//! fan-out.

use std::time::Instant;

use koc_bench::experiments::fig09_main::{IQ_SIZES, MEMORY_LATENCY, SLIQ_SIZES};
use koc_sim::{
    engine, InstructionSource, NullObserver, Processor, ProcessorConfig, SimStats, Sweep,
};
use koc_workloads::{kernels, KernelSource, Workload};

use crate::layers::{record_shared, EngineTrace, Layers};
use crate::probe::{TimedEngine, TimedSource};
use crate::stats::{median, Tally};
use crate::{check_run, drain_ns_per_inst, mix, timed, Outcome, Peak, RunOpts, Timings};

/// Dynamic instructions per kernel trace.
pub const TRACE_LEN: usize = 10_000;

/// Materialisations timed for `setup_s` after each trial. Set-up is timed
/// across the whole run, so its median sees the same host as the trials.
const SETUP_PER_TRIAL: usize = 2;

/// The grid's configurations of one engine.
pub fn configs(engine: &str) -> Vec<ProcessorConfig> {
    if engine == "baseline" {
        return vec![
            ProcessorConfig::baseline(128, MEMORY_LATENCY),
            ProcessorConfig::baseline(4096, MEMORY_LATENCY),
        ];
    }
    SLIQ_SIZES
        .iter()
        .flat_map(|&sliq| {
            IQ_SIZES
                .iter()
                .map(move |&iq| ProcessorConfig::cooo(iq, sliq, MEMORY_LATENCY))
        })
        .collect()
}

/// The five paper kernels with `seed` folded into each kernel seed.
pub fn kernel_configs(seed: u64) -> Vec<(&'static str, koc_workloads::KernelConfig)> {
    kernels::all()
        .into_iter()
        .enumerate()
        .map(|(i, (name, mut c))| {
            c.seed ^= mix(seed, i as u64);
            (name, c.with_target_len(TRACE_LEN))
        })
        .collect()
}

fn materialise(seed: u64) -> Vec<Workload> {
    kernel_configs(seed)
        .into_iter()
        .map(|(name, c)| Workload::generate(name, c, TRACE_LEN))
        .collect()
}

/// Runs the workload.
pub fn run(opts: &RunOpts, tally: &mut Tally) -> Outcome {
    let mut setup = Vec::new();
    let workloads = timed(&mut setup, || materialise(opts.seed));
    let engines = [("cooo", configs("cooo")), ("baseline", configs("baseline"))];
    let params = vec![
        ("trace_len", TRACE_LEN.to_string()),
        (
            "kernels",
            kernels::all()
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("cooo_configs", engines[0].1.len().to_string()),
        ("baseline_configs", engines[1].1.len().to_string()),
        ("memory", format!("flat {MEMORY_LATENCY} cycles")),
    ];

    let mut timings = Timings::default();
    let mut reference: Option<Vec<Vec<SimStats>>> = None;
    let mut traces = [EngineTrace::default(), EngineTrace::default()];
    let mut speedups = Vec::new();
    let start = Instant::now();
    let mut trial = 0;
    while trial < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let mut per_engine = Vec::new();
        let mut sweep_ns = 0.0;
        // Alternate which engine's sweep runs first, so neither always
        // runs on a cold cache.
        for k in 0..2 {
            let (name, configs) = &engines[(k + trial) % 2];
            let t = Instant::now();
            let results = Sweep::over(configs.iter().copied()).run_on(&workloads);
            let ns = t.elapsed().as_nanos() as f64;
            sweep_ns += ns;
            let stats: Vec<SimStats> = results
                .into_iter()
                .flat_map(|r| r.per_workload.into_iter().map(|w| w.stats))
                .collect();
            let committed: u64 = stats.iter().map(|s| s.committed_instructions).sum();
            timings.add_engine(name, ns, committed);
            per_engine.push((*name, stats));
        }
        per_engine.sort_by_key(|(name, _)| *name != "cooo");
        let per_engine: Vec<Vec<SimStats>> = per_engine.into_iter().map(|(_, s)| s).collect();
        timings.jobs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if trial == 0 {
            timings.peak = Peak::after_first("trial");
        }
        match &reference {
            None => {
                for (e, stats) in per_engine.iter().enumerate() {
                    for (i, s) in stats.iter().enumerate() {
                        let w = &workloads[i % workloads.len()];
                        check_run(tally, s, w.trace.len(), e == 0, &w.name);
                    }
                }
                reference = Some(per_engine);
            }
            Some(r) => tally.check(*r == per_engine, || {
                format!("trial {trial}: the sweep's statistics differ from trial 0")
            }),
        }
        if opts.traced {
            let serial_ns = serial_pass(
                &engines,
                &workloads,
                reference.as_deref().expect("set by the first trial"),
                &mut traces,
                tally,
            );
            speedups.push(serial_ns / sweep_ns);
        }
        for _ in 0..SETUP_PER_TRIAL {
            std::hint::black_box(timed(&mut setup, || materialise(opts.seed)));
        }
        trial += 1;
    }

    if !opts.traced {
        return Outcome::end_to_end(
            timings.metrics(&setup, "Figure-9 grid trial", "trials"),
            params,
        );
    }
    let mut layers = Layers::default();
    for (e, t) in engines.iter().zip(&traces) {
        t.record(e.0, &mut layers);
    }
    let drain = drain_ns_per_inst(|| {
        kernel_configs(opts.seed)
            .into_iter()
            .map(|(n, c)| Box::new(KernelSource::new(n, c)) as Box<dyn InstructionSource>)
            .collect()
    });
    let closure = record_shared(&traces, drain, &mut layers);
    let s = median(&speedups).unwrap_or(0.0);
    layers.set(
        "sweep.speedup_vs_serial",
        s,
        format!("median of {} trials; ideal = nproc", speedups.len()),
    );
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

/// Runs every (configuration, kernel) pair alone, untraced and then traced,
/// checking both against the sweep's statistics. Returns the untraced
/// serial wall time, ns.
fn serial_pass(
    engines: &[(&str, Vec<ProcessorConfig>); 2],
    workloads: &[Workload],
    reference: &[Vec<SimStats>],
    traces: &mut [EngineTrace; 2],
    tally: &mut Tally,
) -> f64 {
    let mut serial = 0.0;
    for (e, (_, configs)) in engines.iter().enumerate() {
        let pairs = configs
            .iter()
            .flat_map(|c| workloads.iter().map(move |w| (c, w)));
        for (i, (config, w)) in pairs.enumerate() {
            let t = Instant::now();
            let plain = Processor::new(*config, &w.trace).run();
            let ns = t.elapsed().as_nanos() as f64;
            serial += ns;
            traces[e].untraced_ns += ns;

            let mut source = TimedSource::new(w.source());
            let (timed, clocks) =
                TimedEngine::wrap(engine::from_config::<NullObserver>(&config.commit));
            let t = Instant::now();
            let stats = Processor::with_engine(*config, &mut source, timed).run();
            traces[e].traced_ns += t.elapsed().as_nanos() as f64;
            traces[e].clocks.merge(&clocks.get());
            traces[e].source.merge(&source.clock);
            traces[e].add_run(&stats);

            tally.check(stats == plain, || {
                format!(
                    "{} on {}: traced run differs from untraced",
                    config_name(config),
                    w.name
                )
            });
            tally.check(reference[e][i] == plain, || {
                format!(
                    "{} on {}: serial run differs from the sweep",
                    config_name(config),
                    w.name
                )
            });
        }
    }
    serial
}

fn config_name(c: &ProcessorConfig) -> String {
    format!("{:?}", c.commit)
}
