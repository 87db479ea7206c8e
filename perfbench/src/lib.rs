//! The repository benchmark: host nanoseconds per committed instruction on
//! three seeded workloads (`fig9_sweep`, `memwall_stream`, `serve_mix`),
//! and per-layer numbers from a traced repeat of each, measured from
//! outside the simulator through its public seams. See `README.md`.

pub mod fig9;
pub mod layers;
pub mod memwall;
pub mod probe;
pub mod report;
pub mod serve_mix;
pub mod stats;

use std::time::Instant;

use koc_sim::{InstructionSource, SimStats};

use layers::{Layers, END_TO_END};
use report::{peak_rss_mib, Metrics};
use stats::{median, quartiles, tail, Tally};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fig9_sweep", "memwall_stream", "serve_mix"];

/// What one benchmark run does.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced repeat instead of the
    /// end-to-end metrics.
    pub traced: bool,
}

/// What a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The end-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload's parameters, for the provenance line.
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    fn end_to_end(metrics: Metrics, params: Vec<(&'static str, String)>) -> Outcome {
        debug_assert!(metrics
            .0
            .iter()
            .map(|m| m.name.as_str())
            .eq(END_TO_END.iter().map(|e| e.0)));
        Outcome { metrics, params }
    }

    /// A traced run's outcome: records `trace.overhead_frac` and checks that
    /// the timed layer shares (`closure`, where the workload has engine
    /// layers) do not exceed traced wall.
    fn traced(
        mut layers: Layers,
        overhead: f64,
        closure: Option<f64>,
        mut params: Vec<(&'static str, String)>,
        tally: &mut Tally,
    ) -> Outcome {
        layers.set(
            "trace.overhead_frac",
            overhead,
            "traced over untraced wall, less one",
        );
        if let Some(closure) = closure {
            tally.check(closure <= 1.0, || {
                format!("closure: timed layer shares sum to {closure:.3} of traced wall")
            });
            params.push(("trace_closure", format!("{closure:.4}")));
        }
        Outcome {
            metrics: layers.finish(),
            params,
        }
    }
}

/// SplitMix64 of `seed` and `salt`: folds the benchmark seed into each
/// generated input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The output checks of one finished simulation: every fetched instruction
/// committed exactly once (`expected` is the source's length), the run was
/// not cut short, and (cooo) checkpoints balance.
pub fn check_run(tally: &mut Tally, s: &SimStats, expected: usize, cooo: bool, what: &str) {
    tally.check(
        s.committed_instructions == expected as u64 && !s.budget_exhausted,
        || {
            format!(
                "{what}: committed {} of {expected} instructions (budget exhausted: {})",
                s.committed_instructions, s.budget_exhausted
            )
        },
    );
    if cooo {
        tally.check(
            s.checkpoints_taken == s.checkpoints_committed + s.checkpoints_squashed,
            || {
                format!(
                    "{what}: checkpoints taken {} != committed {} + squashed {}",
                    s.checkpoints_taken, s.checkpoints_committed, s.checkpoints_squashed
                )
            },
        );
    }
}

/// Host ns per instruction of draining fresh sources with `next_inst`
/// alone: the median of at least three drains and 50 ms.
pub fn drain_ns_per_inst(make: impl Fn() -> Vec<Box<dyn InstructionSource>>) -> f64 {
    let mut per_inst = Vec::new();
    let start = Instant::now();
    while per_inst.len() < 3 || start.elapsed().as_secs_f64() < 0.05 {
        let mut sources = make();
        let t = Instant::now();
        let mut n = 0u64;
        for s in &mut sources {
            while let Some(inst) = s.next_inst() {
                std::hint::black_box(inst);
                n += 1;
            }
        }
        per_inst.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    median(&per_inst).unwrap_or(0.0)
}

/// Runs `f`, appends its wall time in seconds to `times`, and returns its
/// result.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// A peak resident set, MiB, and how it was taken.
#[derive(Debug, Default)]
pub struct Peak {
    /// The peak, MiB.
    pub mib: f64,
    /// How it was taken, for the metric's note.
    pub note: String,
}

impl Peak {
    /// The process's peak so far, read after set-up and the first trial
    /// (`what` names a trial). Later trials repeat the same work and add
    /// mostly what the allocator keeps from earlier ones: on `fig9_sweep`
    /// the peak jumps by a quarter at a random trial, as glibc hands its
    /// per-thread arenas to the sweep's fresh threads in a varying order,
    /// and on `serve_mix` it creeps up segment by segment.
    pub fn after_first(what: &str) -> Peak {
        Peak {
            mib: peak_rss_mib(),
            note: format!("VmHWM after set-up and the first {what}"),
        }
    }
}

/// Untraced timings of a workload, turned into its end-to-end metrics.
#[derive(Debug, Default)]
pub struct Timings {
    /// Per trial, host ns per committed instruction of each engine
    /// (`[cooo, baseline]`).
    pub ns_per_inst: [Vec<f64>; 2],
    /// Latency of every job, ms (infinite for a failed job).
    pub jobs_ms: Vec<f64>,
    /// Wall time of the measured region when jobs overlap, s; otherwise
    /// the jobs' summed latency is used.
    pub wall_s: Option<f64>,
    /// Peak resident set.
    pub peak: Peak,
}

impl Timings {
    /// Records one trial's time and committed instructions for `engine`.
    pub fn add_engine(&mut self, engine: &str, ns: f64, committed: u64) {
        let e = usize::from(engine != "cooo");
        self.ns_per_inst[e].push(ns / committed.max(1) as f64);
    }

    /// The end-to-end metrics, in catalogue order. `setup` holds the
    /// repeated set-up times; `job` says what one job is, and `per_inst`
    /// what one `ns_per_inst` sample is.
    pub fn metrics(&self, setup: &[f64], job: &str, per_inst: &str) -> Metrics {
        let mut m = Metrics::default();
        for (e, name) in ["ns_per_inst.cooo", "ns_per_inst.baseline"]
            .iter()
            .enumerate()
        {
            let v = &self.ns_per_inst[e];
            m.push(
                *name,
                "ns",
                median(v).unwrap_or(0.0),
                spread_note(v, per_inst),
            );
        }
        let done = self.jobs_ms.iter().filter(|l| l.is_finite()).count();
        let wall = self
            .wall_s
            .unwrap_or_else(|| self.jobs_ms.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3);
        m.push(
            "jobs_per_s",
            "1/s",
            done as f64 / wall.max(f64::MIN_POSITIVE),
            format!("{done} jobs ({job}) in {wall:.3} s, closed loop"),
        );
        m.push(
            "job_p50_ms",
            "ms",
            median(&self.jobs_ms).unwrap_or(0.0),
            spread_note(&self.jobs_ms, "jobs"),
        );
        let t = tail(&self.jobs_ms, 99.0);
        m.push(
            "job_p99_ms",
            "ms",
            t.map_or(0.0, |t| t.value),
            t.map_or_else(String::new, |t| {
                format!(
                    "p{:.2} of {} jobs, {} beyond it{}",
                    t.percentile,
                    t.samples,
                    t.beyond,
                    if t.beyond < stats::MIN_BEYOND {
                        " (too few jobs for p99: maximum)"
                    } else {
                        ""
                    }
                )
            }),
        );
        m.push("peak_rss_mib", "MiB", self.peak.mib, self.peak.note.clone());
        m.push(
            "setup_s",
            "s",
            median(setup).unwrap_or(0.0),
            spread_note(setup, "set-ups"),
        );
        m
    }
}

/// "median of n <what>, quartiles a..b".
pub fn spread_note(values: &[f64], what: &str) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!(
            "median of {} {what}, quartiles {q1:.6}..{q3:.6}",
            values.len()
        ),
        None => format!("{} {what}", values.len()),
    }
}
