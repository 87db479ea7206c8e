//! The metric catalogue and the per-engine accumulator behind the
//! engine, pipeline, source, mem and obs layer metrics.

use std::collections::BTreeMap;

use koc_mem::MemoryStats;
use koc_sim::SimStats;

use crate::probe::{EngineClocks, HookClock};
use crate::report::Metrics;

/// The two commit engines, by report name.
pub const ENGINES: [&str; 2] = ["cooo", "baseline"];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ns_per_inst.cooo", "ns"),
    ("ns_per_inst.baseline", "ns"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with units, in report
/// order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for e in ENGINES {
        for hook in ["dispatch", "wake", "writeback", "commit"] {
            out.push((format!("engine.{e}.{hook}.share"), "fraction"));
            out.push((format!("engine.{e}.{hook}.ns_per_call"), "ns"));
        }
        out.push((format!("engine.{e}.recovery.share"), "fraction"));
        out.push((format!("engine.{e}.recovery.calls"), "count"));
        out.push((format!("pipeline.{e}.shell.share"), "fraction"));
        out.push((format!("pipeline.{e}.ns_per_stepped_cycle"), "ns"));
        out.push((format!("pipeline.{e}.skipped_frac"), "fraction"));
        out.push((format!("mem.{e}.l2_misses_per_kinst"), "1/kinst"));
        out.push((format!("mem.{e}.row_conflict_frac"), "fraction"));
        out.push((format!("mem.{e}.prefetch_useful_frac"), "fraction"));
    }
    for (name, unit) in [
        ("source.ns_per_inst", "ns"),
        ("source.share", "fraction"),
        ("replay.window_peak", "inst"),
        ("sweep.speedup_vs_serial", "ratio"),
        ("obs.events_per_inst", "1/inst"),
        ("obs.skip_calls", "count"),
        ("obs.share", "fraction"),
        ("serve.hit_p50_ms", "ms"),
        ("cache.probe_us", "us"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.miss_p99_ms", "ms"),
        ("cache.store_us", "us"),
        ("serve.batched_lanes", "count"),
        ("serve.cache_hit_frac", "fraction"),
        ("serve.retries", "count"),
        ("serve.shed", "count"),
        ("trace.overhead_frac", "fraction"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Per-layer values measured by one workload; [`Layers::finish`] lays them
/// out in catalogue order, with 0 for layers the workload does not exercise.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, (f64, String)>);

impl Layers {
    /// Records `name`, with a note of the counts behind it.
    pub fn set(&mut self, name: impl Into<String>, value: f64, note: impl Into<String>) {
        self.0.insert(name.into(), (value, note.into()));
    }

    /// The full catalogue, in order.
    ///
    /// # Panics
    /// Panics if a recorded name is not in the catalogue (a benchmark bug).
    pub fn finish(mut self) -> Metrics {
        let mut metrics = Metrics::default();
        for (name, unit) in per_layer_catalogue() {
            let (value, note) = self
                .0
                .remove(&name)
                .unwrap_or((0.0, "not exercised by this workload".to_string()));
            metrics.push(name, unit, value, note);
        }
        assert!(
            self.0.is_empty(),
            "uncatalogued metrics: {:?}",
            self.0.keys()
        );
        metrics
    }
}

/// Totals for one engine over the runs of a traced workload.
#[derive(Debug, Default, Clone)]
pub struct EngineTrace {
    /// Engine hook clocks from the traced runs.
    pub clocks: EngineClocks,
    /// Source `next_inst` clock from the traced runs.
    pub source: HookClock,
    /// Observer `sample` and `skip` clocks from the traced runs.
    pub obs_sample: HookClock,
    /// See `obs_sample`.
    pub obs_skip: HookClock,
    /// Observer events from the traced runs.
    pub obs_events: u64,
    /// Wall time of the traced runs, ns.
    pub traced_ns: f64,
    /// Wall time of the same runs untraced, ns.
    pub untraced_ns: f64,
    /// Simulated cycles, committed instructions and runs (traced side).
    pub cycles: u64,
    /// See `cycles`.
    pub committed: u64,
    /// See `cycles`.
    pub runs: u64,
    /// Memory-hierarchy counts summed over the traced runs.
    pub mem: MemoryStats,
    /// Largest replay-window occupancy seen.
    pub replay_peak: usize,
}

impl EngineTrace {
    /// Adds one traced run's statistics.
    pub fn add_run(&mut self, stats: &SimStats) {
        self.cycles += stats.cycles;
        self.committed += stats.committed_instructions;
        self.runs += 1;
        self.replay_peak = self.replay_peak.max(stats.replay_window_peak);
        let (m, s) = (&mut self.mem, &stats.memory);
        m.l2_misses += s.l2_misses;
        m.row_buffer_hits += s.row_buffer_hits;
        m.row_buffer_misses += s.row_buffer_misses;
        m.row_buffer_conflicts += s.row_buffer_conflicts;
        m.prefetch_issued += s.prefetch_issued;
        m.prefetch_useful += s.prefetch_useful;
    }

    /// Time attributed to the timed layers (engine, source, observer), ns.
    pub fn timed_ns(&self) -> f64 {
        self.clocks.total_ns()
            + self.source.estimated_ns()
            + self.obs_sample.estimated_ns()
            + self.obs_skip.estimated_ns()
    }

    /// Records the engine, pipeline and mem metrics of engine `e`.
    pub fn record(&self, e: &str, layers: &mut Layers) {
        let wall = self.traced_ns.max(1.0);
        for (hook, c) in self.clocks.named() {
            let calls = format!("{} calls, {} timed", c.calls, c.timed_calls);
            layers.set(
                format!("engine.{e}.{hook}.share"),
                c.estimated_ns() / wall,
                calls.clone(),
            );
            if hook == "recovery" {
                layers.set(format!("engine.{e}.recovery.calls"), c.calls as f64, calls);
            } else {
                layers.set(
                    format!("engine.{e}.{hook}.ns_per_call"),
                    c.ns_per_call(),
                    calls,
                );
            }
        }
        // Each stepped cycle calls `commit` exactly once; fast-forwarded
        // cycles call nothing.
        let stepped = self.clocks.commit.calls;
        layers.set(
            format!("pipeline.{e}.shell.share"),
            1.0 - self.timed_ns() / wall,
            format!("traced wall {:.3} s", self.traced_ns / 1e9),
        );
        layers.set(
            format!("pipeline.{e}.ns_per_stepped_cycle"),
            self.untraced_ns / stepped.max(1) as f64,
            format!(
                "{stepped} stepped cycles, untraced wall {:.3} s",
                self.untraced_ns / 1e9
            ),
        );
        layers.set(
            format!("pipeline.{e}.skipped_frac"),
            1.0 - stepped as f64 / self.cycles.max(1) as f64,
            format!("{} simulated cycles over {} runs", self.cycles, self.runs),
        );
        let m = &self.mem;
        let kinst = self.committed.max(1) as f64 / 1000.0;
        layers.set(
            format!("mem.{e}.l2_misses_per_kinst"),
            m.l2_misses as f64 / kinst,
            format!("{} L2 misses / {} inst", m.l2_misses, self.committed),
        );
        let rows = m.row_buffer_hits + m.row_buffer_misses + m.row_buffer_conflicts;
        layers.set(
            format!("mem.{e}.row_conflict_frac"),
            ratio(m.row_buffer_conflicts, rows),
            format!(
                "{} conflicts / {rows} DRAM accesses",
                m.row_buffer_conflicts
            ),
        );
        layers.set(
            format!("mem.{e}.prefetch_useful_frac"),
            ratio(m.prefetch_useful, m.prefetch_issued),
            format!(
                "{} useful / {} issued",
                m.prefetch_useful, m.prefetch_issued
            ),
        );
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Records the layers shared by both engines: source, replay window,
/// observer and the closure of the timed shares against traced wall.
/// Returns the closure sum (the largest share sum of the two engines).
pub fn record_shared(traces: &[EngineTrace], drain_ns_per_inst: f64, layers: &mut Layers) -> f64 {
    let wall: f64 = traces.iter().map(|t| t.traced_ns).sum::<f64>().max(1.0);
    let mut source = HookClock::default();
    let (mut sample, mut skip) = (HookClock::default(), HookClock::default());
    let (mut events, mut committed, mut runs, mut peak) = (0, 0, 0, 0);
    for t in traces {
        source.merge(&t.source);
        sample.merge(&t.obs_sample);
        skip.merge(&t.obs_skip);
        events += t.obs_events;
        committed += t.committed;
        runs += t.runs;
        peak = peak.max(t.replay_peak);
    }
    layers.set(
        "source.ns_per_inst",
        drain_ns_per_inst,
        "standalone next_inst drain of fresh generators",
    );
    layers.set(
        "source.share",
        source.estimated_ns() / wall,
        format!(
            "{} next_inst calls, {} timed",
            source.calls, source.timed_calls
        ),
    );
    layers.set(
        "replay.window_peak",
        peak as f64,
        format!("max over {runs} runs"),
    );
    if sample.calls + skip.calls > 0 {
        layers.set(
            "obs.events_per_inst",
            events as f64 / committed.max(1) as f64,
            format!("{events} events / {committed} inst"),
        );
        layers.set(
            "obs.skip_calls",
            skip.calls as f64 / runs.max(1) as f64,
            format!("{} skip calls over {runs} runs", skip.calls),
        );
        layers.set(
            "obs.share",
            (sample.estimated_ns() + skip.estimated_ns()) / wall,
            format!("{} sample + {} skip calls", sample.calls, skip.calls),
        );
    }
    traces
        .iter()
        .map(|t| t.timed_ns() / t.traced_ns.max(1.0))
        .fold(0.0, f64::max)
}
