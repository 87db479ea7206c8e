//! The machine-readable performance harness: a canonical quick-suite over
//! both commit engines, timed end to end, emitted as `BENCH_<n>.json`, and
//! diffable against a committed baseline with separate thresholds for
//! cycle-accuracy and wall-clock speed.
//!
//! Two consumers drive this module:
//!
//! * **`koc-bench harness`** runs the suite and writes the JSON report.
//!   Cycle counts and retired-instruction counts are fully deterministic
//!   (seeded workload generation, deterministic simulation), so they double
//!   as an accuracy fingerprint of the simulator. Wall-clock figures
//!   (Mcycles/s, MIPS) record the perf trajectory of the simulator itself.
//! * **`koc-bench compare`** diffs a fresh report against
//!   `bench/baseline.json`. Cycle drift fails at zero tolerance by default
//!   — any change to simulated timing must be intentional and re-baselined
//!   — while wall-clock regression has its own, optional thresholds
//!   (machine-dependent, so CI gates on cycles and soft-checks speed).
//!
//! The JSON schema (`koc-bench-harness/1`):
//!
//! ```json
//! {
//!   "schema": "koc-bench-harness/1",
//!   "suite": "quick",
//!   "trace_len": 8000,
//!   "filter": null,
//!   "engine_filter": null,
//!   "results": [
//!     {"workload": "stream_add", "engine": "baseline", "cycles": 123,
//!      "retired": 8000, "ipc": 0.5, "wall_seconds": 0.01,
//!      "mcycles_per_sec": 12.3, "mips": 0.8, "peak_inflight": 128}
//!   ]
//! }
//! ```
//!
//! `filter` echoes `--only`, `engine_filter` echoes `--engine`; both are
//! `null` for full runs and absent in pre-filter baselines (the parser
//! defaults them). Older reports may also carry `source`, `grid_lanes` and
//! `grid_speedup` from the retired ingestion and lockstep modes; the
//! parser ignores them.
//!
//! # Timing methodology
//!
//! `wall_seconds` covers **simulation only**: each workload's trace is
//! generated before the timer starts and shared by both engines. The
//! harness also runs one small untimed simulation per engine up front so
//! the first timed run does not absorb one-time process warm-up (page
//! faults, allocator growth), which would otherwise skew the first row of
//! every report.

use crate::report::Report;
use koc_isa::json::{parse_versioned, Json};
use koc_sim::{Processor, ProcessorConfig};
use koc_workloads::{Suite, Workload, WorkloadSpec};
use serde::Serialize;
use std::time::Instant;

/// Dynamic trace length of the quick suite (CI's accuracy gate).
pub const QUICK_TRACE_LEN: usize = 8_000;
/// Dynamic trace length of the full suite.
pub const FULL_TRACE_LEN: usize = 30_000;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "koc-bench-harness/1";

/// One timed simulation: a workload under one commit engine.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEntry {
    /// Workload name (suite name of the kernel).
    pub workload: String,
    /// Commit engine: `"baseline"` (in-order ROB) or `"cooo"`
    /// (checkpointed out-of-order).
    pub engine: String,
    /// Simulated cycles (deterministic; the accuracy fingerprint).
    pub cycles: u64,
    /// Retired (committed) instructions (deterministic).
    pub retired: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Simulation throughput in millions of simulated cycles per
    /// wall-clock second.
    pub mcycles_per_sec: f64,
    /// Simulation throughput in millions of retired instructions per
    /// wall-clock second.
    pub mips: f64,
    /// Peak window occupancy (maximum simultaneously in-flight
    /// instructions; deterministic).
    pub peak_inflight: usize,
}

/// A full harness run: every selected workload of the canonical suite under
/// both commit engines.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// Dynamic trace length every workload was generated at.
    pub trace_len: usize,
    /// The `--only` workload filter this report was produced with, if any
    /// (`null` = the whole canonical suite).
    pub filter: Option<String>,
    /// The `--engine` filter this report was produced with, if any
    /// (`null` = both engines).
    pub engine_filter: Option<String>,
    /// One entry per (workload, engine), in suite-then-engine order.
    pub results: Vec<BenchEntry>,
}

impl BenchReport {
    /// The entry for `(workload, engine)`, if present.
    pub fn entry(&self, workload: &str, engine: &str) -> Option<&BenchEntry> {
        self.results
            .iter()
            .find(|e| e.workload == workload && e.engine == engine)
    }

    /// Renders the report as the aligned plain-text table the experiment
    /// driver prints (one formatting path for humans, JSON for machines).
    pub fn to_table(&self) -> Report {
        let mut filter = self
            .filter
            .as_deref()
            .map(|f| format!(", only {f}"))
            .unwrap_or_default();
        if let Some(engine) = &self.engine_filter {
            filter.push_str(&format!(", engine {engine}"));
        }
        let mut r = Report::new(
            format!(
                "harness — {} suite (trace_len {}{filter})",
                self.suite, self.trace_len
            ),
            &[
                "workload",
                "engine",
                "cycles",
                "retired",
                "IPC",
                "Mcyc/s",
                "MIPS",
                "peak-window",
            ],
        );
        for e in &self.results {
            r.push_row(vec![
                e.workload.clone(),
                e.engine.clone(),
                e.cycles.to_string(),
                e.retired.to_string(),
                format!("{:.3}", e.ipc),
                format!("{:.1}", e.mcycles_per_sec),
                format!("{:.2}", e.mips),
                e.peak_inflight.to_string(),
            ]);
        }
        r.push_note("cycles/retired/peak-window are deterministic (accuracy gate);");
        r.push_note("Mcyc/s and MIPS are host wall-clock (perf trajectory).");
        r
    }
}

/// The two canonical machines the harness times: the Table 1 in-order
/// baseline and the paper's headline checkpointed configuration, both at
/// 1000-cycle memory.
pub fn engines() -> [(&'static str, ProcessorConfig); 2] {
    [
        ("baseline", ProcessorConfig::baseline(128, 1000)),
        ("cooo", ProcessorConfig::cooo(128, 2048, 1000)),
    ]
}

/// The canonical workload list as lazy specs: the paper's five-kernel suite
/// plus the MLP-contrast pair (`pointer_chase` is the memory-bound case the
/// event-driven fast-forward exists for).
pub fn specs(trace_len: usize) -> Vec<WorkloadSpec> {
    let mut all = Suite::paper().specs(trace_len);
    all.extend(Suite::mlp_contrast().specs(trace_len));
    all
}

/// The canonical workload list, materialized.
pub fn workloads(trace_len: usize) -> Vec<Workload> {
    specs(trace_len).iter().map(|s| s.materialize()).collect()
}

/// The canonical workload names, for `--list` and `--only` validation.
pub fn workload_names() -> Vec<String> {
    // The names do not depend on the trace length.
    specs(QUICK_TRACE_LEN)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// What [`run_with`] should run.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// `false` runs the full suite length ([`FULL_TRACE_LEN`]).
    pub quick: bool,
    /// Restrict the run to one workload of the canonical suite
    /// (`--only <workload>`); `None` runs everything.
    pub only: Option<String>,
    /// Restrict the run to one commit engine (`--engine baseline|cooo`);
    /// `None` runs both. CI and local profiling use this to time one
    /// engine without paying for the other.
    pub engine: Option<String>,
}

/// Runs the canonical suite under both engines, timing each run, and
/// returns the report. Runs are sequential so the wall-clock figures
/// measure the simulator, not the host's core count.
pub fn run(quick: bool) -> BenchReport {
    run_with(&HarnessOptions {
        quick,
        ..HarnessOptions::default()
    })
    .expect("an unfiltered harness run cannot fail")
}

/// Runs the harness as described by `options` (see [`run`]).
///
/// # Errors
/// Returns a message naming the available workloads when
/// [`HarnessOptions::only`] does not match any of them.
pub fn run_with(options: &HarnessOptions) -> Result<BenchReport, String> {
    let trace_len = if options.quick {
        QUICK_TRACE_LEN
    } else {
        FULL_TRACE_LEN
    };
    let mut specs = specs(trace_len);
    if let Some(only) = &options.only {
        specs.retain(|s| s.name() == only);
        if specs.is_empty() {
            return Err(format!(
                "unknown workload '{only}' (available: {})",
                workload_names().join(", ")
            ));
        }
    }
    let mut selected = engines().to_vec();
    if let Some(engine) = &options.engine {
        selected.retain(|(name, _)| *name == engine.as_str());
        if selected.is_empty() {
            return Err(format!(
                "unknown engine '{engine}' (available: {})",
                engines()
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    // One small untimed run per engine primes the process (page faults,
    // allocator growth, instruction cache) so the first timed row is
    // measured under the same conditions as the rest. The cycle cap keeps
    // the warm-up negligible even for --full or long-running workloads.
    for (_, config) in &selected {
        let warmup = specs[0].materialize();
        let mut warm = Processor::new(*config, &warmup.trace);
        warm.advance_slice(usize::MAX, u64::MAX, Some(2_000));
    }
    let mut results = Vec::new();
    for spec in &specs {
        // The trace is generated once, outside the timed region, and shared
        // by both engines.
        let workload = spec.materialize();
        for (engine, config) in &selected {
            let start = Instant::now();
            let stats = Processor::new(*config, &workload.trace).run();
            let wall = start.elapsed().as_secs_f64();
            // Release-mode guard for the checkpoint-lifecycle invariant
            // (debug builds assert it at engine teardown): every checkpoint
            // a completed run took must have committed or been squashed.
            if *engine == "cooo" {
                assert_eq!(
                    stats.checkpoints_taken,
                    stats.checkpoints_committed + stats.checkpoints_squashed,
                    "{}: checkpoint lifecycle must balance",
                    spec.name()
                );
            }
            results.push(BenchEntry {
                workload: spec.name().to_string(),
                engine: engine.to_string(),
                cycles: stats.cycles,
                retired: stats.committed_instructions,
                ipc: stats.ipc(),
                wall_seconds: wall,
                mcycles_per_sec: stats.cycles as f64 / 1e6 / wall.max(1e-9),
                mips: stats.committed_instructions as f64 / 1e6 / wall.max(1e-9),
                peak_inflight: stats.inflight.max(),
            });
        }
    }
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        suite: if options.quick { "quick" } else { "full" }.to_string(),
        trace_len,
        filter: options.only.clone(),
        engine_filter: options.engine.clone(),
        results,
    })
}

/// Picks the default output name `BENCH_<n>.json`: one past the highest
/// index already present in `dir`, starting at 3 (the index of the PR that
/// introduced the harness) when none exist.
pub fn next_bench_path(dir: &std::path::Path) -> std::path::PathBuf {
    let mut next = 3u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                next = next.max(idx + 1);
            }
        }
    }
    dir.join(format!("BENCH_{next}.json"))
}

// ---------------------------------------------------------------------
// Comparison against a committed baseline
// ---------------------------------------------------------------------

/// Thresholds for [`compare`].
#[derive(Debug, Clone)]
pub struct CompareThresholds {
    /// Allowed relative drift in `cycles` and `retired` (0.0 = exact,
    /// the default: the simulator is deterministic, so any drift is a
    /// behaviour change).
    pub cycle_tolerance: f64,
    /// Allowed wall-clock slowdown as a fraction of the baseline's
    /// `mcycles_per_sec` (e.g. `Some(0.5)` fails when the current run is
    /// less than half the baseline's speed). `None` disables the perf
    /// gate — the right setting for heterogeneous CI machines.
    pub max_slowdown: Option<f64>,
    /// Absolute host-throughput floors per engine (`--min-mcps
    /// <engine>:<value>`): every current entry of that engine must reach
    /// `value` Mcycles/s. Empty disables the check. CI runs this as a
    /// soft gate (shared runners vary), so a violation there warns rather
    /// than blocks; the cycle gate stays hard either way.
    pub min_mcps: Vec<(String, f64)>,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        CompareThresholds {
            cycle_tolerance: 0.0,
            max_slowdown: None,
            min_mcps: Vec::new(),
        }
    }
}

/// The outcome of a comparison: hard failures (gate the build) and notes
/// (informational, e.g. speed deltas when the perf gate is off).
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Threshold violations; non-empty means the comparison failed.
    pub failures: Vec<String>,
    /// Informational observations.
    pub notes: Vec<String>,
}

impl CompareOutcome {
    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a freshly generated report (JSON text) against a baseline
/// (JSON text).
///
/// # Errors
/// Returns a description of the first structural problem (unparseable
/// JSON, wrong schema) — distinct from threshold failures, which are
/// collected in the returned [`CompareOutcome`].
pub fn compare(
    baseline: &str,
    current: &str,
    thresholds: &CompareThresholds,
) -> Result<CompareOutcome, String> {
    let baseline = parse_report(baseline).map_err(|e| format!("baseline: {e}"))?;
    let current = parse_report(current).map_err(|e| format!("current: {e}"))?;
    Ok(compare_parsed(&baseline, &current, thresholds))
}

/// Reads and compares two report **files**, naming the offending file in
/// every structural error — the form CI and humans debug from. A missing,
/// truncated, or corrupt `BENCH_*.json` / `bench/baseline.json` comes back
/// as `Err` with the path and the reason; it never panics and never turns
/// into a bogus threshold verdict.
///
/// # Errors
/// A message of the form `<role> report <path>: <reason>` when either file
/// cannot be read or is not a well-formed `koc-bench-harness/1` document.
pub fn compare_files(
    baseline: &std::path::Path,
    current: &std::path::Path,
    thresholds: &CompareThresholds,
) -> Result<CompareOutcome, String> {
    let load = |role: &str, path: &std::path::Path| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{role} report {}: {e}", path.display()))?;
        parse_report(&text).map_err(|e| format!("{role} report {}: {e}", path.display()))
    };
    let baseline = load("baseline", baseline)?;
    let current = load("current", current)?;
    Ok(compare_parsed(&baseline, &current, thresholds))
}

fn compare_parsed(
    baseline: &BenchReport,
    current: &BenchReport,
    thresholds: &CompareThresholds,
) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    if baseline.suite != current.suite || baseline.trace_len != current.trace_len {
        outcome.failures.push(format!(
            "suite mismatch: baseline {}@{} vs current {}@{} (regenerate the baseline)",
            baseline.suite, baseline.trace_len, current.suite, current.trace_len
        ));
        return outcome;
    }
    if baseline.engine_filter != current.engine_filter {
        outcome.notes.push(format!(
            "engine filters differ: baseline {:?} vs current {:?}",
            baseline.engine_filter, current.engine_filter
        ));
    }
    for b in &baseline.results {
        let Some(c) = current.entry(&b.workload, &b.engine) else {
            outcome.failures.push(format!(
                "{}/{}: missing from current run",
                b.workload, b.engine
            ));
            continue;
        };
        check_count(
            &mut outcome,
            &b.workload,
            &b.engine,
            "cycles",
            b.cycles,
            c.cycles,
            thresholds.cycle_tolerance,
        );
        check_count(
            &mut outcome,
            &b.workload,
            &b.engine,
            "retired",
            b.retired,
            c.retired,
            thresholds.cycle_tolerance,
        );
        let speed_delta = if b.mcycles_per_sec > 0.0 {
            c.mcycles_per_sec / b.mcycles_per_sec - 1.0
        } else {
            0.0
        };
        match thresholds.max_slowdown {
            Some(max) if speed_delta < -max => outcome.failures.push(format!(
                "{}/{}: {:.1}% slower than baseline ({:.1} vs {:.1} Mcyc/s, limit {:.0}%)",
                b.workload,
                b.engine,
                -speed_delta * 100.0,
                c.mcycles_per_sec,
                b.mcycles_per_sec,
                max * 100.0
            )),
            _ => outcome.notes.push(format!(
                "{}/{}: {:+.1}% speed vs baseline ({:.1} Mcyc/s)",
                b.workload,
                b.engine,
                speed_delta * 100.0,
                c.mcycles_per_sec
            )),
        }
    }
    for c in &current.results {
        if baseline.entry(&c.workload, &c.engine).is_none() {
            outcome.notes.push(format!(
                "{}/{}: new entry (not in baseline)",
                c.workload, c.engine
            ));
        }
    }
    for (engine, floor) in &thresholds.min_mcps {
        let mut matched = false;
        for c in current.results.iter().filter(|c| &c.engine == engine) {
            matched = true;
            if c.mcycles_per_sec < *floor {
                outcome.failures.push(format!(
                    "{}/{}: {:.2} Mcyc/s below the {:.2} floor",
                    c.workload, c.engine, c.mcycles_per_sec, floor
                ));
            }
        }
        if !matched {
            // A floor that matches nothing is a misconfiguration (typo or
            // an engine-filtered report), not a pass.
            outcome.failures.push(format!(
                "--min-mcps {engine}:{floor}: no entries for engine '{engine}' in the current report"
            ));
        }
    }
    outcome
}

fn parse_report(text: &str) -> Result<BenchReport, String> {
    // The shared versioned front door: one place rejects empty files,
    // truncated JSON, depth bombs, and wrong/missing schema fields with
    // the same wording every `koc-*/N` document gets.
    let json = parse_versioned(text, SCHEMA)?;
    let field_str = |key: &str| -> Result<String, String> {
        Ok(json
            .get(key)
            .and_then(Json::as_str)
            .ok_or(format!("missing {key}"))?
            .to_string())
    };
    let results = match json.get("results") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(parse_entry)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("missing results array".into()),
    };
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        suite: field_str("suite")?,
        trace_len: json
            .get("trace_len")
            .and_then(Json::as_u64)
            .ok_or("missing trace_len")? as usize,
        // Reports predating the filters carry neither field: they were
        // unfiltered runs.
        filter: json
            .get("filter")
            .and_then(Json::as_str)
            .map(str::to_string),
        engine_filter: json
            .get("engine_filter")
            .and_then(Json::as_str)
            .map(str::to_string),
        results,
    })
}

fn parse_entry(json: &Json) -> Result<BenchEntry, String> {
    let int = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("entry missing {key}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("entry missing {key}"))
    };
    Ok(BenchEntry {
        workload: json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("entry missing workload")?
            .to_string(),
        engine: json
            .get("engine")
            .and_then(Json::as_str)
            .ok_or("entry missing engine")?
            .to_string(),
        cycles: int("cycles")?,
        retired: int("retired")?,
        ipc: num("ipc")?,
        wall_seconds: num("wall_seconds")?,
        mcycles_per_sec: num("mcycles_per_sec")?,
        mips: num("mips")?,
        peak_inflight: int("peak_inflight")? as usize,
    })
}

fn check_count(
    outcome: &mut CompareOutcome,
    workload: &str,
    engine: &str,
    what: &str,
    baseline: u64,
    current: u64,
    tolerance: f64,
) {
    let drift = if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current as f64 - baseline as f64).abs() / baseline as f64
    };
    if drift > tolerance {
        outcome.failures.push(format!(
            "{workload}/{engine}: {what} drifted {current} vs baseline {baseline} \
             ({:+.4}%, tolerance {:.4}%)",
            (current as f64 / baseline as f64 - 1.0) * 100.0,
            tolerance * 100.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            suite: "quick".to_string(),
            trace_len: 100,
            filter: None,
            engine_filter: None,
            results: vec![BenchEntry {
                workload: "stream_add".to_string(),
                engine: "baseline".to_string(),
                cycles: 1000,
                retired: 100,
                ipc: 0.1,
                wall_seconds: 0.5,
                mcycles_per_sec: 2.0,
                mips: 0.2,
                peak_inflight: 64,
            }],
        }
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let report = tiny_report();
        let json = report.to_json();
        let back = parse_report(&json).unwrap();
        assert_eq!(back.suite, "quick");
        assert_eq!(back.trace_len, 100);
        let e = back.entry("stream_add", "baseline").unwrap();
        assert_eq!(e.cycles, 1000);
        assert_eq!(e.retired, 100);
        assert_eq!(e.peak_inflight, 64);
        assert!((e.mcycles_per_sec - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identical_reports_compare_clean() {
        let json = tiny_report().to_json();
        let outcome = compare(&json, &json, &CompareThresholds::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(!outcome.notes.is_empty(), "speed note expected");
    }

    #[test]
    fn cycle_drift_fails_at_zero_tolerance_and_passes_within_tolerance() {
        let base = tiny_report();
        let mut drifted = base.clone();
        drifted.results[0].cycles = 1001;
        let (bj, dj) = (base.to_json(), drifted.to_json());
        let strict = compare(&bj, &dj, &CompareThresholds::default()).unwrap();
        assert!(!strict.passed());
        assert!(
            strict.failures[0].contains("cycles drifted"),
            "{:?}",
            strict.failures
        );
        let loose = compare(
            &bj,
            &dj,
            &CompareThresholds {
                cycle_tolerance: 0.01,
                ..CompareThresholds::default()
            },
        )
        .unwrap();
        assert!(loose.passed(), "{:?}", loose.failures);
    }

    #[test]
    fn slowdown_gate_is_optional_and_directional() {
        let base = tiny_report();
        let mut slower = base.clone();
        slower.results[0].mcycles_per_sec = 0.5; // 4x slower
        let (bj, sj) = (base.to_json(), slower.to_json());
        let off = compare(&bj, &sj, &CompareThresholds::default()).unwrap();
        assert!(off.passed(), "perf gate off by default");
        let on = compare(
            &bj,
            &sj,
            &CompareThresholds {
                max_slowdown: Some(0.5),
                ..CompareThresholds::default()
            },
        )
        .unwrap();
        assert!(!on.passed());
        assert!(on.failures[0].contains("slower"), "{:?}", on.failures);
        // A faster run never fails the perf gate.
        let faster_outcome = compare(
            &sj,
            &bj,
            &CompareThresholds {
                max_slowdown: Some(0.5),
                ..CompareThresholds::default()
            },
        )
        .unwrap();
        assert!(faster_outcome.passed());
    }

    #[test]
    fn missing_entries_fail_and_new_entries_note() {
        let base = tiny_report();
        let mut extended = base.clone();
        extended.results.push(BenchEntry {
            workload: "gather".to_string(),
            engine: "cooo".to_string(),
            ..base.results[0].clone()
        });
        let outcome = compare(
            &extended.to_json(),
            &base.to_json(),
            &CompareThresholds::default(),
        )
        .unwrap();
        assert!(!outcome.passed(), "baseline entry missing from current");
        let outcome = compare(
            &base.to_json(),
            &extended.to_json(),
            &CompareThresholds::default(),
        )
        .unwrap();
        assert!(outcome.passed());
        assert!(outcome.notes.iter().any(|n| n.contains("new entry")));
    }

    #[test]
    fn quick_harness_runs_are_deterministic_in_their_counts() {
        // A scaled-down harness invocation (single short workload) so the
        // test stays fast: same counts on every run.
        let w = &workloads(400)[0];
        let (name, config) = &engines()[0];
        let a = Processor::new(*config, &w.trace).run();
        let b = Processor::new(*config, &w.trace).run();
        assert_eq!(a.cycles, b.cycles, "{name} must be deterministic");
        assert_eq!(a, b);
    }

    #[test]
    fn old_reports_without_source_or_filter_still_parse() {
        let json = tiny_report().to_json();
        // A pre-filter baseline file carries no filter field.
        let legacy = json.replace(",\"filter\":null", "");
        assert!(!legacy.contains("\"filter\""), "{legacy}");
        assert_eq!(parse_report(&legacy).unwrap().filter, None);
        // Reports of the retired ingestion and lockstep modes carry fields
        // this version no longer writes; they still parse and compare.
        let retired = json.replace(
            "\"trace_len\":100",
            "\"trace_len\":100,\"source\":\"streamed\",\"grid_lanes\":16,\"grid_speedup\":0.97",
        );
        assert!(retired.contains("grid_speedup"), "{retired}");
        let back = parse_report(&retired).unwrap();
        assert_eq!(back.results.len(), 1);
        let outcome = compare(&retired, &json, &CompareThresholds::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failures);
    }

    #[test]
    fn only_filter_restricts_the_run_and_lands_in_the_json() {
        let report = run_with(&HarnessOptions {
            quick: true,
            only: Some("pointer_chase".to_string()),
            ..HarnessOptions::default()
        })
        .unwrap();
        assert_eq!(report.filter.as_deref(), Some("pointer_chase"));
        assert_eq!(report.results.len(), 2, "one workload x two engines");
        assert!(report.results.iter().all(|e| e.workload == "pointer_chase"));
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(parsed.filter.as_deref(), Some("pointer_chase"));
    }

    #[test]
    fn engine_filter_restricts_the_run_and_lands_in_the_json() {
        let report = run_with(&HarnessOptions {
            quick: true,
            only: Some("pointer_chase".to_string()),
            engine: Some("cooo".to_string()),
        })
        .unwrap();
        assert_eq!(report.engine_filter.as_deref(), Some("cooo"));
        assert_eq!(report.results.len(), 1, "one workload x one engine");
        assert!(report.results.iter().all(|e| e.engine == "cooo"));
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(parsed.engine_filter.as_deref(), Some("cooo"));
        assert!(report.to_table().to_string().contains("engine cooo"));
    }

    #[test]
    fn unknown_engine_filter_lists_the_engines() {
        let err = run_with(&HarnessOptions {
            quick: true,
            engine: Some("vliw".to_string()),
            ..HarnessOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("unknown engine 'vliw'"), "{err}");
        assert!(err.contains("baseline"), "{err}");
        assert!(err.contains("cooo"), "{err}");
    }

    #[test]
    fn min_mcps_floor_gates_the_named_engine_only() {
        let base = tiny_report(); // baseline entry at 2.0 Mcyc/s
        let json = base.to_json();
        let passing = CompareThresholds {
            min_mcps: vec![("baseline".to_string(), 1.0)],
            ..CompareThresholds::default()
        };
        assert!(compare(&json, &json, &passing).unwrap().passed());
        let failing = CompareThresholds {
            min_mcps: vec![("baseline".to_string(), 5.0)],
            ..CompareThresholds::default()
        };
        let outcome = compare(&json, &json, &failing).unwrap();
        assert!(!outcome.passed());
        assert!(
            outcome.failures[0].contains("below the 5.00 floor"),
            "{:?}",
            outcome.failures
        );
        // A floor that matches no entries is a misconfiguration, not a
        // silent pass (a typo must not disable the gate forever).
        let other = CompareThresholds {
            min_mcps: vec![("coo".to_string(), 99.0)],
            ..CompareThresholds::default()
        };
        let outcome = compare(&json, &json, &other).unwrap();
        assert!(!outcome.passed());
        assert!(
            outcome.failures[0].contains("no entries for engine 'coo'"),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn unknown_only_filter_lists_the_workloads() {
        let err = run_with(&HarnessOptions {
            quick: true,
            only: Some("swim".to_string()),
            ..HarnessOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("unknown workload 'swim'"), "{err}");
        assert!(err.contains("stream_add"), "{err}");
        assert!(err.contains("pointer_chase"), "{err}");
    }

    #[test]
    fn streamed_and_materialized_runs_have_identical_counts() {
        // The harness times materialized traces; streaming the same spec
        // must reproduce its accuracy fingerprint.
        let report = run_with(&HarnessOptions {
            quick: true,
            only: Some("reduction".to_string()),
            ..HarnessOptions::default()
        })
        .unwrap();
        let spec = specs(QUICK_TRACE_LEN)
            .into_iter()
            .find(|s| s.name() == "reduction")
            .unwrap();
        for (engine, config) in engines() {
            let streamed = Processor::new(config, spec.source()).run();
            let e = report.entry("reduction", engine).unwrap();
            assert_eq!(
                (e.cycles, e.retired, e.peak_inflight),
                (
                    streamed.cycles,
                    streamed.committed_instructions,
                    streamed.inflight.max()
                ),
                "{engine}"
            );
        }
    }

    #[test]
    fn hostile_report_files_fail_with_the_path_and_reason_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("koc-bench-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, tiny_report().to_json()).unwrap();

        // Missing file: the path and the OS reason, non-zero (Err), no panic.
        let missing = dir.join("nope.json");
        let err = compare_files(&missing, &good, &CompareThresholds::default()).unwrap_err();
        assert!(err.contains("nope.json"), "{err}");
        assert!(err.starts_with("baseline report"), "{err}");

        // Truncated mid-document (a torn write or interrupted download).
        let torn = dir.join("torn.json");
        let full = tiny_report().to_json();
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        let err = compare_files(&good, &torn, &CompareThresholds::default()).unwrap_err();
        assert!(err.contains("torn.json"), "{err}");
        assert!(err.starts_with("current report"), "{err}");

        // Garbage bytes that are not JSON at all.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, b"\x00\xffnot json at all").unwrap();
        let err = compare_files(&garbage, &good, &CompareThresholds::default()).unwrap_err();
        assert!(err.contains("garbage.json"), "{err}");

        // A nesting bomb must be rejected by the depth cap, not overflow
        // the stack.
        let bomb = dir.join("bomb.json");
        std::fs::write(&bomb, "[".repeat(200_000)).unwrap();
        let err = compare_files(&good, &bomb, &CompareThresholds::default()).unwrap_err();
        assert!(err.contains("bomb.json"), "{err}");
        assert!(err.contains("nesting"), "{err}");

        // Valid JSON of the wrong schema names both schemas.
        let wrong = dir.join("wrong.json");
        std::fs::write(&wrong, "{\"schema\":\"koc-timeline/1\"}").unwrap();
        let err = compare_files(&good, &wrong, &CompareThresholds::default()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains(SCHEMA), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_schemaless_report_texts_are_structural_errors() {
        let thresholds = CompareThresholds::default();
        let good = tiny_report().to_json();
        for (label, bad) in [
            ("empty", ""),
            ("whitespace", "  \n "),
            ("schemaless object", "{\"results\":[]}"),
            ("non-object", "[1,2,3]"),
            ("truncated", "{\"schema\":\"koc-bench-harness/1\",\"res"),
        ] {
            let err = compare(&good, bad, &thresholds).unwrap_err();
            assert!(err.starts_with("current:"), "{label}: {err}");
            let err = compare(bad, &good, &thresholds).unwrap_err();
            assert!(err.starts_with("baseline:"), "{label}: {err}");
        }
    }

    #[test]
    fn next_bench_path_starts_at_three_and_increments() {
        let dir = std::env::temp_dir().join(format!("koc-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_3.json"));
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_8.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
