//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`) or the per-layer metrics traced
//! (`--trace 1`). Lines before it give the provenance and every metric with
//! its unit and the counts behind it.

use std::process::ExitCode;

use koc_bench::harness::{self, CompareThresholds};
use perfbench::report::{result_line, Provenance};
use perfbench::stats::Tally;
use perfbench::{fig9, memwall, serve_mix, RunOpts, WORKLOADS};
use serde::Serialize;

/// The quick-suite cycle table every run re-checks, relative to the
/// repository root.
const BASELINE: &str = "bench/baseline.json";

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Re-runs the quick harness suite and compares its cycle table with the
/// committed baseline at zero tolerance.
fn check_quick_suite(tally: &mut Tally) {
    let current = harness::run(true).to_json();
    let verdict = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("{BASELINE}: {e}"))
        .and_then(|base| harness::compare(&base, &current, &CompareThresholds::default()));
    match verdict {
        Ok(outcome) => tally.check(outcome.passed(), || {
            format!(
                "quick-suite cycle table drifted: {}",
                outcome.failures.join("; ")
            )
        }),
        Err(e) => tally.check(false, || format!("quick-suite check: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The checks read the repository's sources; refuse to run elsewhere.
    if !std::path::Path::new(BASELINE).is_file() {
        eprintln!("perfbench: {BASELINE} not found; run from the repository root");
        return ExitCode::from(2);
    }
    let provenance = Provenance::collect();
    let mut tally = Tally::default();
    let outcome = match workload.as_str() {
        "fig9_sweep" => fig9::run(&opts, &mut tally),
        "memwall_stream" => memwall::run(&opts, &mut tally),
        _ => serve_mix::run(&opts, &mut tally),
    };
    check_quick_suite(&mut tally);

    println!(
        "provenance {}",
        provenance.to_json(&workload, opts.seed, opts.traced, &outcome.params)
    );
    let label = if opts.traced {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!("{workload} seed {} {label}:", opts.seed);
    for m in &outcome.metrics.0 {
        println!(
            "  {:<36} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<36} {:>16.6} {:<9} {} failed / {} attempted",
        "error_rate",
        tally.error_rate(),
        "fraction",
        tally.failed,
        tally.attempted
    );
    for f in tally.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    println!(
        "{}",
        result_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
