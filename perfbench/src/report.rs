//! The benchmark's output: named metrics with units, the provenance line,
//! and the final one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How it was obtained (sample and call counts), for the human lines.
    pub note: String,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64, note: String) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            note,
        });
    }
}

/// Appends `s` to `out` as a JSON string.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number with all its digits. A value that is not
/// finite (a tail latency made of failed jobs) is written as the largest
/// finite `f64`, so it still misses any limit.
pub fn json_num(out: &mut String, v: f64) {
    let v = if v.is_finite() { v } else { f64::MAX };
    let _ = write!(out, "{v:?}");
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Where a number came from: build, toolchain, host, seed and workload.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` when run inside a git checkout, else `none`.
    pub git_rev: String,
    /// FNV-1a digest of the simulator's sources and manifests, which
    /// identifies the build where there is no git metadata.
    pub source_digest: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The CPU model from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Provenance {
    /// Collects the provenance of a run started from the repository root.
    pub fn collect() -> Provenance {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        // Only ask git inside a checkout of its own: a parent repository's
        // revision would misname this build.
        let git_rev = if Path::new(".git").exists() {
            run("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_rev: git_rev.unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(),
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }

    /// The provenance as a JSON object, with the run's seed, workload
    /// parameters and whether it was traced.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        traced: bool,
        params: &[(&str, String)],
    ) -> String {
        let mut out = String::from("{");
        for (k, v) in [
            ("git_rev", &self.git_rev),
            ("source_digest", &self.source_digest),
            ("rustc", &self.rustc),
            ("cpu", &self.cpu),
        ] {
            json_str(&mut out, k);
            out.push_str(": ");
            json_str(&mut out, v);
            out.push_str(", ");
        }
        let _ = write!(out, "\"nproc\": {}, \"workload\": ", self.nproc);
        json_str(&mut out, workload);
        let _ = write!(
            out,
            ", \"seed\": {seed}, \"traced\": {traced}, \"params\": {{"
        );
        for (i, (k, v)) in params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, k);
            out.push_str(": ");
            json_str(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}

/// Digest of every file under `crates/` and `src/` plus the root manifest
/// and lock file, in sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
