//! Load generator for the sim-as-a-service stack: start (or target) a
//! `koc-serve` server, drive two identical job batches through the
//! retrying client, prove the second batch is answered from the
//! crash-safe result cache, and emit the serve report JSON that CI
//! archives as an artifact.
//!
//! ```text
//! cargo run --release --example sim_service                      # in-process server
//! cargo run --release --example sim_service -- --addr HOST:PORT  # external server
//! cargo run --release --example sim_service -- \
//!     --fault-plan bench/faults_demo.json --expect-errors        # fault drill
//! ```
//!
//! With `--fault-plan`, the in-process server runs under the plan's
//! deterministic failure schedule; `--expect-errors` tolerates structured
//! rejections (worker panics, timeouts) as long as the server keeps
//! serving — the graceful-degradation contract, exercised end to end.
//! `--shutdown-after` sends a `shutdown` request at the end (for drills
//! against an external server CI wants torn down).

use koc::serve::{serve, Client, ClientError, FaultPlan, JobSpec, RetryPolicy, ServerConfig};
use koc_bench::report::serve_table;
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sim_service: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The canonical demo batch: both engines over two workloads at two window
/// sizes — eight distinct jobs, so the second pass produces eight cache
/// hits.
fn batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for engine in ["baseline", "cooo"] {
        for workload in ["stream_add", "pointer_chase"] {
            for window in [64usize, 128] {
                jobs.push(JobSpec {
                    engine: engine.to_string(),
                    workload: workload.to_string(),
                    trace_len: 4_000,
                    window,
                    memory_latency: 400,
                    ..JobSpec::default()
                });
            }
        }
    }
    jobs
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut fault_plan: Option<PathBuf> = None;
    let mut expect_errors = false;
    let mut shutdown_after = false;
    let mut report_path = PathBuf::from("serve-report.json");
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--fault-plan" => fault_plan = Some(PathBuf::from(value("--fault-plan")?)),
            "--expect-errors" => expect_errors = true,
            "--shutdown-after" => shutdown_after = true,
            "--report" => report_path = PathBuf::from(value("--report")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    // An in-process server (the default) gets a fresh cache directory so
    // the cold/warm assertion below is meaningful on every run.
    let in_process = match &addr {
        Some(_) if fault_plan.is_some() => {
            return Err("--fault-plan only applies to the in-process server \
                        (pass it to the koc-serve binary instead)"
                .into())
        }
        Some(_) => None,
        None => {
            let plan = match &fault_plan {
                None => FaultPlan::default(),
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("fault plan {}: {e}", path.display()))?;
                    FaultPlan::from_json_text(&text)
                        .map_err(|e| format!("fault plan {}: {e}", path.display()))?
                }
            };
            let cache_dir =
                std::env::temp_dir().join(format!("koc-sim-service-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&cache_dir);
            let handle = serve("127.0.0.1:0", &cache_dir, ServerConfig::default(), plan)
                .map_err(|e| format!("bind loopback: {e}"))?;
            println!("in-process koc-serve on {}", handle.local_addr());
            Some((handle, cache_dir))
        }
    };
    let target = match (&addr, &in_process) {
        (Some(a), _) => a.clone(),
        (None, Some((handle, _))) => handle.local_addr().to_string(),
        (None, None) => unreachable!("either --addr or an in-process server"),
    };

    let client = Client::new(&target, RetryPolicy::default());
    client.ping().map_err(|e| format!("ping {target}: {e}"))?;

    let jobs = batch();
    let mut errors: Vec<String> = Vec::new();
    let mut round_hits = [0u32, 0u32];
    for (round, label) in ["cold", "warm"].iter().enumerate() {
        let mut ok = 0u32;
        for spec in &jobs {
            match client.submit(spec) {
                Ok(sub) => {
                    ok += 1;
                    round_hits[round] += u32::from(sub.cache_hit);
                    // Replay determinism: the warm pass must reproduce the
                    // cold pass bit for bit, hit or miss.
                    println!(
                        "  [{label}] {}/{} w={} -> {} cycles, ipc {:.3}{}{}",
                        spec.engine,
                        spec.workload,
                        spec.window,
                        sub.result.cycles,
                        sub.result.ipc,
                        if sub.cache_hit { " (cache hit)" } else { "" },
                        if sub.attempts > 1 {
                            format!(" ({} attempts)", sub.attempts)
                        } else {
                            String::new()
                        },
                    );
                }
                Err(err @ ClientError::Rejected { .. }) if expect_errors => {
                    println!("  [{label}] {}/{}: {err}", spec.engine, spec.workload);
                    errors.push(err.to_string());
                }
                Err(err) => return Err(format!("{}/{}: {err}", spec.engine, spec.workload)),
            }
        }
        println!(
            "{label} pass: {ok}/{} ok, {} cache hits",
            jobs.len(),
            round_hits[round]
        );
    }

    // The server must still be healthy after everything above — including
    // any injected faults — and the warm pass must have hit the cache
    // (when this process owns the server and its fresh cache directory).
    client
        .ping()
        .map_err(|e| format!("server unhealthy after load: {e}"))?;
    if in_process.is_some() && !expect_errors && round_hits[1] as usize != jobs.len() {
        return Err(format!(
            "expected every warm-pass job to hit the cache, got {}/{}",
            round_hits[1],
            jobs.len()
        ));
    }
    if in_process.is_some() && round_hits[1] == 0 {
        return Err("warm pass produced zero cache hits".into());
    }
    if expect_errors && errors.is_empty() {
        return Err("--expect-errors was given but every job succeeded \
                    (is the fault plan empty?)"
            .into());
    }

    let stats = client
        .server_stats()
        .map_err(|e| format!("stats {target}: {e}"))?;
    println!();
    println!(
        "{}",
        serve_table(format!("Serve report — {target}"), &stats)
    );
    std::fs::write(&report_path, stats.to_json())
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    println!("wrote {}", report_path.display());

    if shutdown_after || in_process.is_some() {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown {target}: {e}"))?;
    }
    if let Some((handle, cache_dir)) = in_process {
        handle.wait();
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    Ok(())
}
