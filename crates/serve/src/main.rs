//! The `koc-serve` binary: bind an address, serve jobs until a client
//! sends `shutdown` (or the process is killed).
//!
//! ```text
//! koc-serve --addr 127.0.0.1:7841 --cache-dir serve-cache \
//!           [--workers N] [--queue-depth N] \
//!           [--slice-cycles N] [--read-timeout-ms N] [--write-timeout-ms N] \
//!           [--fault-plan plan.json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use koc_serve::fault::FaultPlan;
use koc_serve::server::{serve, ServerConfig};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("koc-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7841".to_string();
    let mut cache_dir = PathBuf::from("serve-cache");
    let mut config = ServerConfig::default();
    let mut plan = FaultPlan::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--cache-dir" => cache_dir = PathBuf::from(value("--cache-dir")?),
            "--workers" => config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue-depth" => {
                config.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--slice-cycles" => {
                config.slice_cycles = parse_num(&value("--slice-cycles")?, "--slice-cycles")?;
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms =
                    parse_num(&value("--read-timeout-ms")?, "--read-timeout-ms")?;
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms =
                    parse_num(&value("--write-timeout-ms")?, "--write-timeout-ms")?;
            }
            "--fault-plan" => {
                let path = value("--fault-plan")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("fault plan {path}: {e}"))?;
                plan = FaultPlan::from_json_text(&text)
                    .map_err(|e| format!("fault plan {path}: {e}"))?;
                eprintln!("koc-serve: fault plan loaded from {path}");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: koc-serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N] \
                     [--queue-depth N] [--slice-cycles N] \
                     [--read-timeout-ms N] [--write-timeout-ms N] [--fault-plan FILE]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let handle = serve(&addr, &cache_dir, config, plan).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("koc-serve: listening on {}", handle.local_addr());
    handle.wait();
    println!("koc-serve: shut down cleanly");
    Ok(())
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
}
