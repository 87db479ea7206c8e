//! The `koc-serve/1` wire format.
//!
//! Requests and responses are newline-delimited JSON objects, each carrying
//! a `"schema"` field, parsed with the workspace's hand-rolled
//! `koc_isa::json` reader (depth-capped, so hostile nesting is a structured
//! error rather than a stack overflow). Both directions are implemented
//! here — the server parses [`Request`]s and encodes [`Response`]s, the
//! client does the reverse — so the schema lives in exactly one place.

use koc_isa::json::{parse_versioned, Json};
use koc_sim::{ProcessorConfig, SimStats};
use koc_workloads::{kernels, KernelConfig, WorkloadSpec};
use serde::write_json_string;

use crate::stats::ServeStats;

/// Schema tag carried by every request and response line.
pub const SCHEMA: &str = "koc-serve/1";

/// A job submission: which engine configuration to run over which workload,
/// plus execution policy (budget, deadline, progress streaming).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Commit engine: `"baseline"` (in-order ROB) or `"cooo"` (checkpointed
    /// out-of-order commit).
    pub engine: String,
    /// Suite kernel name (`stream_add`, `stencil27`, `dense_blocked`,
    /// `reduction`, `gather`, `pointer_chase`, `stream_mlp`).
    pub workload: String,
    /// Minimum dynamic trace length to generate.
    pub trace_len: usize,
    /// ROB size (baseline) or IQ size (cooo).
    pub window: usize,
    /// SLIQ entries (cooo only).
    pub sliq: usize,
    /// Checkpoint count override (cooo only).
    pub checkpoints: Option<usize>,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// Optional simulated-cycle budget (results then carry
    /// `budget_exhausted`).
    pub cycle_budget: Option<u64>,
    /// Optional wall-clock deadline: the job is abandoned with a `timeout`
    /// error if it has not finished this many ms after submission.
    pub deadline_ms: Option<u64>,
    /// Stream progress lines while the job runs.
    pub progress: bool,
    /// Bypass the result cache (recompute even on a hit).
    pub fresh: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            engine: "cooo".to_string(),
            workload: "stream_add".to_string(),
            trace_len: 8_000,
            window: 128,
            sliq: 2_048,
            checkpoints: None,
            memory_latency: 1_000,
            cycle_budget: None,
            deadline_ms: None,
            progress: false,
            fresh: false,
        }
    }
}

impl JobSpec {
    /// The content-addressed cache key: every field that affects the
    /// simulation result, none that only affects execution policy.
    pub fn cache_key(&self) -> String {
        let checkpoints = match self.checkpoints {
            Some(n) => n.to_string(),
            None => "default".to_string(),
        };
        let budget = match self.cycle_budget {
            Some(b) => b.to_string(),
            None => "none".to_string(),
        };
        format!(
            "{SCHEMA}|engine={}|workload={}|trace_len={}|window={}|sliq={}|checkpoints={}|mem={}|budget={}",
            self.engine, self.workload, self.trace_len, self.window, self.sliq,
            checkpoints, self.memory_latency, budget,
        )
    }

    /// Builds the processor configuration this job runs.
    ///
    /// # Errors
    /// Returns a description of an unknown engine or invalid configuration.
    pub fn processor_config(&self) -> Result<ProcessorConfig, String> {
        let config = match self.engine.as_str() {
            "baseline" => ProcessorConfig::baseline(self.window, self.memory_latency),
            "cooo" => {
                let mut c = ProcessorConfig::cooo(self.window, self.sliq, self.memory_latency);
                if let Some(n) = self.checkpoints {
                    c = c.with_checkpoints(n);
                }
                c
            }
            other => return Err(format!("unknown engine '{other}' (baseline|cooo)")),
        };
        config.validate()?;
        Ok(config)
    }

    /// Resolves the workload name into a generate-on-demand spec at this
    /// job's trace length.
    ///
    /// # Errors
    /// Returns a description of an unknown workload name.
    pub fn workload_spec(&self) -> Result<WorkloadSpec, String> {
        let config = kernel_by_name(&self.workload)
            .ok_or_else(|| format!("unknown workload '{}'", self.workload))?;
        Ok(WorkloadSpec::Kernel {
            name: self.workload.clone(),
            config: config.with_target_len(self.trace_len),
        })
    }

    /// Encodes the spec as the `"job"` object of a submit request.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"engine\":");
        write_json_string(&self.engine, &mut out);
        out.push_str(",\"workload\":");
        write_json_string(&self.workload, &mut out);
        out.push_str(&format!(
            ",\"trace_len\":{},\"window\":{},\"sliq\":{},\"memory_latency\":{}",
            self.trace_len, self.window, self.sliq, self.memory_latency
        ));
        if let Some(n) = self.checkpoints {
            out.push_str(&format!(",\"checkpoints\":{n}"));
        }
        if let Some(b) = self.cycle_budget {
            out.push_str(&format!(",\"cycle_budget\":{b}"));
        }
        if let Some(d) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if self.progress {
            out.push_str(",\"progress\":true");
        }
        if self.fresh {
            out.push_str(",\"fresh\":true");
        }
        out.push('}');
        out
    }

    fn from_json(job: &Json) -> Result<JobSpec, String> {
        if !matches!(job, Json::Obj(_)) {
            return Err("'job' must be an object".to_string());
        }
        let defaults = JobSpec::default();
        let text = |key: &str, default: &str| -> Result<String, String> {
            match job.get(key) {
                None => Ok(default.to_string()),
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("'{key}' must be a string")),
            }
        };
        let uint = |key: &str, default: u64| -> Result<u64, String> {
            match job.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        let opt_uint = |key: &str| -> Result<Option<u64>, String> {
            match job.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match job.get(key) {
                None => Ok(false),
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| format!("'{key}' must be a boolean")),
            }
        };
        Ok(JobSpec {
            engine: text("engine", &defaults.engine)?,
            workload: text("workload", &defaults.workload)?,
            trace_len: uint("trace_len", defaults.trace_len as u64)? as usize,
            window: uint("window", defaults.window as u64)? as usize,
            sliq: uint("sliq", defaults.sliq as u64)? as usize,
            checkpoints: opt_uint("checkpoints")?.map(|n| n as usize),
            memory_latency: u32::try_from(uint("memory_latency", defaults.memory_latency as u64)?)
                .map_err(|_| "'memory_latency' does not fit u32".to_string())?,
            cycle_budget: opt_uint("cycle_budget")?,
            deadline_ms: opt_uint("deadline_ms")?,
            progress: flag("progress")?,
            fresh: flag("fresh")?,
        })
    }
}

/// Looks up a suite kernel by name across the paper suite and the
/// MLP-contrast pair.
pub fn kernel_by_name(name: &str) -> Option<KernelConfig> {
    kernels::all()
        .into_iter()
        .chain(kernels::mlp_contrast())
        .find(|(n, _)| *n == name)
        .map(|(_, c)| c)
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Snapshot of the server's [`ServeStats`].
    Stats,
    /// Cooperatively cancel the connection's in-flight job.
    Cancel,
    /// Stop accepting work and shut the server down.
    Shutdown,
    /// Run (or serve from cache) a job.
    Submit(JobSpec),
}

impl Request {
    /// Encodes the request as one wire line (without the trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"ping\"}}"),
            Request::Stats => format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"stats\"}}"),
            Request::Cancel => format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"cancel\"}}"),
            Request::Shutdown => format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"shutdown\"}}"),
            Request::Submit(spec) => format!(
                "{{\"schema\":\"{SCHEMA}\",\"op\":\"submit\",\"job\":{}}}",
                spec.encode()
            ),
        }
    }
}

/// Parses one request line.
///
/// # Errors
/// Returns a human-readable reason; the server wraps it in a
/// [`ErrorKind::Parse`] response and keeps the connection open.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_versioned(line, SCHEMA)?;
    match doc.get("op").and_then(Json::as_str) {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("cancel") => Ok(Request::Cancel),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("submit") => {
            let job = doc.get("job").ok_or("submit requires a 'job' object")?;
            Ok(Request::Submit(JobSpec::from_json(job)?))
        }
        Some(other) => Err(format!(
            "unknown op '{other}' (ping|stats|cancel|shutdown|submit)"
        )),
        None => Err("missing 'op' field".to_string()),
    }
}

/// The simulation outcome shipped back to the client (and persisted in the
/// result cache).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Whether the run stopped on its cycle budget rather than completing.
    pub budget_exhausted: bool,
}

impl JobResult {
    /// Extracts the wire-visible outcome from full simulation statistics.
    pub fn from_sim_stats(stats: &SimStats) -> JobResult {
        JobResult {
            cycles: stats.cycles,
            committed: stats.committed_instructions,
            ipc: stats.ipc(),
            budget_exhausted: stats.budget_exhausted,
        }
    }

    /// Encodes the result as a JSON object.
    pub fn encode(&self) -> String {
        let mut ipc = String::new();
        serde::Serialize::write_json(&self.ipc, &mut ipc);
        format!(
            "{{\"cycles\":{},\"committed\":{},\"ipc\":{ipc},\"budget_exhausted\":{}}}",
            self.cycles, self.committed, self.budget_exhausted
        )
    }

    /// Decodes a result object.
    ///
    /// # Errors
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<JobResult, String> {
        Ok(JobResult {
            cycles: v
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("result missing 'cycles'")?,
            committed: v
                .get("committed")
                .and_then(Json::as_u64)
                .ok_or("result missing 'committed'")?,
            ipc: v
                .get("ipc")
                .and_then(Json::as_f64)
                .ok_or("result missing 'ipc'")?,
            budget_exhausted: v
                .get("budget_exhausted")
                .and_then(Json::as_bool)
                .ok_or("result missing 'budget_exhausted'")?,
        })
    }
}

/// Structured failure classes, mirrored in the wire format's `"kind"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid `koc-serve/1` JSON.
    Parse,
    /// The request was well-formed but impossible (unknown engine, ...).
    BadRequest,
    /// Load shed: the job queue is full (HTTP-429 analogue; the response
    /// carries a `retry_after_ms` hint).
    Overloaded,
    /// The job missed its wall-clock deadline.
    Timeout,
    /// The job was cooperatively cancelled.
    Cancelled,
    /// The worker executing the job panicked (the server keeps serving).
    WorkerPanic,
    /// The server is shutting down.
    Shutdown,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_wire(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::WorkerPanic => "worker-panic",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "bad-request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "timeout" => ErrorKind::Timeout,
            "cancelled" => ErrorKind::Cancelled,
            "worker-panic" => ErrorKind::WorkerPanic,
            "shutdown" => ErrorKind::Shutdown,
            _ => return None,
        })
    }
}

/// A response line, either direction's view of it.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished job: where the result came from and the result itself.
    Done {
        /// `true` when served from the result cache.
        cache_hit: bool,
        /// The simulation outcome.
        result: JobResult,
    },
    /// A progress heartbeat for a running job.
    Progress {
        /// Simulated cycles so far.
        cycles: u64,
        /// Committed instructions so far.
        committed: u64,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `stats`.
    Stats(ServeStats),
    /// Acknowledgement that the server is shutting down.
    ShutdownAck,
    /// A structured failure.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable reason.
        message: String,
        /// Back-off hint for retryable failures (load shedding).
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// Encodes the response as one wire line (without the trailing
    /// newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Done { cache_hit, result } => format!(
                "{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"cache\":\"{}\",\"result\":{}}}",
                if *cache_hit { "hit" } else { "miss" },
                result.encode()
            ),
            Response::Progress { cycles, committed } => format!(
                "{{\"schema\":\"{SCHEMA}\",\"status\":\"progress\",\"cycles\":{cycles},\"committed\":{committed}}}"
            ),
            Response::Pong => {
                format!("{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"pong\"}}")
            }
            Response::ShutdownAck => {
                format!("{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"shutdown\"}}")
            }
            Response::Stats(stats) => format!(
                "{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"stats\":{}}}",
                serde::Serialize::to_json(stats)
            ),
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => {
                let mut out = format!(
                    "{{\"schema\":\"{SCHEMA}\",\"status\":\"error\",\"kind\":\"{}\",\"message\":",
                    kind.as_wire()
                );
                write_json_string(message, &mut out);
                if let Some(ms) = retry_after_ms {
                    out.push_str(&format!(",\"retry_after_ms\":{ms}"));
                }
                out.push('}');
                out
            }
        }
    }
}

/// Parses one response line (the client side of the protocol).
///
/// # Errors
/// Returns a description of the first structural problem.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = parse_versioned(line, SCHEMA)?;
    match doc.get("status").and_then(Json::as_str) {
        Some("progress") => Ok(Response::Progress {
            cycles: doc
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("progress missing 'cycles'")?,
            committed: doc
                .get("committed")
                .and_then(Json::as_u64)
                .ok_or("progress missing 'committed'")?,
        }),
        Some("error") => {
            let kind = doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("error missing 'kind'")?;
            Ok(Response::Error {
                kind: ErrorKind::from_wire(kind).ok_or_else(|| format!("unknown kind '{kind}'"))?,
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_ms: doc.get("retry_after_ms").and_then(Json::as_u64),
            })
        }
        Some("ok") => {
            if let Some(result) = doc.get("result") {
                Ok(Response::Done {
                    cache_hit: doc.get("cache").and_then(Json::as_str) == Some("hit"),
                    result: JobResult::from_json(result)?,
                })
            } else if let Some(stats) = doc.get("stats") {
                Ok(Response::Stats(ServeStats::from_json(stats)?))
            } else {
                match doc.get("op").and_then(Json::as_str) {
                    Some("pong") => Ok(Response::Pong),
                    Some("shutdown") => Ok(Response::ShutdownAck),
                    other => Err(format!("unrecognized ok response (op {other:?})")),
                }
            }
        }
        other => Err(format!("unrecognized status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let spec = JobSpec {
            engine: "baseline".to_string(),
            checkpoints: Some(24),
            cycle_budget: Some(10_000),
            deadline_ms: Some(500),
            progress: true,
            ..JobSpec::default()
        };
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Cancel,
            Request::Shutdown,
            Request::Submit(spec),
        ] {
            assert_eq!(parse_request(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Done {
                cache_hit: true,
                result: JobResult {
                    cycles: 123,
                    committed: 456,
                    ipc: 3.7,
                    budget_exhausted: false,
                },
            },
            Response::Progress {
                cycles: 9,
                committed: 2,
            },
            Response::Pong,
            Response::ShutdownAck,
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "queue full".to_string(),
                retry_after_ms: Some(100),
            },
        ] {
            assert_eq!(parse_response(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn hostile_requests_fail_structurally() {
        assert!(parse_request("").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"schema\":\"koc-serve/1\"}").is_err());
        assert!(parse_request("{\"schema\":\"koc-serve/2\",\"op\":\"ping\"}").is_err());
        assert!(parse_request("{\"schema\":\"koc-serve/1\",\"op\":\"submit\"}").is_err());
        assert!(parse_request(
            "{\"schema\":\"koc-serve/1\",\"op\":\"submit\",\"job\":{\"trace_len\":\"big\"}}"
        )
        .is_err());
        // A nesting bomb is a parse error, not a stack overflow.
        let bomb = format!("{}{}", "{\"schema\":", "[".repeat(100_000));
        assert!(parse_request(&bomb).is_err());
    }

    #[test]
    fn cache_keys_separate_results_but_not_policy() {
        let a = JobSpec::default();
        let mut b = a.clone();
        b.deadline_ms = Some(100);
        b.progress = true;
        b.fresh = true;
        assert_eq!(a.cache_key(), b.cache_key(), "policy fields not in key");
        let mut c = a.clone();
        c.window = 256;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn spec_resolves_configs_and_workloads() {
        let spec = JobSpec::default();
        assert!(spec.processor_config().is_ok());
        assert!(spec.workload_spec().is_ok());
        let bad_engine = JobSpec {
            engine: "quantum".to_string(),
            ..JobSpec::default()
        };
        assert!(bad_engine.processor_config().is_err());
        let bad_workload = JobSpec {
            workload: "nope".to_string(),
            ..JobSpec::default()
        };
        assert!(bad_workload.workload_spec().is_err());
    }
}
