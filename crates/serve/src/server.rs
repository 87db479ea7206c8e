//! The TCP job server: accept loop, per-connection protocol driver, and
//! the worker pool that executes simulation jobs.
//!
//! Robustness invariants, each enforced by `tests/service.rs`:
//! - **Bounded everything**: the job queue is a fixed-capacity
//!   [`BoundedQueue`]; a full queue sheds the job with an `overloaded`
//!   response and a `retry_after_ms` hint. Connections above
//!   `max_connections` are refused the same way.
//! - **A stalled client cannot wedge a worker**: workers publish results
//!   through an unbounded in-process channel and never touch sockets;
//!   connection threads write with an OS-level write deadline and treat a
//!   failed write as a cooperative cancel of the in-flight job.
//! - **Worker panics are isolated**: job execution runs under
//!   `catch_unwind`; a panic poisons only that job (it gets a structured
//!   `worker-panic` error) and the worker keeps draining the queue.
//! - **Damaged cache entries are never served**: see `cache.rs`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use koc_sim::{Processor, SliceOutcome};

use crate::cache::{Lookup, ResultCache};
use crate::clock::{Duration, ServeClock};
use crate::fault::FaultPlan;
use crate::protocol::{parse_request, ErrorKind, JobResult, JobSpec, Request, Response};
use crate::queue::BoundedQueue;
use crate::stats::{Counter, ServeStats, StatsRecorder};

/// How long a connection thread blocks in one socket read before polling
/// its worker channel and the shutdown flag again.
const POLL_MS: u64 = 25;

/// How long a worker blocks waiting for a job before re-checking the
/// shutdown flag.
const WORKER_POLL_MS: u64 = 50;

/// Tunable service limits. `Default` matches the README runbook.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded job-queue depth; submits beyond it are shed.
    pub queue_depth: usize,
    /// Concurrent connections; accepts beyond it are refused with
    /// `overloaded`.
    pub max_connections: usize,
    /// Idle-connection read deadline (ms): a connection with no complete
    /// request and no running job for this long is closed.
    pub read_timeout_ms: u64,
    /// Per-write socket deadline (ms): a client that stops draining its
    /// socket is disconnected, not waited on.
    pub write_timeout_ms: u64,
    /// Simulated cycles per scheduling slice — the granularity at which
    /// deadlines, cancellation, and progress are checked.
    pub slice_cycles: u64,
    /// `retry_after_ms` hint attached to shed responses.
    pub retry_after_ms: u64,
    /// Largest accepted `trace_len` (bigger submits are bad requests).
    pub max_trace_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 32,
            max_connections: 64,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            slice_cycles: 100_000,
            retry_after_ms: 100,
            max_trace_len: 2_000_000,
        }
    }
}

/// What a worker sends back to the connection that owns a job.
enum WorkerMsg {
    /// Heartbeat for a running job (forwarded when the job asked for
    /// progress streaming).
    Progress { cycles: u64, committed: u64 },
    /// Terminal response for the job.
    Done(Response),
}

/// A job queued for execution.
struct QueuedJob {
    spec: JobSpec,
    submitted_ms: u64,
    cancel: Arc<AtomicBool>,
    reply: mpsc::Sender<WorkerMsg>,
}

/// State shared by every server thread.
struct Shared {
    config: ServerConfig,
    running: AtomicBool,
    clock: ServeClock,
    plan: Arc<FaultPlan>,
    cache: ResultCache,
    queue: BoundedQueue<QueuedJob>,
    stats: StatsRecorder,
    conns: AtomicUsize,
    local_addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running server; dropping the handle does not stop it — call
/// [`stop`](ServerHandle::stop) or send a `shutdown` request.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A point-in-time stats snapshot.
    pub fn snapshot(&self) -> ServeStats {
        self.shared.stats.snapshot(self.shared.clock.now_ms())
    }

    /// Stops the server and joins the accept and worker threads.
    pub fn stop(self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Blocks until the server shuts down (via a `shutdown` request),
    /// then joins its threads.
    pub fn wait(self) {
        self.join_all();
    }

    fn join_all(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Fail queued-but-never-executed jobs so their clients are not
        // left waiting for a worker that no longer exists.
        while let Some(job) = self.shared.queue.claim_timeout(0) {
            let _ = job.reply.send(WorkerMsg::Done(shutdown_error()));
        }
    }
}

fn shutdown_error() -> Response {
    Response::Error {
        kind: ErrorKind::Shutdown,
        message: "server is shutting down".to_string(),
        retry_after_ms: None,
    }
}

/// Binds `addr` and starts the accept loop and worker pool.
///
/// # Errors
/// Returns the underlying I/O error if the cache directory or listener
/// cannot be set up.
pub fn serve(
    addr: &str,
    cache_dir: &Path,
    config: ServerConfig,
    plan: FaultPlan,
) -> std::io::Result<ServerHandle> {
    let plan = Arc::new(plan);
    let cache = ResultCache::open(cache_dir, Arc::clone(&plan))?;
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: BoundedQueue::bounded(config.queue_depth),
        clock: ServeClock::with_skew(plan.clock_skew_ms),
        config,
        running: AtomicBool::new(true),
        plan,
        cache,
        stats: StatsRecorder::default(),
        conns: AtomicUsize::new(0),
        local_addr,
    });
    let workers = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(ServerHandle {
        shared,
        accept,
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if !shared.running.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if !shared.running.load(Ordering::SeqCst) {
            return;
        }
        if shared.conns.load(Ordering::SeqCst) >= shared.config.max_connections {
            shared.stats.bump(Counter::Shed);
            refuse_connection(stream, shared);
            continue;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(stream, &shared));
    }
}

fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    let resp = Response::Error {
        kind: ErrorKind::Overloaded,
        message: "connection limit reached".to_string(),
        retry_after_ms: Some(shared.config.retry_after_ms),
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    let mut line = resp.encode();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// Decrements the live-connection gauge when a connection thread exits,
/// however it exits.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A connection's in-flight job: the worker channel to drain and the
/// cooperative cancel flag shared with the worker.
struct InFlight {
    cancel: Arc<AtomicBool>,
    updates: mpsc::Receiver<WorkerMsg>,
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.conns.fetch_add(1, Ordering::SeqCst);
    let _guard = ConnGuard(shared);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    let mut buf: Vec<u8> = Vec::new();
    let mut inflight: Option<InFlight> = None;
    let mut last_activity = shared.clock.now_ms();
    let mut chunk = [0u8; 4096];
    loop {
        // Forward anything the worker produced for the in-flight job.
        if let Some(fl) = &inflight {
            loop {
                match fl.updates.try_recv() {
                    Ok(WorkerMsg::Progress { cycles, committed }) => {
                        if !send_line(
                            &mut stream,
                            shared,
                            &Response::Progress { cycles, committed },
                        ) {
                            // The client stopped draining: cancel the job
                            // rather than wait on the socket.
                            fl.cancel.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                    Ok(WorkerMsg::Done(resp)) => {
                        let ok = send_line(&mut stream, shared, &resp);
                        inflight = None;
                        last_activity = shared.clock.now_ms();
                        if !ok {
                            return;
                        }
                        break;
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        // The worker vanished without a terminal response —
                        // only possible if its thread died outside the
                        // panic isolation. Tell the client instead of
                        // hanging it.
                        let resp = Response::Error {
                            kind: ErrorKind::WorkerPanic,
                            message: "worker disappeared mid-job".to_string(),
                            retry_after_ms: None,
                        };
                        inflight = None;
                        if !send_line(&mut stream, shared, &resp) {
                            return;
                        }
                        break;
                    }
                }
            }
        }
        if !shared.running.load(Ordering::SeqCst) {
            let _ = send_line(&mut stream, shared, &shutdown_error());
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Client closed: cooperatively cancel whatever it owned.
                if let Some(fl) = &inflight {
                    fl.cancel.store(true, Ordering::SeqCst);
                }
                return;
            }
            Ok(n) => {
                last_activity = shared.clock.now_ms();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(line) = take_line(&mut buf) {
                    if !handle_line(&line, &mut stream, shared, &mut inflight) {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle-connection deadline: only enforced with no job in
                // flight (a long job is activity by definition).
                if inflight.is_none()
                    && shared.clock.now_ms().saturating_sub(last_activity)
                        > shared.config.read_timeout_ms
                {
                    let resp = Response::Error {
                        kind: ErrorKind::Timeout,
                        message: "idle connection closed".to_string(),
                        retry_after_ms: None,
                    };
                    let _ = send_line(&mut stream, shared, &resp);
                    return;
                }
            }
            Err(_) => {
                if let Some(fl) = &inflight {
                    fl.cancel.store(true, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// Splits one complete `\n`-terminated line off the front of `buf`.
fn take_line(buf: &mut Vec<u8>) -> Option<String> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = buf.drain(..=nl).collect();
    Some(String::from_utf8_lossy(&line[..nl]).into_owned())
}

/// Handles one request line; `false` means the connection must close.
fn handle_line(
    line: &str,
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    inflight: &mut Option<InFlight>,
) -> bool {
    shared.stats.bump(Counter::Request);
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            shared.stats.bump(Counter::ParseError);
            let resp = Response::Error {
                kind: ErrorKind::Parse,
                message,
                retry_after_ms: None,
            };
            // A malformed line is the client's problem, not grounds to
            // drop the connection: answer and keep reading.
            return send_line(stream, shared, &resp);
        }
    };
    match request {
        Request::Ping => send_line(stream, shared, &Response::Pong),
        Request::Stats => {
            let snap = shared.stats.snapshot(shared.clock.now_ms());
            send_line(stream, shared, &Response::Stats(snap))
        }
        Request::Shutdown => {
            let ok = send_line(stream, shared, &Response::ShutdownAck);
            shared.begin_shutdown();
            ok
        }
        Request::Cancel => match inflight {
            Some(fl) => {
                fl.cancel.store(true, Ordering::SeqCst);
                true
            }
            None => {
                shared.stats.bump(Counter::BadRequest);
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: "no job in flight to cancel".to_string(),
                    retry_after_ms: None,
                };
                send_line(stream, shared, &resp)
            }
        },
        Request::Submit(spec) => submit(spec, stream, shared, inflight),
    }
}

fn submit(
    spec: JobSpec,
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    inflight: &mut Option<InFlight>,
) -> bool {
    let rejection = if inflight.is_some() {
        Some("a job is already in flight on this connection".to_string())
    } else if spec.trace_len == 0 || spec.trace_len > shared.config.max_trace_len {
        Some(format!(
            "trace_len must be in 1..={}",
            shared.config.max_trace_len
        ))
    } else {
        spec.processor_config()
            .err()
            .or_else(|| spec.workload_spec().err())
    };
    if let Some(message) = rejection {
        shared.stats.bump(Counter::BadRequest);
        let resp = Response::Error {
            kind: ErrorKind::BadRequest,
            message,
            retry_after_ms: None,
        };
        return send_line(stream, shared, &resp);
    }
    let (reply, updates) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job = QueuedJob {
        spec,
        submitted_ms: shared.clock.now_ms(),
        cancel: Arc::clone(&cancel),
        reply,
    };
    match shared.queue.offer(job) {
        Ok(()) => {
            *inflight = Some(InFlight { cancel, updates });
            true
        }
        Err(_rejected) => {
            shared.stats.bump(Counter::Shed);
            let resp = Response::Error {
                kind: ErrorKind::Overloaded,
                message: format!("job queue full ({} deep)", shared.config.queue_depth),
                retry_after_ms: Some(shared.config.retry_after_ms),
            };
            send_line(stream, shared, &resp)
        }
    }
}

/// Writes one response line, honoring the write deadline and the
/// short-write fault injection. `false` means the connection is unusable.
fn send_line(stream: &mut TcpStream, shared: &Shared, resp: &Response) -> bool {
    let mut line = resp.encode();
    line.push('\n');
    if shared.plan.short_response_write.trip() {
        // Injected fault: half a line, then a dead socket — the client
        // must treat the torn response as retryable.
        let half = &line.as_bytes()[..line.len() / 2];
        let _ = stream.write_all(half);
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    }
    stream.write_all(line.as_bytes()).is_ok()
}

fn worker_loop(shared: &Arc<Shared>) {
    while shared.running.load(Ordering::SeqCst) {
        let Some(job) = shared.queue.claim_timeout(WORKER_POLL_MS) else {
            continue;
        };
        process_job(job, shared);
    }
}

/// Executes one claimed job: cache probe, isolated execution, cache fill,
/// response.
fn process_job(job: QueuedJob, shared: &Arc<Shared>) {
    if shared.plan.stall_worker.trip() {
        // Injected fault: a wedged worker (drives queue-overflow tests).
        crate::clock::sleep_ms(shared.plan.stall_ms);
    }
    let Some(job) = respond_if_cached(job, shared) else {
        return;
    };
    let response = match catch_unwind(AssertUnwindSafe(|| execute(&job, shared))) {
        Ok(Ok(result)) => {
            // A failed store is a miss next time, not an error now.
            let _ = shared.cache.store(&job.spec.cache_key(), &result);
            Response::Done {
                cache_hit: false,
                result,
            }
        }
        Ok(Err((kind, message))) => {
            shared.stats.bump(match kind {
                ErrorKind::Timeout => Counter::Timeout,
                ErrorKind::Cancelled => Counter::Cancelled,
                _ => Counter::BadRequest,
            });
            Response::Error {
                kind,
                message,
                retry_after_ms: None,
            }
        }
        Err(_panic) => {
            // Panic isolation: the job is poisoned, the server is not.
            shared.stats.bump(Counter::WorkerPanic);
            Response::Error {
                kind: ErrorKind::WorkerPanic,
                message: "worker panicked while executing this job".to_string(),
                retry_after_ms: None,
            }
        }
    };
    finish(job, response, shared);
}

/// Answers `job` straight from the cache when possible; `None` means it
/// was answered, `Some(job)` hands it back for execution.
fn respond_if_cached(job: QueuedJob, shared: &Arc<Shared>) -> Option<QueuedJob> {
    if !job.spec.fresh {
        match shared.cache.probe(&job.spec.cache_key()) {
            Lookup::Hit(result) => {
                shared.stats.bump(Counter::CacheHit);
                finish(
                    job,
                    Response::Done {
                        cache_hit: true,
                        result,
                    },
                    shared,
                );
                return None;
            }
            Lookup::Quarantined => {
                shared.stats.bump(Counter::CacheQuarantined);
            }
            Lookup::Miss => {}
        }
    }
    shared.stats.bump(Counter::CacheMiss);
    Some(job)
}

/// Sends a job its terminal response and books the latency.
fn finish(job: QueuedJob, resp: Response, shared: &Shared) {
    if matches!(resp, Response::Done { .. }) {
        shared.stats.bump(Counter::Ok);
    }
    shared
        .stats
        .record_latency_ms(shared.clock.now_ms().saturating_sub(job.submitted_ms));
    // The owning connection may already be gone; that is its problem.
    let _ = job.reply.send(WorkerMsg::Done(resp));
}

type Outcome = Result<JobResult, (ErrorKind, String)>;

/// Runs one job, sliced by `slice_cycles` so deadline, cancellation, and
/// progress are observed between slices without perturbing the
/// simulation. Runs under `catch_unwind`.
fn execute(job: &QueuedJob, shared: &Shared) -> Outcome {
    if shared.plan.worker_panic.trip() {
        panic!("injected worker panic"); // koc-lint: allow(panic, "deterministic fault injection: the worker_panic fault class exists to prove catch_unwind isolation")
    }
    let spec = &job.spec;
    let config = spec.processor_config().map_err(bad_request)?;
    let wspec = spec.workload_spec().map_err(bad_request)?;
    let mut proc = Processor::new(config, wspec.source());
    let deadline_at = spec.deadline_ms.map(|d| job.submitted_ms.saturating_add(d));
    loop {
        if job.cancel.load(Ordering::SeqCst) {
            return Err((ErrorKind::Cancelled, "job cancelled".to_string()));
        }
        if deadline_at.is_some_and(|d| shared.clock.deadline_expired(d)) {
            return Err((
                ErrorKind::Timeout,
                format!("deadline of {} ms exceeded", spec.deadline_ms.unwrap_or(0)),
            ));
        }
        let target = proc
            .cycle()
            .saturating_add(shared.config.slice_cycles.max(1));
        match proc.advance_slice(usize::MAX, target, spec.cycle_budget) {
            SliceOutcome::Complete | SliceOutcome::BudgetExhausted => break,
            SliceOutcome::CycleTarget | SliceOutcome::FetchTarget => {
                if spec.progress {
                    let _ = job.reply.send(WorkerMsg::Progress {
                        cycles: proc.cycle(),
                        committed: proc.stats().committed_instructions,
                    });
                }
            }
        }
    }
    Ok(JobResult::from_sim_stats(&proc.finish().0))
}

fn bad_request(message: String) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, message)
}
