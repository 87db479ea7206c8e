//! End-to-end fault-injection matrix for `koc-serve`.
//!
//! Each test stands up a real server on a loopback port, injects one
//! fault class through a deterministic `FaultPlan`, and proves graceful
//! degradation: a structured error or shed, the next request succeeding,
//! and never a wrong or partial simulation result.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use koc_serve::clock::{sleep_ms, Duration};
use koc_serve::fault::{FaultPlan, FaultSet};
use koc_serve::protocol::{ErrorKind, JobSpec, Request, Response};
use koc_serve::server::{serve, ServerConfig, ServerHandle};
use koc_serve::{Client, ClientError, RetryPolicy};
use koc_sim::Processor;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("koc-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, config: ServerConfig, plan: FaultPlan) -> (ServerHandle, Client, PathBuf) {
    let dir = temp_dir(tag);
    let handle = serve("127.0.0.1:0", &dir, config, plan).expect("bind loopback");
    let client = Client::new(handle.local_addr().to_string(), RetryPolicy::default());
    (handle, client, dir)
}

fn quick_job(engine: &str, workload: &str) -> JobSpec {
    JobSpec {
        engine: engine.to_string(),
        workload: workload.to_string(),
        trace_len: 4_000,
        memory_latency: 100,
        ..JobSpec::default()
    }
}

/// A job that runs long enough (in debug builds too) to be cancelled or
/// timed out while in flight.
fn long_job() -> JobSpec {
    JobSpec {
        engine: "cooo".to_string(),
        workload: "pointer_chase".to_string(),
        trace_len: 120_000,
        memory_latency: 1_000,
        ..JobSpec::default()
    }
}

/// What the simulator itself says this job's outcome is (ground truth for
/// wrong-result checks).
fn solo_truth(spec: &JobSpec) -> (u64, u64) {
    let config = spec.processor_config().expect("valid config");
    let wspec = spec.workload_spec().expect("valid workload");
    let mut processor = Processor::new(config, wspec.source());
    processor.advance_slice(usize::MAX, u64::MAX, spec.cycle_budget);
    let stats = processor.finish().0;
    (stats.cycles, stats.committed_instructions)
}

/// Opens a raw protocol connection (no client-side retry or parsing
/// conveniences — for driving the wire format directly).
fn raw_conn(handle: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(10_000)))
        .expect("read timeout");
    let writer = stream.try_clone().expect("clone");
    (BufReader::new(stream), writer)
}

fn send_raw(writer: &mut TcpStream, line: &str) {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write line");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    koc_serve::protocol::parse_response(line.trim_end()).expect("parseable response")
}

#[test]
fn identical_batch_replay_hits_the_cache_with_bit_identical_results() {
    let (handle, client, dir) = start("replay", ServerConfig::default(), FaultPlan::default());
    let jobs: Vec<JobSpec> = [
        ("baseline", "stream_add"),
        ("cooo", "stream_add"),
        ("baseline", "gather"),
        ("cooo", "gather"),
    ]
    .iter()
    .map(|(e, w)| quick_job(e, w))
    .collect();
    let first: Vec<_> = jobs
        .iter()
        .map(|j| client.submit(j).expect("first round"))
        .collect();
    assert!(first.iter().all(|s| !s.cache_hit), "cold cache");
    let second: Vec<_> = jobs
        .iter()
        .map(|j| client.submit(j).expect("second round"))
        .collect();
    assert!(second.iter().all(|s| s.cache_hit), "warm cache");
    for ((job, a), b) in jobs.iter().zip(&first).zip(&second) {
        assert_eq!(a.result, b.result, "replay must not change results");
        let (cycles, committed) = solo_truth(job);
        assert_eq!(a.result.cycles, cycles, "served result matches simulator");
        assert_eq!(a.result.committed, committed);
    }
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.cache_hits, jobs.len() as u64);
    assert_eq!(stats.cache_misses, jobs.len() as u64);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_cache_write_is_quarantined_and_recomputed_never_served() {
    let plan = FaultPlan {
        torn_cache_write: FaultSet::at(&[0]),
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("torn", ServerConfig::default(), plan);
    let job = quick_job("cooo", "stream_add");
    let (cycles, committed) = solo_truth(&job);
    // First run computes and stores a *torn* entry.
    let a = client.submit(&job).expect("first run");
    assert_eq!(a.result.cycles, cycles, "the response itself is whole");
    // Second run detects the damage, quarantines, recomputes — a correct
    // result, not a hit, never garbage.
    let b = client.submit(&job).expect("second run");
    assert!(!b.cache_hit, "torn entry must not hit");
    assert_eq!(b.result.cycles, cycles);
    assert_eq!(b.result.committed, committed);
    // Third run hits the re-stored clean entry.
    let c = client.submit(&job).expect("third run");
    assert!(c.cache_hit);
    assert_eq!(c.result, b.result);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.cache_quarantined, 1);
    assert!(
        std::fs::read_dir(&dir).expect("cache dir").any(|e| e
            .expect("entry")
            .path()
            .to_string_lossy()
            .contains("quarantined")),
        "quarantined entry kept on disk for post-mortem"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hand_corrupted_cache_entry_is_never_served() {
    let (handle, client, dir) = start("corrupt", ServerConfig::default(), FaultPlan::default());
    let job = quick_job("baseline", "reduction");
    let truth = client.submit(&job).expect("compute").result;
    // Corrupt the stored counters on disk behind the server's back.
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one cache entry");
    let text = std::fs::read_to_string(&entry).expect("read entry");
    std::fs::write(&entry, text.replace(&truth.cycles.to_string(), "1")).expect("corrupt");
    let again = client.submit(&job).expect("recompute");
    assert!(!again.cache_hit, "corrupt entry must not be served");
    assert_eq!(again.result, truth, "recomputed, not patched");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_poisons_the_job_not_the_server() {
    let plan = FaultPlan {
        worker_panic: FaultSet::at(&[0]),
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("panic", ServerConfig::default(), plan);
    let job = quick_job("cooo", "stencil27");
    match client.submit(&job) {
        Err(ClientError::Rejected {
            kind: ErrorKind::WorkerPanic,
            ..
        }) => {}
        other => panic!("expected a structured worker-panic error, got {other:?}"),
    }
    // The very next request succeeds on the same server.
    let ok = client.submit(&job).expect("server kept serving");
    let (cycles, _) = solo_truth(&job);
    assert_eq!(ok.result.cycles, cycles);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.worker_panics, 1);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_sheds_with_a_retry_hint_and_recovers() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 50,
        ..ServerConfig::default()
    };
    let plan = FaultPlan {
        stall_worker: FaultSet::at(&[0]),
        stall_ms: 900,
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("overflow", config, plan);
    // Wedge the only worker, then fill the 1-deep queue.
    let stalled = std::thread::spawn({
        let client = client.clone();
        move || client.submit(&quick_job("cooo", "stream_add"))
    });
    sleep_ms(250); // let the worker claim the stalled job
    let (mut r2, mut w2) = raw_conn(&handle);
    send_raw(
        &mut w2,
        &Request::Submit(quick_job("baseline", "gather")).encode(),
    );
    sleep_ms(100); // ensure it is queued before the overflow probe
    let (mut r3, mut w3) = raw_conn(&handle);
    send_raw(
        &mut w3,
        &Request::Submit(quick_job("cooo", "gather")).encode(),
    );
    match read_response(&mut r3) {
        Response::Error {
            kind: ErrorKind::Overloaded,
            retry_after_ms,
            ..
        } => assert_eq!(retry_after_ms, Some(50), "shed carries the hint"),
        other => panic!("expected load shedding, got {other:?}"),
    }
    // Both in-flight jobs complete, and the retrying client gets through
    // once the stall clears.
    assert!(matches!(read_response(&mut r2), Response::Done { .. }));
    stalled
        .join()
        .expect("thread")
        .expect("stalled job finishes");
    let retried = Client::new(
        handle.local_addr().to_string(),
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 100,
            ..RetryPolicy::default()
        },
    );
    let sub = retried
        .submit(&quick_job("cooo", "gather"))
        .expect("backoff rides out the overload");
    assert!(sub.result.cycles > 0);
    let stats = client.server_stats().expect("stats");
    assert!(stats.shed >= 1, "shedding was counted");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_client_cannot_wedge_the_server() {
    let config = ServerConfig {
        workers: 1,
        read_timeout_ms: 300,
        ..ServerConfig::default()
    };
    let (handle, client, dir) = start("stalled", config, FaultPlan::default());
    // A client that connects and never sends (or reads) anything.
    let (mut stalled_reader, _stalled_writer) = raw_conn(&handle);
    // The single worker still serves everyone else promptly.
    for _ in 0..3 {
        client.ping().expect("server responsive");
    }
    let sub = client
        .submit(&quick_job("baseline", "stream_add"))
        .expect("jobs still run");
    assert!(sub.result.cycles > 0);
    // The stalled connection is closed on its idle deadline with a
    // structured timeout, not held open forever.
    let mut line = String::new();
    stalled_reader.read_line(&mut line).expect("deadline line");
    match koc_serve::protocol::parse_response(line.trim_end()) {
        Ok(Response::Error {
            kind: ErrorKind::Timeout,
            ..
        }) => {}
        other => panic!("expected idle-timeout close, got {other:?}"),
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_time_out_with_a_structured_error() {
    let config = ServerConfig {
        slice_cycles: 2_000,
        ..ServerConfig::default()
    };
    let (handle, client, dir) = start("deadline", config, FaultPlan::default());
    let job = JobSpec {
        deadline_ms: Some(1),
        ..long_job()
    };
    match client.submit(&job) {
        Err(ClientError::Rejected {
            kind: ErrorKind::Timeout,
            ..
        }) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    // The server moves on to the next job untroubled.
    let ok = client
        .submit(&quick_job("cooo", "stream_add"))
        .expect("next job");
    assert!(ok.result.cycles > 0);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.timeouts, 1);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clock_skew_expires_generous_deadlines() {
    let plan = FaultPlan {
        clock_skew_ms: 3_600_000, // the worker's clock runs an hour fast
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("skew", ServerConfig::default(), plan);
    let job = JobSpec {
        deadline_ms: Some(60_000), // generous, but not against an hour of skew
        ..quick_job("cooo", "stream_add")
    };
    match client.submit(&job) {
        Err(ClientError::Rejected {
            kind: ErrorKind::Timeout,
            ..
        }) => {}
        other => panic!("expected a skew-forced timeout, got {other:?}"),
    }
    // Jobs without deadlines are untouched by skew.
    let ok = client
        .submit(&quick_job("cooo", "stream_add"))
        .expect("no deadline");
    assert!(ok.result.cycles > 0);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_stops_a_running_job_cooperatively() {
    let config = ServerConfig {
        slice_cycles: 2_000,
        ..ServerConfig::default()
    };
    let (handle, client, dir) = start("cancel", config, FaultPlan::default());
    let (mut reader, mut writer) = raw_conn(&handle);
    let job = JobSpec {
        progress: true,
        ..long_job()
    };
    send_raw(&mut writer, &Request::Submit(job).encode());
    // Wait for proof the job is actually running, then cancel it.
    match read_response(&mut reader) {
        Response::Progress { .. } => {}
        other => panic!("expected a progress heartbeat, got {other:?}"),
    }
    send_raw(&mut writer, &Request::Cancel.encode());
    loop {
        match read_response(&mut reader) {
            Response::Progress { .. } => continue,
            Response::Error {
                kind: ErrorKind::Cancelled,
                ..
            } => break,
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
    // Same connection is still usable, and the server still serves.
    send_raw(&mut writer, &Request::Ping.encode());
    assert!(matches!(read_response(&mut reader), Response::Pong));
    let ok = client
        .submit(&quick_job("baseline", "stream_add"))
        .expect("next job");
    assert!(ok.result.cycles > 0);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.cancelled, 1);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let (handle, _client, dir) = start("parse", ServerConfig::default(), FaultPlan::default());
    let (mut reader, mut writer) = raw_conn(&handle);
    for hostile in [
        "not json at all",
        "{\"schema\":\"koc-serve/2\",\"op\":\"ping\"}",
        "{\"schema\":\"koc-serve/1\",\"op\":\"nonsense\"}",
        "{\"schema\":\"koc-serve/1\",\"op\":\"submit\",\"job\":{\"engine\":7}}",
        "{\"truncated\":",
    ] {
        send_raw(&mut writer, hostile);
        match read_response(&mut reader) {
            Response::Error { kind, .. } => assert!(
                matches!(kind, ErrorKind::Parse | ErrorKind::BadRequest),
                "hostile line classified as {kind:?}"
            ),
            other => panic!("expected a structured error, got {other:?}"),
        }
    }
    // Same connection, next valid request works.
    send_raw(&mut writer, &Request::Ping.encode());
    assert!(matches!(read_response(&mut reader), Response::Pong));
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_response_writes_are_retried_by_the_client() {
    let plan = FaultPlan {
        short_response_write: FaultSet::at(&[0]),
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("shortwrite", ServerConfig::default(), plan);
    let job = quick_job("cooo", "dense_blocked");
    let sub = client.submit(&job).expect("retry rides out the torn line");
    assert!(sub.attempts >= 2, "first response line was torn");
    let (cycles, _) = solo_truth(&job);
    assert_eq!(sub.result.cycles, cycles, "retried result is still exact");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compatible_queued_jobs_each_run_solo_with_identical_results() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let plan = FaultPlan {
        stall_worker: FaultSet::at(&[0]),
        stall_ms: 700,
        ..FaultPlan::default()
    };
    let (handle, client, dir) = start("queued", config, plan);
    // Wedge the worker so jobs sharing one instruction stream pile up
    // behind it; each still runs on its own.
    let decoy = std::thread::spawn({
        let client = client.clone();
        move || client.submit(&quick_job("cooo", "reduction"))
    });
    sleep_ms(200);
    let specs: Vec<JobSpec> = [128usize, 64, 32]
        .iter()
        .map(|&window| JobSpec {
            window,
            ..quick_job("cooo", "stream_add")
        })
        .collect();
    let joins: Vec<_> = specs
        .iter()
        .map(|spec| {
            let client = client.clone();
            let spec = spec.clone();
            std::thread::spawn(move || client.submit(&spec))
        })
        .collect();
    let submissions: Vec<_> = joins
        .into_iter()
        .map(|j| j.join().expect("thread").expect("submission"))
        .collect();
    decoy.join().expect("thread").expect("decoy job");
    for (spec, sub) in specs.iter().zip(&submissions) {
        let (cycles, committed) = solo_truth(spec);
        assert_eq!(sub.result.cycles, cycles, "served job == solo run");
        assert_eq!(sub.result.committed, committed);
    }
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.ok, 4, "the decoy and every queued job completed");
    assert_eq!(
        (stats.batches, stats.batched_lanes),
        (0, 0),
        "jobs are never batched; the counters stay on the wire at 0"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cycle_budgets_cap_served_jobs_exactly_like_solo_runs() {
    let (handle, client, dir) = start("budget", ServerConfig::default(), FaultPlan::default());
    let job = JobSpec {
        cycle_budget: Some(300),
        ..quick_job("cooo", "stream_add")
    };
    let sub = client.submit(&job).expect("capped job");
    assert!(sub.result.budget_exhausted, "budget reported");
    let (cycles, committed) = solo_truth(&job);
    assert_eq!(
        sub.result.cycles, cycles,
        "sliced == solo run under the budget"
    );
    assert_eq!(sub.result.committed, committed);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_acknowledged_and_the_listener_stops() {
    let (handle, client, dir) = start("shutdown", ServerConfig::default(), FaultPlan::default());
    client.shutdown_server().expect("ack");
    handle.wait();
    // The listener is gone: pings now fail at the transport level.
    sleep_ms(50);
    assert!(client.ping().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
