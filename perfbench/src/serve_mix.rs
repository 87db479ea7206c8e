//! `serve_mix`: `koc-serve` on loopback with a fresh cache directory, driven
//! by a closed loop of `nproc` clients over a seeded job stream.
//!
//! A fixed share of the jobs repeats an earlier, finished spec: those are
//! cache reads (hits). The rest are fresh specs, which simulate and then
//! write the cache. The repeat share puts the median among the hits and the
//! p99 among the misses, so a cache change that helps reads but slows
//! writes shows on one of the two. Closed loop, because callers wait for
//! their reply.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use koc_serve::{
    serve, Client, FaultPlan, JobResult, JobSpec, Lookup, ResultCache, RetryPolicy, ServeStats,
    ServerConfig,
};
use koc_sim::{NullObserver, SimBuilder};

use crate::layers::Layers;
use crate::report::{json_num, json_str};
use crate::stats::{median, tail, Tally};
use crate::{mix, spread_note, timed, Outcome, Peak, RunOpts, Timings};

/// Share of jobs that repeat an earlier finished spec (cache hits).
pub const REPEAT_SHARE: f64 = 0.8;

/// Kernels fresh specs are drawn from: the paper suite. The MLP-contrast
/// kernels are left out because `pointer_chase` simulates about twice as
/// slowly per instruction, so the few drawn in a run would set the p99 alone.
pub const KERNELS: [&str; 5] = [
    "stream_add",
    "stencil27",
    "dense_blocked",
    "reduction",
    "gather",
];

/// Windows (ROB or IQ size) fresh specs are drawn from.
pub const WINDOWS: [usize; 3] = [32, 64, 128];

/// Fresh specs draw `trace_len` uniformly from this range: long enough that
/// a miss spans about ten of the server's 25 ms connection polls, so the
/// p99 is not set by which poll a reply happens to wait for.
pub const TRACE_LENS: std::ops::Range<usize> = 250_000..350_000;

/// The closed loop runs in segments of about this many seconds. Between
/// two segments the clients have stopped and the machine is idle: that is
/// where set-up is timed, so that its median sees the same host as the
/// jobs. A segment spans about ten misses, so the drain at its end, when
/// one client waits for the other's last job, costs little throughput.
const SEGMENT_S: f64 = 2.5;

/// Server starts timed for `setup_s` after each segment, each stopped
/// before the next starts. One start takes about 0.1 ms but varies by
/// several times from one to the next, so the median needs many.
///
/// Every start opens the same existing, empty cache directory. Creating a
/// directory costs a journal update on the disk, which on a shared host
/// varied by six times from one second to the next and would swamp the
/// server's own start-up.
const SETUP_PER_SEGMENT: usize = 40;

/// Pause after a segment before its set-ups are timed, ms: a few of the
/// server's 25 ms connection polls.
const SETTLE_MS: u64 = 100;

/// Where the run keeps its cache directories and span files.
const WORK_DIR: &str = "perfbench/work";

/// The seeded job stream shared by the clients: fresh specs never repeat a
/// key, repeats pick among specs whose job has finished.
///
/// Fresh specs deal (engine, kernel, window) from a shuffled deck of every
/// combination, reshuffled when it runs out, so every run simulates nearly
/// the same mix whatever the seed; only the order and `trace_len` vary.
pub struct JobStream {
    rng: u64,
    keys: HashSet<String>,
    finished: Vec<JobSpec>,
    deck: Vec<(usize, usize, usize)>,
}

impl JobStream {
    /// A stream drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        JobStream {
            rng: mix(seed, 0x5e4e),
            keys: HashSet::new(),
            finished: Vec::new(),
            deck: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = mix(self.rng, 1);
        self.rng
    }

    /// The next job, and whether it repeats a finished spec.
    pub fn next_job(&mut self) -> (JobSpec, bool) {
        let repeat = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if repeat < REPEAT_SHARE && !self.finished.is_empty() {
            let i = (self.next_u64() % self.finished.len() as u64) as usize;
            return (self.finished[i].clone(), true);
        }
        let pick = |n: usize, r: u64| (r % n as u64) as usize;
        if self.deck.is_empty() {
            for e in 0..2 {
                for k in 0..KERNELS.len() {
                    for w in 0..WINDOWS.len() {
                        self.deck.push((e, k, w));
                    }
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = pick(i + 1, self.next_u64());
                self.deck.swap(i, j);
            }
        }
        let (e, k, w) = self.deck.pop().expect("the deck was just refilled");
        loop {
            let spec = JobSpec {
                engine: ["cooo", "baseline"][e].to_string(),
                workload: KERNELS[k].to_string(),
                window: WINDOWS[w],
                trace_len: TRACE_LENS.start + pick(TRACE_LENS.len(), self.next_u64()),
                ..JobSpec::default()
            };
            if self.keys.insert(spec.cache_key()) {
                return (spec, false);
            }
        }
    }

    /// Marks a fresh spec's job as finished, so later jobs may repeat it.
    pub fn finished(&mut self, spec: JobSpec) {
        self.finished.push(spec);
    }
}

/// One submitted job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job.
    pub spec: JobSpec,
    /// Whether the stream drew it as a repeat.
    pub repeat: bool,
    /// Submit to `Done`, ms; infinite when the job failed.
    pub latency_ms: f64,
    /// The server's answer.
    pub result: Result<(JobResult, bool, u32), String>,
    /// Traced loop only: bench-side cache probe and store times, us.
    pub probe_us: Option<(f64, bool)>,
    /// See `probe_us`.
    pub store_us: Option<f64>,
}

/// Runs the workload.
pub fn run(opts: &RunOpts, tally: &mut Tally) -> Outcome {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServerConfig {
        workers: clients,
        ..ServerConfig::default()
    };
    let work = PathBuf::from(WORK_DIR).join(format!("serve-{}", std::process::id()));
    let params = vec![
        ("clients", clients.to_string()),
        ("workers", config.workers.to_string()),
        ("repeat_share", REPEAT_SHARE.to_string()),
        ("kernels", KERNELS.join(",")),
        ("windows", format!("{WINDOWS:?}")),
        (
            "trace_len",
            format!("{}..{}", TRACE_LENS.start, TRACE_LENS.end),
        ),
        (
            "memory_latency",
            JobSpec::default().memory_latency.to_string(),
        ),
    ];

    let seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let run_loop = |traced: bool, tally: &mut Tally| {
        let name = if traced { "traced" } else { "plain" };
        let run = closed_loop(
            opts.seed,
            seconds,
            clients,
            &config,
            &work.join(name),
            traced,
            tally,
        );
        // The checks re-simulate every miss in this process, after the
        // loop's peak resident set has been read.
        if let Some(run) = &run {
            check_results(&run.records, tally);
        }
        run
    };
    let outcome = match run_loop(false, tally) {
        Some(plain) if !opts.traced => {
            let mut timings = Timings {
                wall_s: Some(plain.wall_s),
                peak: plain.peak,
                ..Timings::default()
            };
            for r in &plain.records {
                timings.jobs_ms.push(r.latency_ms);
                if let (Ok((res, false, _)), false) = (&r.result, r.repeat) {
                    let e = usize::from(r.spec.engine != "cooo");
                    timings.ns_per_inst[e].push(r.latency_ms * 1e6 / res.committed.max(1) as f64);
                }
            }
            Some(Outcome::end_to_end(
                timings.metrics(
                    &plain.setup,
                    "one submit",
                    "cache-miss jobs (client latency, end to end)",
                ),
                params.clone(),
            ))
        }
        Some(plain) => run_loop(true, tally).map(|traced| {
            write_spans(&traced.records, opts.seed);
            let layers = serve_layers(&traced.records, &traced.stats);
            let overhead = plain.jobs_per_s() / traced.jobs_per_s() - 1.0;
            Outcome::traced(layers, overhead, None, params.clone(), tally)
        }),
        None => None,
    };
    let _ = std::fs::remove_dir_all(&work);
    // Leaves the directory only when a traced run wrote its spans there.
    let _ = std::fs::remove_dir(WORK_DIR);
    outcome.unwrap_or_else(|| failed_outcome(opts.traced, params))
}

/// An outcome with every metric at 0, for a run whose server never came up
/// (the tally already holds the failure).
fn failed_outcome(traced: bool, params: Vec<(&'static str, String)>) -> Outcome {
    let metrics = if traced {
        Layers::default().finish()
    } else {
        let mut m = crate::report::Metrics::default();
        for (name, unit) in crate::layers::END_TO_END {
            m.push(name, unit, 0.0, "server did not start".to_string());
        }
        m
    };
    Outcome { metrics, params }
}

/// One closed-loop run: what the clients saw and the server counted, with
/// the peak resident set after the first segment and the set-up times
/// taken between segments.
struct LoopRun {
    records: Vec<JobRecord>,
    wall_s: f64,
    stats: ServeStats,
    peak: Peak,
    setup: Vec<f64>,
}

impl LoopRun {
    fn jobs_per_s(&self) -> f64 {
        self.records.len() as f64 / self.wall_s
    }
}

/// Starts a server on a fresh cache directory and runs the closed loop for
/// `seconds`, or returns `None` if the server did not start.
fn closed_loop(
    seed: u64,
    seconds: f64,
    clients: usize,
    config: &ServerConfig,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Option<LoopRun> {
    let handle = match serve("127.0.0.1:0", dir, config.clone(), FaultPlan::default()) {
        Ok(h) => h,
        Err(e) => {
            tally.check(false, || format!("server start: {e}"));
            return None;
        }
    };
    let addr = handle.local_addr().to_string();
    // The benchmark's own cache, on which the traced loop times the probe
    // and store of every job directly.
    let bench_cache = if traced {
        match ResultCache::open(&dir.join("bench-cache"), Arc::new(FaultPlan::default())) {
            Ok(c) => Some(c),
            Err(e) => {
                tally.check(false, || format!("bench cache open: {e}"));
                None
            }
        }
    } else {
        None
    };
    let setup_dir = dir.join("setup");
    if let Err(e) = std::fs::create_dir_all(&setup_dir) {
        tally.check(false, || format!("set-up directory: {e}"));
    }
    let stream = Mutex::new(JobStream::new(seed));
    let mut run = LoopRun {
        records: Vec::new(),
        wall_s: 0.0,
        stats: ServeStats::default(),
        peak: Peak::default(),
        setup: Vec::new(),
    };
    let segments = (seconds / SEGMENT_S).round().max(1.0) as usize;
    for segment in 0..segments {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / segments as f64);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let client = Client::new(addr.clone(), RetryPolicy::default());
                    let (stream, bench_cache) = (&stream, bench_cache.as_ref());
                    s.spawn(move || client_loop(&client, stream, bench_cache, deadline))
                })
                .collect();
            for w in workers {
                run.records
                    .extend(w.join().expect("client threads do not panic"));
            }
        });
        run.wall_s += start.elapsed().as_secs_f64();
        if segment == 0 {
            run.peak = Peak::after_first("segment");
        }
        // Let the connection threads of the segment's clients see their
        // peers hang up and exit, so that every set-up starts on a quiet
        // process.
        std::thread::sleep(Duration::from_millis(SETTLE_MS));
        for _ in 0..SETUP_PER_SEGMENT {
            match timed(&mut run.setup, || {
                serve(
                    "127.0.0.1:0",
                    &setup_dir,
                    config.clone(),
                    FaultPlan::default(),
                )
            }) {
                Ok(h) => h.stop(),
                Err(e) => tally.check(false, || format!("server start: {e}")),
            }
        }
    }
    run.stats = handle.snapshot();
    handle.stop();
    Some(run)
}

fn client_loop(
    client: &Client,
    stream: &Mutex<JobStream>,
    bench_cache: Option<&ResultCache>,
    deadline: Instant,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    while Instant::now() < deadline {
        let (spec, repeat) = stream
            .lock()
            .expect("the job stream lock is never poisoned")
            .next_job();
        let key = spec.cache_key();
        let probe_us = bench_cache.map(|c| {
            let t = Instant::now();
            let hit = matches!(c.probe(&key), Lookup::Hit(_));
            (t.elapsed().as_secs_f64() * 1e6, hit)
        });
        let t = Instant::now();
        let submitted = client.submit(&spec);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut record = JobRecord {
            spec,
            repeat,
            latency_ms,
            result: Err(String::new()),
            probe_us,
            store_us: None,
        };
        match submitted {
            Ok(sub) => {
                if let (Some(c), false) = (bench_cache, sub.cache_hit) {
                    let t = Instant::now();
                    let stored = c.store(&key, &sub.result);
                    record.store_us = stored.ok().map(|()| t.elapsed().as_secs_f64() * 1e6);
                }
                if !repeat {
                    stream
                        .lock()
                        .expect("the job stream lock is never poisoned")
                        .finished(record.spec.clone());
                }
                record.result = Ok((sub.result, sub.cache_hit, sub.attempts));
            }
            Err(e) => {
                record.latency_ms = f64::INFINITY;
                record.result = Err(e.to_string());
            }
        }
        records.push(record);
    }
    records
}

/// Every job is one attempted operation. A serve error, a retried submit,
/// a repeat that missed the cache, a hit that differs from its miss, and a
/// miss that differs from an in-process `Session` run are failures.
fn check_results(records: &[JobRecord], tally: &mut Tally) {
    let mut misses: BTreeMap<String, (JobSpec, JobResult)> = BTreeMap::new();
    for r in records {
        if let Ok((res, false, _)) = &r.result {
            misses.insert(r.spec.cache_key(), (r.spec.clone(), res.clone()));
        }
    }
    for r in records {
        tally.attempt(1);
        match &r.result {
            Err(e) => tally.fail(format!("{}: {e}", r.spec.cache_key())),
            Ok((res, hit, attempts)) => {
                if *attempts > 1 {
                    tally.fail(format!("{}: {attempts} attempts", r.spec.cache_key()));
                }
                if *hit != r.repeat {
                    tally.fail(format!(
                        "{}: cache hit {hit}, repeat {}",
                        r.spec.cache_key(),
                        r.repeat
                    ));
                }
                if *hit
                    && misses
                        .get(&r.spec.cache_key())
                        .is_some_and(|(_, m)| m != res)
                {
                    tally.fail(format!("{}: hit differs from its miss", r.spec.cache_key()));
                }
            }
        }
    }
    // Recompute every miss in process, on as many threads as clients.
    let misses: Vec<_> = misses.into_values().collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|s| {
        let chunk = misses.len().div_ceil(threads).max(1);
        let handles: Vec<_> = misses
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(spec, res)| verify(spec, res))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification threads do not panic"))
            .collect()
    });
    for v in verdicts {
        tally.check(v.is_ok(), || v.err().unwrap_or_default());
    }
}

/// Re-runs `spec` in process through a `Session` and compares.
fn verify(spec: &JobSpec, served: &JobResult) -> Result<(), String> {
    let key = spec.cache_key();
    let config = spec.processor_config().map_err(|e| format!("{key}: {e}"))?;
    let workload = spec.workload_spec().map_err(|e| format!("{key}: {e}"))?;
    let source = workload.source();
    let expected = source.len_hint();
    let (stats, _) = SimBuilder::from_config(config)
        .build()
        .run_one(source, NullObserver);
    let local = JobResult::from_sim_stats(&stats);
    if local != *served {
        return Err(format!("{key}: served {served:?}, in-process {local:?}"));
    }
    if expected.is_some_and(|n| n as u64 != stats.committed_instructions) {
        return Err(format!(
            "{key}: committed {} of {expected:?}",
            stats.committed_instructions
        ));
    }
    Ok(())
}

fn serve_layers(records: &[JobRecord], stats: &ServeStats) -> Layers {
    let mut layers = Layers::default();
    let latencies = |hit: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| matches!(r.result, Ok((_, h, _)) if h == hit))
            .map(|r| r.latency_ms)
            .collect()
    };
    let (hits, misses) = (latencies(true), latencies(false));
    layers.set(
        "serve.hit_p50_ms",
        median(&hits).unwrap_or(0.0),
        spread_note(&hits, "hits"),
    );
    layers.set(
        "serve.miss_p50_ms",
        median(&misses).unwrap_or(0.0),
        spread_note(&misses, "misses"),
    );
    if let Some(t) = tail(&misses, 99.0) {
        layers.set(
            "serve.miss_p99_ms",
            t.value,
            format!(
                "p{:.2} of {} misses, {} beyond it",
                t.percentile, t.samples, t.beyond
            ),
        );
    }
    let probes: Vec<f64> = records
        .iter()
        .filter_map(|r| r.probe_us.filter(|p| p.1).map(|p| p.0))
        .collect();
    layers.set(
        "cache.probe_us",
        median(&probes).unwrap_or(0.0),
        spread_note(&probes, "hit probes"),
    );
    let stores: Vec<f64> = records.iter().filter_map(|r| r.store_us).collect();
    layers.set(
        "cache.store_us",
        median(&stores).unwrap_or(0.0),
        spread_note(&stores, "stores"),
    );
    layers.set(
        "serve.batched_lanes",
        stats.batched_lanes as f64,
        format!("{} lockstep batches", stats.batches),
    );
    let lookups = stats.cache_hits + stats.cache_misses;
    layers.set(
        "serve.cache_hit_frac",
        crate::layers::ratio(stats.cache_hits, lookups),
        format!("{} hits / {lookups} lookups", stats.cache_hits),
    );
    let retries: u64 = records
        .iter()
        .filter_map(|r| {
            r.result
                .as_ref()
                .ok()
                .map(|(_, _, a)| u64::from(a.saturating_sub(1)))
        })
        .sum();
    layers.set(
        "serve.retries",
        retries as f64,
        format!("over {} jobs", records.len()),
    );
    layers.set(
        "serve.shed",
        stats.shed as f64,
        format!("{} requests", stats.requests),
    );
    layers
}

/// Writes the traced loop's spans, one JSON object a line: each job's
/// `cache.probe`, `submit` and (misses) `cache.store`, sharing the job id.
fn write_spans(records: &[JobRecord], seed: u64) {
    let mut out = String::new();
    for (id, r) in records.iter().enumerate() {
        let mut span = |name: &str, dur_us: f64| {
            out.push_str(&format!("{{\"job\": {id}, \"span\": "));
            json_str(&mut out, name);
            out.push_str(", \"key\": ");
            json_str(&mut out, &r.spec.cache_key());
            out.push_str(", \"us\": ");
            json_num(&mut out, dur_us);
            out.push_str("}\n");
        };
        if let Some((us, _)) = r.probe_us {
            span("cache.probe", us);
        }
        span("submit", r.latency_ms * 1e3);
        if let Some(us) = r.store_us {
            span("cache.store", us);
        }
    }
    let _ = std::fs::create_dir_all(WORK_DIR);
    let path = Path::new(WORK_DIR).join(format!("spans-serve_mix-{seed}.jsonl"));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
