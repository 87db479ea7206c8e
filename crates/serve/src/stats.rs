//! Service-level counters and the `koc-bench` reportable snapshot.

use std::sync::Mutex;

use koc_isa::json::Json;
use serde::Serialize;

/// A point-in-time snapshot of the server's operational counters — the
/// serve-mode analogue of `SimStats`, rendered by `koc-bench`'s serve
/// report rows and shipped over the wire for the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServeStats {
    /// Complete request lines received (including unparseable ones).
    pub requests: u64,
    /// Jobs answered with a simulation result.
    pub ok: u64,
    /// Request lines rejected as malformed `koc-serve/1`.
    pub parse_errors: u64,
    /// Well-formed requests rejected as impossible (unknown engine, ...).
    pub bad_requests: u64,
    /// Jobs rejected by load shedding (bounded queue full).
    pub shed: u64,
    /// Jobs served straight from the result cache.
    pub cache_hits: u64,
    /// Jobs that missed the cache and were computed.
    pub cache_misses: u64,
    /// Corrupt/torn cache entries detected, quarantined, and recomputed.
    pub cache_quarantined: u64,
    /// Jobs abandoned on their wall-clock deadline.
    pub timeouts: u64,
    /// Jobs cooperatively cancelled.
    pub cancelled: u64,
    /// Worker panics isolated (each poisons its job, never the server).
    pub worker_panics: u64,
    /// Always 0: jobs are no longer batched. Kept for wire compatibility.
    pub batches: u64,
    /// Always 0: jobs are no longer batched. Kept for wire compatibility.
    pub batched_lanes: u64,
    /// Wall-clock ms since the server started.
    pub wall_ms: u64,
    /// Request lines per wall-clock second.
    pub requests_per_sec: f64,
    /// Median job latency (submit to response), ms.
    pub p50_ms: f64,
    /// 99th-percentile job latency, ms.
    pub p99_ms: f64,
}

impl ServeStats {
    /// Decodes a snapshot from its wire JSON (missing counters read 0, so
    /// the reader tolerates older servers).
    ///
    /// # Errors
    /// Returns a description of a structurally broken document.
    pub fn from_json(v: &Json) -> Result<ServeStats, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("stats must be an object".to_string());
        }
        let n = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let f = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(ServeStats {
            requests: n("requests"),
            ok: n("ok"),
            parse_errors: n("parse_errors"),
            bad_requests: n("bad_requests"),
            shed: n("shed"),
            cache_hits: n("cache_hits"),
            cache_misses: n("cache_misses"),
            cache_quarantined: n("cache_quarantined"),
            timeouts: n("timeouts"),
            cancelled: n("cancelled"),
            worker_panics: n("worker_panics"),
            batches: n("batches"),
            batched_lanes: n("batched_lanes"),
            wall_ms: n("wall_ms"),
            requests_per_sec: f("requests_per_sec"),
            p50_ms: f("p50_ms"),
            p99_ms: f("p99_ms"),
        })
    }
}

/// Internal mutable counters behind one lock (all touches are off the
/// simulation path; contention is per-request, not per-cycle).
#[derive(Debug, Default)]
struct RecorderInner {
    stats: ServeStats,
    latencies_ms: Vec<u64>,
}

/// Thread-safe accumulator the server threads record into.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    inner: Mutex<RecorderInner>,
}

/// The counters a recorder can bump by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A request line arrived.
    Request,
    /// A job was answered with a result.
    Ok,
    /// A malformed request line.
    ParseError,
    /// An impossible request.
    BadRequest,
    /// A job was load-shed.
    Shed,
    /// A cache hit.
    CacheHit,
    /// A cache miss.
    CacheMiss,
    /// A quarantined cache entry.
    CacheQuarantined,
    /// A deadline timeout.
    Timeout,
    /// A cancellation.
    Cancelled,
    /// An isolated worker panic.
    WorkerPanic,
}

impl StatsRecorder {
    /// Bumps one counter.
    pub fn bump(&self, which: Counter) {
        let mut inner = self.guard();
        let s = &mut inner.stats;
        *match which {
            Counter::Request => &mut s.requests,
            Counter::Ok => &mut s.ok,
            Counter::ParseError => &mut s.parse_errors,
            Counter::BadRequest => &mut s.bad_requests,
            Counter::Shed => &mut s.shed,
            Counter::CacheHit => &mut s.cache_hits,
            Counter::CacheMiss => &mut s.cache_misses,
            Counter::CacheQuarantined => &mut s.cache_quarantined,
            Counter::Timeout => &mut s.timeouts,
            Counter::Cancelled => &mut s.cancelled,
            Counter::WorkerPanic => &mut s.worker_panics,
        } += 1;
    }

    /// Records one completed job's submit-to-response latency.
    pub fn record_latency_ms(&self, ms: u64) {
        self.guard().latencies_ms.push(ms);
    }

    /// A consistent snapshot with derived rates at `wall_ms` since start.
    pub fn snapshot(&self, wall_ms: u64) -> ServeStats {
        let inner = self.guard();
        let mut stats = inner.stats.clone();
        stats.wall_ms = wall_ms;
        stats.requests_per_sec = if wall_ms == 0 {
            0.0
        } else {
            stats.requests as f64 * 1_000.0 / wall_ms as f64
        };
        let mut sorted = inner.latencies_ms.clone();
        sorted.sort_unstable();
        stats.p50_ms = percentile(&sorted, 50) as f64;
        stats.p99_ms = percentile(&sorted, 99) as f64;
        stats
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        // A poisoned stats lock means a recorder thread already panicked
        // while holding it; counters are plain integers, so propagating is
        // strictly worse than the poison itself.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_computes_rates_and_percentiles() {
        let rec = StatsRecorder::default();
        for _ in 0..10 {
            rec.bump(Counter::Request);
        }
        rec.bump(Counter::Ok);
        for ms in [1, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            rec.record_latency_ms(ms);
        }
        let snap = rec.snapshot(2_000);
        assert_eq!(snap.requests, 10);
        assert_eq!(snap.ok, 1);
        assert_eq!((snap.batches, snap.batched_lanes), (0, 0));
        assert!((snap.requests_per_sec - 5.0).abs() < 1e-9);
        assert_eq!(snap.p50_ms, 5.0);
        assert_eq!(snap.p99_ms, 100.0);
    }

    #[test]
    fn wire_snapshot_round_trips() {
        let rec = StatsRecorder::default();
        rec.bump(Counter::CacheHit);
        rec.bump(Counter::Shed);
        rec.bump(Counter::WorkerPanic);
        let snap = rec.snapshot(1_000);
        let json = serde::Serialize::to_json(&snap);
        let parsed = ServeStats::from_json(&koc_isa::json::parse_json(&json).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        assert!(ServeStats::from_json(&Json::Arr(vec![])).is_err());
    }
}
