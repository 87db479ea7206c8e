//! Plain-text tabular reports, one per experiment, plus the full
//! per-run statistics table ([`stats_table`]) that gives every public
//! counter in [`SimStats`] a formatted row. `koc-lint`'s `stats-coverage`
//! rule checks this file mentions every public stat field, so a newly
//! added counter cannot silently stay invisible in bench output.

use koc_core::RetireClass;
use koc_serve::ServeStats;
use koc_sim::{CycleBuckets, Distribution, IntervalRecord, SimStats};

/// A formatted experiment report: a title, column headers, data rows and
/// free-form notes relating the result to the paper.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment title (e.g. `"Figure 9 — main performance results"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
    /// Notes on how to read the result against the paper.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// Right-aligns one row (header or data) to the column widths — the single
/// formatting path for every line of a report.
fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            format!(
                "{:>width$}",
                cell,
                width = widths.get(i).copied().unwrap_or(cell.len())
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats one [`Distribution`] field as mean / p50 / p90 / max rows.
fn distribution_rows(prefix: &str, d: &Distribution, rows: &mut Vec<(String, String)>) {
    rows.push((format!("{prefix}.mean"), format!("{:.2}", d.mean())));
    rows.push((format!("{prefix}.p50"), d.percentile(0.50).to_string()));
    rows.push((format!("{prefix}.p90"), d.percentile(0.90).to_string()));
    rows.push((format!("{prefix}.max"), d.max().to_string()));
}

/// Every public field of [`SimStats`] (including the nested recovery,
/// stall, branch and memory statistics) as `(name, formatted value)` rows.
///
/// This is the exhaustive-coverage point the `stats-coverage` lint rule
/// anchors on: adding a public field to a stats struct without formatting
/// it here fails `koc-lint`.
pub fn stats_rows(stats: &SimStats) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, value: String| rows.push((name.to_string(), value));

    push("cycles", stats.cycles.to_string());
    push(
        "committed_instructions",
        stats.committed_instructions.to_string(),
    );
    push(
        "dispatched_instructions",
        stats.dispatched_instructions.to_string(),
    );
    push("ipc", format!("{:.4}", stats.ipc()));
    push("checkpoints_taken", stats.checkpoints_taken.to_string());
    push(
        "checkpoints_committed",
        stats.checkpoints_committed.to_string(),
    );
    push(
        "checkpoints_squashed",
        stats.checkpoints_squashed.to_string(),
    );
    push("sliq_moved", stats.sliq_moved.to_string());
    push("sliq_high_water", stats.sliq_high_water.to_string());
    push("replay_window_peak", stats.replay_window_peak.to_string());
    push("budget_exhausted", stats.budget_exhausted.to_string());

    distribution_rows("inflight", &stats.inflight, &mut rows);
    distribution_rows("live", &stats.live, &mut rows);
    distribution_rows("live_long", &stats.live_long, &mut rows);
    distribution_rows("live_short", &stats.live_short, &mut rows);

    let mut push = |name: &str, value: String| rows.push((name.to_string(), value));
    for &class in RetireClass::all() {
        push(
            &format!("retire_breakdown.{class:?}"),
            format!("{:.4}", stats.retire_breakdown.fraction(class)),
        );
    }

    push("branches.predicted", stats.branches.predicted.to_string());
    push(
        "branches.mispredicted",
        stats.branches.mispredicted.to_string(),
    );

    let r = &stats.recoveries;
    push("recoveries.near_recoveries", r.near_recoveries.to_string());
    push(
        "recoveries.checkpoint_rollbacks",
        r.checkpoint_rollbacks.to_string(),
    );
    push("recoveries.exceptions", r.exceptions.to_string());
    push(
        "recoveries.squashed_instructions",
        r.squashed_instructions.to_string(),
    );
    push(
        "recoveries.reexecuted_instructions",
        r.reexecuted_instructions.to_string(),
    );

    let s = &stats.stalls;
    push("stalls.iq_full", s.iq_full.to_string());
    push("stalls.rob_full", s.rob_full.to_string());
    push("stalls.lsq_full", s.lsq_full.to_string());
    push("stalls.regs_full", s.regs_full.to_string());
    push("stalls.redirect", s.redirect.to_string());
    push("stalls.checkpoint_full", s.checkpoint_full.to_string());

    let m = &stats.memory;
    push("memory.data_accesses", m.data_accesses.to_string());
    push("memory.store_accesses", m.store_accesses.to_string());
    push("memory.inst_accesses", m.inst_accesses.to_string());
    push("memory.dl1_hits", m.dl1_hits.to_string());
    push("memory.dl1_misses", m.dl1_misses.to_string());
    push("memory.l2_hits", m.l2_hits.to_string());
    push("memory.l2_misses", m.l2_misses.to_string());
    push("memory.mshr_full_stalls", m.mshr_full_stalls.to_string());
    push("memory.row_buffer_hits", m.row_buffer_hits.to_string());
    push("memory.row_buffer_misses", m.row_buffer_misses.to_string());
    push(
        "memory.row_buffer_conflicts",
        m.row_buffer_conflicts.to_string(),
    );
    push("memory.prefetch_issued", m.prefetch_issued.to_string());
    push("memory.prefetch_useful", m.prefetch_useful.to_string());

    rows
}

/// The full per-run statistics as a rendered [`Report`].
pub fn stats_table(title: impl Into<String>, stats: &SimStats) -> Report {
    let mut report = Report::new(title, &["stat", "value"]);
    for (name, value) in stats_rows(stats) {
        report.push_row(vec![name, value]);
    }
    report.push_note("every public SimStats field has a row (enforced by koc-lint stats-coverage)");
    report
}

/// Every public field of [`CycleBuckets`] — the top-down cycle-accounting
/// result — as `(bucket, formatted value)` rows, each with its share of the
/// total. Anchored by the `stats-coverage` lint rule exactly like
/// [`stats_rows`]: a new bucket cannot stay invisible in bench output.
pub fn accounting_rows(buckets: &CycleBuckets) -> Vec<(String, String)> {
    let total = buckets.total();
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, value: u64| {
        let pct = if total == 0 {
            0.0
        } else {
            value as f64 * 100.0 / total as f64
        };
        rows.push((name.to_string(), format!("{value} ({pct:.1}%)")));
    };
    push("committing", buckets.committing);
    push("window_full", buckets.window_full);
    push("iq_full", buckets.iq_full);
    push("regfile_exhausted", buckets.regfile_exhausted);
    push("checkpoint_table_full", buckets.checkpoint_table_full);
    push("mshr_full", buckets.mshr_full);
    push("memory_wait", buckets.memory_wait);
    push("fetch_starved", buckets.fetch_starved);
    push("execute_wait", buckets.execute_wait);
    rows
}

/// The top-down cycle-accounting result as a rendered [`Report`], one row
/// per bucket plus the total (which equals the run's cycle count — every
/// cycle lands in exactly one bucket).
pub fn accounting_table(title: impl Into<String>, buckets: &CycleBuckets) -> Report {
    let mut report = Report::new(title, &["bucket", "cycles"]);
    for (name, value) in accounting_rows(buckets) {
        report.push_row(vec![name, value]);
    }
    report.push_row(vec!["total".to_string(), buckets.total().to_string()]);
    report.push_note("buckets partition the run: their sum equals total cycles exactly");
    report
}

/// Every public field of [`ServeStats`] — the job server's lifetime
/// counters — as `(name, formatted value)` rows. Anchored by the
/// `stats-coverage` lint rule exactly like [`stats_rows`]: a counter added
/// to the service cannot stay invisible in its report.
pub fn serve_rows(stats: &ServeStats) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, value: String| rows.push((name.to_string(), value));
    push("requests", stats.requests.to_string());
    push("ok", stats.ok.to_string());
    push("parse_errors", stats.parse_errors.to_string());
    push("bad_requests", stats.bad_requests.to_string());
    push("shed", stats.shed.to_string());
    push("cache_hits", stats.cache_hits.to_string());
    push("cache_misses", stats.cache_misses.to_string());
    let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;
    push("cache_hit_rate", format!("{:.3}", hit_rate));
    push("cache_quarantined", stats.cache_quarantined.to_string());
    push("timeouts", stats.timeouts.to_string());
    push("cancelled", stats.cancelled.to_string());
    push("worker_panics", stats.worker_panics.to_string());
    push("batches", stats.batches.to_string());
    push("batched_lanes", stats.batched_lanes.to_string());
    push("wall_ms", stats.wall_ms.to_string());
    push("requests_per_sec", format!("{:.2}", stats.requests_per_sec));
    push("p50_ms", format!("{:.1}", stats.p50_ms));
    push("p99_ms", format!("{:.1}", stats.p99_ms));
    rows
}

/// The job server's counters as a rendered [`Report`] — what the load
/// generator prints and what CI archives as the serve report.
pub fn serve_table(title: impl Into<String>, stats: &ServeStats) -> Report {
    let mut report = Report::new(title, &["stat", "value"]);
    for (name, value) in serve_rows(stats) {
        report.push_row(vec![name, value]);
    }
    report
        .push_note("every public ServeStats field has a row (enforced by koc-lint stats-coverage)");
    report.push_note(
        "wall-clock figures (requests/s, p50/p99) are host-dependent; counters are exact",
    );
    report
}

/// An interval time-series (see `koc_obs::TimelineRecorder`) as a rendered
/// [`Report`]: one row per interval with per-cycle rates derived from each
/// [`IntervalRecord`]'s sums, plus the interval's dominant stall bucket.
pub fn timeline_table(title: impl Into<String>, records: &[IntervalRecord]) -> Report {
    let mut report = Report::new(
        title,
        &[
            "start",
            "cycles",
            "IPC",
            "disp/cyc",
            "inflight",
            "live",
            "ckpts",
            "mshr",
            "replay",
            "top-stall",
        ],
    );
    for r in records {
        let per_cycle = |sum: u64| sum as f64 / r.cycles.max(1) as f64;
        let (top_name, top_cycles) = r
            .stall
            .named()
            .into_iter()
            .max_by_key(|&(_, v)| v)
            .unwrap_or(("-", 0));
        report.push_row(vec![
            r.start_cycle.to_string(),
            r.cycles.to_string(),
            format!("{:.3}", per_cycle(r.committed)),
            format!("{:.3}", per_cycle(r.dispatched)),
            format!("{:.1}", per_cycle(r.inflight_sum)),
            format!("{:.1}", per_cycle(r.live_sum)),
            format!("{:.2}", per_cycle(r.live_checkpoints_sum)),
            format!("{:.2}", per_cycle(r.mshr_sum)),
            format!("{:.1}", per_cycle(r.replay_window_sum)),
            if top_cycles == 0 {
                "-".to_string()
            } else {
                top_name.to_string()
            },
        ]);
    }
    report.push_note(
        "occupancy columns are interval means (sums / cycles); IPC is committed / cycles",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_notes() {
        let mut r = Report::new("Figure X", &["config", "IPC"]);
        r.push_row(vec!["baseline 128".into(), "0.41".into()]);
        r.push_row(vec!["COoO".into(), "1.25".into()]);
        r.push_note("higher is better");
        let text = r.render();
        assert!(text.contains("== Figure X =="));
        assert!(text.contains("baseline 128"));
        assert!(text.contains("note: higher is better"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn display_matches_render() {
        let r = Report::new("T", &["a"]);
        assert_eq!(r.to_string(), r.render());
    }

    #[test]
    fn stats_rows_cover_every_top_level_field_and_nested_group() {
        let rows = stats_rows(&SimStats::default());
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "cycles",
            "committed_instructions",
            "dispatched_instructions",
            "checkpoints_taken",
            "checkpoints_committed",
            "checkpoints_squashed",
            "sliq_moved",
            "sliq_high_water",
            "replay_window_peak",
            "budget_exhausted",
            "inflight.mean",
            "live.mean",
            "live_long.mean",
            "live_short.mean",
            "retire_breakdown.Moved",
            "branches.predicted",
            "branches.mispredicted",
            "recoveries.near_recoveries",
            "stalls.iq_full",
            "memory.prefetch_useful",
        ] {
            assert!(names.contains(&expected), "missing row {expected}");
        }
        // One row per value: no duplicates that could mask a missing field.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn accounting_rows_cover_every_bucket_and_sum_to_total() {
        let buckets = CycleBuckets {
            committing: 10,
            window_full: 2,
            iq_full: 3,
            regfile_exhausted: 1,
            checkpoint_table_full: 4,
            mshr_full: 5,
            memory_wait: 6,
            fetch_starved: 7,
            execute_wait: 8,
        };
        let rows = accounting_rows(&buckets);
        assert_eq!(rows.len(), 9, "one row per bucket");
        let table = accounting_table("Cycle accounting", &buckets).render();
        assert!(table.contains("committing"));
        assert!(table.contains("execute_wait"));
        assert!(table.contains("46"), "total row: {table}");
    }

    #[test]
    fn timeline_table_reports_interval_rates() {
        let mut r = IntervalRecord {
            start_cycle: 1,
            cycles: 100,
            committed: 50,
            dispatched: 60,
            inflight_sum: 1000,
            live_sum: 500,
            live_checkpoints_sum: 200,
            mshr_sum: 100,
            replay_window_sum: 3000,
            ..Default::default()
        };
        r.stall.memory_wait = 40;
        let text = timeline_table("Timeline", &[r]).render();
        assert!(text.contains("0.500"), "IPC column: {text}");
        assert!(text.contains("10.0"), "inflight mean: {text}");
        assert!(text.contains("memory_wait"), "dominant stall: {text}");
    }

    #[test]
    fn serve_rows_cover_every_serve_stat_field() {
        let stats = ServeStats {
            requests: 10,
            ok: 8,
            cache_hits: 4,
            cache_misses: 4,
            requests_per_sec: 12.5,
            ..ServeStats::default()
        };
        let rows = serve_rows(&stats);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "requests",
            "ok",
            "parse_errors",
            "bad_requests",
            "shed",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "cache_quarantined",
            "timeouts",
            "cancelled",
            "worker_panics",
            "batches",
            "batched_lanes",
            "wall_ms",
            "requests_per_sec",
            "p50_ms",
            "p99_ms",
        ] {
            assert!(names.contains(&expected), "missing row {expected}");
        }
        let text = serve_table("Serve report", &stats).render();
        assert!(text.contains("0.500"), "hit rate row: {text}");
        assert!(text.contains("12.50"), "requests/s row: {text}");
    }

    #[test]
    fn stats_table_renders_all_rows() {
        let stats = SimStats {
            cycles: 100,
            committed_instructions: 250,
            ..Default::default()
        };
        let table = stats_table("Run stats", &stats);
        let text = table.render();
        assert!(text.contains("== Run stats =="));
        assert!(text.contains("ipc"));
        assert!(text.contains("2.5000"));
        assert_eq!(table.rows.len(), stats_rows(&stats).len());
    }
}
