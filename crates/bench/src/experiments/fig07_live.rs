//! Figure 7 — distribution of live (not yet issued) instructions with respect
//! to the number of in-flight instructions, on a 2048-entry machine with
//! 500-cycle memory.
//!
//! The live/blocked-long/blocked-short breakdown is recorded by the
//! [`LiveBreakdown`] observer, which this experiment attaches to each of its
//! runs; unobserved runs pay nothing for it.

use crate::Report;
use koc_isa::{InstId, Trace, NUM_ARCH_REGS};
use koc_obs::{CycleSample, Event, Observer};
use koc_sim::{Distribution, SimBuilder, Suite};
use std::collections::VecDeque;

/// The percentiles Figure 7 reports.
pub const PERCENTILES: &[(&str, f64)] = &[
    ("10%", 0.10),
    ("25%", 0.25),
    ("50%", 0.50),
    ("75%", 0.75),
    ("90%", 0.90),
];

/// Interval (in cycles) at which the blocked-long/blocked-short walk runs.
const SAMPLE_INTERVAL: u64 = 32;

/// What the observer knows about one trace position of its in-flight band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not in flight (committed, squashed, or not yet dispatched).
    Vacant,
    /// Dispatched, not yet issued.
    Live,
    /// An issued load serviced by main memory that has not completed.
    LongLoad,
    /// Issued (executing a short-latency operation) or completed.
    Issued,
}

/// Observer recording Figure 7's per-cycle live-instruction distribution
/// and its split into instructions blocked on long-latency loads and
/// instructions waiting on short-latency work.
///
/// It mirrors the in-flight window from the Dispatch/Issue/Complete/
/// Commit/Squash events and reads registers from the run's trace. Every
/// 32nd cycle it walks the window in trace order: a live instruction is
/// blocked-long if it reads a register whose in-flight producer is an
/// outstanding main-memory load or is itself blocked-long; every other
/// live instruction is blocked-short.
#[derive(Debug, Clone)]
pub struct LiveBreakdown<'t> {
    trace: &'t Trace,
    /// Trace position of `band[0]`.
    base: InstId,
    band: VecDeque<Slot>,
    /// Per-cycle live (dispatched, not yet issued) instructions.
    pub live: Distribution,
    /// Live instructions blocked on long-latency loads, every 32nd cycle.
    pub blocked_long: Distribution,
    /// Live instructions waiting on short-latency work, every 32nd cycle.
    pub blocked_short: Distribution,
}

impl<'t> LiveBreakdown<'t> {
    /// An observer for a run over `trace`.
    pub fn new(trace: &'t Trace) -> Self {
        LiveBreakdown {
            trace,
            base: 0,
            band: VecDeque::new(),
            live: Distribution::new(),
            blocked_long: Distribution::new(),
            blocked_short: Distribution::new(),
        }
    }

    fn dispatch(&mut self, inst: InstId) {
        if self.band.is_empty() {
            self.base = inst;
        }
        if inst < self.base {
            // Re-dispatch below the band after a rollback: grow the front.
            for _ in inst..self.base {
                self.band.push_front(Slot::Vacant);
            }
            self.base = inst;
        }
        let i = inst - self.base;
        if i >= self.band.len() {
            self.band.resize(i + 1, Slot::Vacant);
        }
        self.band[i] = Slot::Live;
    }

    fn set(&mut self, inst: InstId, slot: Slot) {
        if let Some(s) = inst
            .checked_sub(self.base)
            .and_then(|i| self.band.get_mut(i))
        {
            *s = slot;
        }
    }

    fn vacate(&mut self, inst: InstId) {
        self.set(inst, Slot::Vacant);
        while self.band.front() == Some(&Slot::Vacant) {
            self.band.pop_front();
            self.base += 1;
        }
        while self.band.back() == Some(&Slot::Vacant) {
            self.band.pop_back();
        }
    }

    /// Splits the live instructions into `(blocked_long, blocked_short)`.
    /// One pass in trace order suffices: a producer always precedes its
    /// consumers, and each in-flight writer of a register overwrites its
    /// mark, exactly as renaming would.
    fn breakdown(&self) -> (usize, usize) {
        let mut marked = [false; NUM_ARCH_REGS];
        let mut long = 0;
        let mut short = 0;
        for (inst, &slot) in (self.base..).zip(&self.band) {
            let i = &self.trace[inst];
            let blocked = match slot {
                Slot::Vacant => continue,
                Slot::LongLoad => true,
                Slot::Issued => false,
                Slot::Live => {
                    let blocked = i.sources().any(|r| marked[r.flat_index()]);
                    if blocked {
                        long += 1;
                    } else {
                        short += 1;
                    }
                    blocked
                }
            };
            if let Some(d) = i.dest {
                marked[d.flat_index()] = blocked;
            }
        }
        (long, short)
    }

    /// Records the breakdown `n` times (the window is frozen across a
    /// fast-forwarded gap, so every sample point in it sees the same one).
    fn record_breakdown(&mut self, s: &CycleSample, n: u64) {
        let (long, short) = self.breakdown();
        debug_assert_eq!(long + short, s.live, "event-tracked live count drifted");
        self.blocked_long.record_n(long, n);
        self.blocked_short.record_n(short, n);
    }
}

impl Observer for LiveBreakdown<'_> {
    fn event(&mut self, _cycle: u64, ev: Event) {
        match ev {
            Event::Dispatch { inst, .. } => self.dispatch(inst),
            Event::Issue { inst, long } => {
                self.set(inst, if long { Slot::LongLoad } else { Slot::Issued })
            }
            Event::Complete { inst } => self.set(inst, Slot::Issued),
            Event::Commit { inst } | Event::Squash { inst } => self.vacate(inst),
            _ => {}
        }
    }

    fn sample(&mut self, s: &CycleSample) {
        self.live.record(s.live);
        if s.cycle.is_multiple_of(SAMPLE_INTERVAL) {
            self.record_breakdown(s, 1);
        }
    }

    fn skip(&mut self, s: &CycleSample, n: u64) {
        self.live.record_n(s.live, n);
        // Sample points among cycles `s.cycle ..= s.cycle + n - 1`.
        let points = (s.cycle + n - 1) / SAMPLE_INTERVAL - (s.cycle - 1) / SAMPLE_INTERVAL;
        if points > 0 {
            self.record_breakdown(s, points);
        }
    }
}

/// Runs the Figure 7 measurement.
pub fn run(trace_len: usize) -> Report {
    let session = SimBuilder::baseline(2048)
        .memory_latency(500)
        .workloads(Suite::paper())
        .trace_len(trace_len)
        .build();
    let workloads = session.workloads();
    let runs: Vec<_> = workloads
        .iter()
        .map(|w| session.run_one(&w.trace, LiveBreakdown::new(&w.trace)))
        .collect();
    let mut report = Report::new(
        "Figure 7 — live instructions vs in-flight instructions (2048-entry window, 500-cycle memory)",
        &["percentile", "in-flight", "live", "blocked-long", "blocked-short"],
    );

    // Average the per-workload distributions, mirroring the paper's averaging
    // over SPEC2000fp.
    let columns: Vec<[&Distribution; 4]> = runs
        .iter()
        .map(|(stats, obs)| {
            [
                &stats.inflight,
                &obs.live,
                &obs.blocked_long,
                &obs.blocked_short,
            ]
        })
        .collect();
    for &(label, p) in PERCENTILES {
        let mut row = vec![label.to_string()];
        for k in 0..4 {
            let sum: f64 = columns.iter().map(|c| c[k].percentile(p) as f64).sum();
            row.push(format!("{:.0}", sum / columns.len() as f64));
        }
        report.push_row(row);
    }
    report.push_note(
        "paper shape: live instructions are a small fraction of in-flight instructions \
         (~70-75% of in-flight instructions have executed but cannot commit), and most live \
         instructions are blocked on long-latency loads",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_isa::{ArchReg, TraceBuilder};
    use koc_obs::CycleBucket;

    fn sample(cycle: u64, live: usize) -> CycleSample {
        CycleSample {
            cycle,
            committed: 0,
            dispatched: 0,
            inflight: 0,
            live,
            live_checkpoints: 0,
            mshr_inflight: 0,
            pending_misses: 0,
            replay_window: 0,
            bucket: CycleBucket::ExecuteWait,
        }
    }

    #[test]
    fn blocked_long_follows_the_dependence_chain_of_a_missing_load() {
        // 0: F0 <- load (main memory); 1: F1 <- F0; 2: F2 <- F1 (a two-deep
        // chain on the miss); 3: R2 <- independent ALU op.
        let mut b = TraceBuilder::named("fig7-hand");
        b.load(ArchReg::fp(0), ArchReg::int(1), 0x100_0000);
        b.fp_alu(ArchReg::fp(1), &[ArchReg::fp(0)]);
        b.fp_alu(ArchReg::fp(2), &[ArchReg::fp(1)]);
        b.int_alu(ArchReg::int(2), &[]);
        let trace = b.finish();
        let mut obs = LiveBreakdown::new(&trace);
        for inst in 0..4 {
            obs.event(1, Event::Dispatch { inst, ckpt: 0 });
        }
        obs.event(
            2,
            Event::Issue {
                inst: 0,
                long: true,
            },
        );
        obs.sample(&sample(32, 3));
        assert_eq!(
            obs.blocked_long.max(),
            2,
            "both chain links wait on the miss"
        );
        assert_eq!(obs.blocked_short.max(), 1, "the independent op does not");

        // Once the load completes nothing is blocked-long; a gap crossing
        // two sample points records that breakdown twice.
        obs.event(40, Event::Complete { inst: 0 });
        obs.skip(&sample(41, 3), 60);
        assert_eq!(obs.blocked_long.count(), 3);
        assert_eq!(obs.blocked_long.percentile(0.0), 0);
        assert_eq!(obs.blocked_short.percentile(1.0), 3);
        assert_eq!(obs.live.count(), 61);

        // Commit drains the band.
        for inst in 0..4 {
            obs.event(120, Event::Commit { inst });
        }
        assert!(obs.band.is_empty());
    }

    #[test]
    fn reports_one_row_per_percentile() {
        let r = run(1_200);
        let expected = [
            ["10%", "164", "60", "70", "0"],
            ["25%", "410", "154", "111", "1"],
            ["50%", "822", "308", "299", "8"],
            ["75%", "1233", "454", "455", "47"],
            ["90%", "1278", "478", "471", "69"],
        ];
        assert_eq!(r.rows, expected.map(|row| row.map(String::from).to_vec()));
    }
}
