//! Simulation statistics: everything the paper's figures report.

use koc_core::RetireClass;
use koc_frontend::BranchStats;
use koc_mem::MemoryStats;
use serde::{Deserialize, Serialize};

/// A streaming distribution of per-cycle samples with percentile queries
/// (Figure 11's in-flight counts here; Figure 7's live-instruction
/// breakdown in the `koc-bench` observer that records it).
///
/// Stored as a histogram indexed by sample value — occupancy samples are
/// small integers bounded by the window size — so memory is O(max value)
/// instead of O(simulated cycles), recording is branch-light, and the
/// fast-forward path can record a run of identical cycles in O(1) via
/// [`record_n`](Distribution::record_n).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Distribution {
    /// `counts[v]` = number of samples with value `v`.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-cycle sample.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Records `n` consecutive samples of the same value (the fast-forward
    /// path records one per skipped cycle).
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += n;
        self.total += n;
        self.sum += value as u64 * n;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The maximum sample (0 if empty).
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// The `p`-th percentile (0.0–1.0) of the samples, 0 if empty.
    ///
    /// Defined as element `round((count - 1) * p)` of the sorted sample
    /// list, read off the histogram's cumulative counts.
    pub fn percentile(&self, p: f64) -> usize {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (value, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return value;
            }
        }
        self.max()
    }
}

/// Counters for the pseudo-ROB retirement breakdown (Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireBreakdown {
    counts: [u64; RetireClass::COUNT],
}

impl RetireBreakdown {
    /// Records one retirement of the given class.
    pub fn record(&mut self, class: RetireClass) {
        self.counts[class.index()] += 1;
    }

    /// Count for a class.
    pub fn count(&self, class: RetireClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total retirements recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of retirements in the given class (0 if none recorded).
    pub fn fraction(&self, class: RetireClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }
}

/// Recovery-event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Mispredicted branches recovered inside the pseudo-ROB (or via the ROB
    /// in the baseline): selective squash.
    pub near_recoveries: u64,
    /// Mispredicted branches recovered by rolling back to a checkpoint.
    pub checkpoint_rollbacks: u64,
    /// Exceptions taken (tests exercise these).
    pub exceptions: u64,
    /// Instructions squashed by all recovery events.
    pub squashed_instructions: u64,
    /// Instructions re-executed because of checkpoint rollbacks.
    pub reexecuted_instructions: u64,
}

/// Everything measured during one simulation run.
///
/// `SimStats` is `PartialEq` so determinism tests can assert bit-identical
/// results, and `Serialize` (the workspace serde stub emits real JSON) so
/// harnesses dump it without hand-formatting fields.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed (equals the trace length at the end of a run).
    pub committed_instructions: u64,
    /// Instructions dispatched (includes re-executions after rollbacks).
    pub dispatched_instructions: u64,
    /// Checkpoints taken (checkpointed engine only).
    pub checkpoints_taken: u64,
    /// Checkpoints committed.
    pub checkpoints_committed: u64,
    /// Checkpoints squashed by recovery (branch walkback that dropped a
    /// freshly taken checkpoint, or rollback past younger checkpoints).
    /// Invariant: `checkpoints_taken == checkpoints_committed +
    /// checkpoints_squashed` at the end of a run.
    pub checkpoints_squashed: u64,
    /// Instructions moved to the SLIQ.
    pub sliq_moved: u64,
    /// Peak SLIQ occupancy.
    pub sliq_high_water: usize,
    /// Per-cycle number of in-flight (dispatched, not committed) instructions.
    pub inflight: Distribution,
    /// Pseudo-ROB retirement breakdown (Figure 12).
    pub retire_breakdown: RetireBreakdown,
    /// Branch-prediction statistics.
    pub branches: BranchStats,
    /// Recovery statistics.
    pub recoveries: RecoveryStats,
    /// Memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// Dispatch stall cycles broken down by cause.
    pub stalls: StallStats,
    /// Peak occupancy of the fetch replay window: the most instructions the
    /// streaming ingestion path ever had to retain for possible rollback
    /// replay. Bounded by the in-flight window (checkpoint depth plus fetch
    /// lookahead), not by the stream length — the memory guarantee of the
    /// [`InstructionSource`](koc_isa::InstructionSource) API.
    pub replay_window_peak: usize,
    /// Whether the run stopped early because it hit a cycle budget
    /// ([`crate::Session`]'s `cycle_budget`) before the trace finished.
    pub budget_exhausted: bool,
}

/// Dispatch-stall cycle counters by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallStats {
    /// Stalled because the target instruction queue was full.
    pub iq_full: u64,
    /// Stalled because the ROB was full (baseline only).
    pub rob_full: u64,
    /// Stalled because the load/store queue was full.
    pub lsq_full: u64,
    /// Stalled because no physical register / virtual tag was available.
    pub regs_full: u64,
    /// Stalled waiting out a branch-misprediction redirect.
    pub redirect: u64,
    /// Stalled because the checkpoint store bound was hit with a full table.
    pub checkpoint_full: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.cycles as f64
        }
    }

    /// Average number of in-flight instructions (Figure 11).
    pub fn avg_inflight(&self) -> f64 {
        self.inflight.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_mean_and_percentiles() {
        let mut d = Distribution::new();
        for v in 1..=100 {
            d.record(v);
        }
        assert_eq!(d.count(), 100);
        assert!((d.mean() - 50.5).abs() < 1e-9);
        assert_eq!(d.percentile(0.0), 1);
        assert_eq!(d.percentile(1.0), 100);
        assert_eq!(d.percentile(0.5), 51);
        assert_eq!(d.max(), 100);
        assert!(d.percentile(0.10) < d.percentile(0.50));
        assert!(d.percentile(0.50) < d.percentile(0.90));
    }

    #[test]
    fn empty_distribution_is_zero() {
        let d = Distribution::new();
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.percentile(0.5), 0);
        assert_eq!(d.max(), 0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut bulk = Distribution::new();
        let mut single = Distribution::new();
        bulk.record_n(7, 120);
        bulk.record_n(3, 5);
        for _ in 0..120 {
            single.record(7);
        }
        for _ in 0..5 {
            single.record(3);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.count(), 125);
        assert_eq!(bulk.max(), 7);
        assert_eq!(bulk.percentile(0.0), 3);
        assert_eq!(bulk.percentile(1.0), 7);
    }

    #[test]
    fn stats_serialize_to_json_via_the_derive() {
        let stats = SimStats {
            cycles: 200,
            committed_instructions: 500,
            ..Default::default()
        };
        let json = serde::Serialize::to_json(&stats);
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"cycles\":200"), "{json}");
        assert!(json.contains("\"committed_instructions\":500"), "{json}");
        assert!(json.contains("\"memory\":{"), "{json}");
    }

    #[test]
    fn retire_breakdown_fractions_sum_to_one() {
        let mut b = RetireBreakdown::default();
        b.record(RetireClass::Moved);
        b.record(RetireClass::Moved);
        b.record(RetireClass::Finished);
        b.record(RetireClass::Store);
        assert_eq!(b.total(), 4);
        assert!((b.fraction(RetireClass::Moved) - 0.5).abs() < 1e-12);
        let sum: f64 = RetireClass::all().iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ipc_divides_committed_by_cycles() {
        let stats = SimStats {
            cycles: 200,
            committed_instructions: 500,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }
}
