//! Order statistics for every reported timing, and the failure tally behind
//! `error_rate`.

/// The median of `values` (the mean of the two middle values for an even
/// count), or `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The time of a run made robust to short bursts of host noise:
/// `trials[t][i]` is the time of slice `i` in trial `t`, and the result is
/// the sum over slices of each slice's median across trials. `None` when
/// there are no trials or their slice counts differ.
pub fn sum_of_slice_medians(trials: &[Vec<f64>]) -> Option<f64> {
    let n = trials.first()?.len();
    if trials.iter().any(|t| t.len() != n) {
        return None;
    }
    (0..n)
        .map(|i| median(&trials.iter().map(|t| t[i]).collect::<Vec<_>>()))
        .sum()
}

/// The three quartile cut points of `values` by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)`), so spreads printed here
/// match the ones computed over repeated benchmark runs. `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative when `j` was clamped up: extrapolates, as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when there are enough samples).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie beyond it (at least [`MIN_BEYOND`] unless
    /// `samples` is too small for any percentile to have that many).
    pub beyond: usize,
}

/// The fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `target` percentile (nearest rank) of `values`, lowered to the
/// highest percentile that still has [`MIN_BEYOND`] samples beyond it. With
/// [`MIN_BEYOND`] or fewer samples no percentile qualifies and the maximum
/// is returned, with `beyond == 0` saying so. `None` for no values.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let nearest = ((target / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = if n > MIN_BEYOND {
        nearest.min(n - 1 - MIN_BEYOND)
    } else {
        n - 1
    };
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: v[rank],
        samples: n,
        beyond: n - 1 - rank,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Counts attempted operations and the failures among them: failed output
/// checks, serve errors, sheds and retried submits. `error_rate` is
/// `failed / attempted`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (each check and each serve job is one).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked operation; a false `ok` is a failure named by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted (a
    /// retry or a shed inside a serve job).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records `n` attempted operations that carry no check of their own.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
