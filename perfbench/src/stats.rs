//! The benchmark's own arithmetic: exact percentiles from samples,
//! medians of repeated measurements, and failure accounting.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples. `q` is clamped to `0.0..=1.0`; `q = 0` yields
/// the minimum.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty. NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Operations attempted and failed in one run. An operation (a query or
/// an ingest batch) fails when it is rejected by the service or when its
/// answer does not match the reference; one that is both still counts
/// once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that got a `Rejected` (or an error) instead of an answer.
    pub rejected: u64,
    /// Operations whose answer differed from the reference.
    pub mismatched: u64,
    /// Operations that failed for either reason.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, rejected: bool, mismatched: bool) {
        self.attempted += 1;
        self.rejected += u64::from(rejected);
        self.mismatched += u64::from(mismatched);
        self.failed += u64::from(rejected || mismatched);
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.mismatched += other.mismatched;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted (0 when none were).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
