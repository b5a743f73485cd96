//! Sample statistics and failure accounting shared by every workload.

use matelda_core::DetectionResult;
use matelda_serve::{DetectOutcome, Response};

/// Median of `xs` (the mean of the two middle samples for an even
/// count); `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `xs`, returned only when at least
/// `min_beyond` samples rank strictly above it, so that the tail the
/// percentile claims to bound is itself measured.
pub fn percentile_with_tail(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < min_beyond {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` carries why it failed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                self.reasons.push(why);
                None
            }
        }
    }

    /// A correctness check outside any timed operation: a failed check
    /// counts as one more operation, failed; a passing one adds nothing.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.record::<()>(Err(what()));
        }
    }

    /// Failed operations divided by operations attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Judges one in-process detection: it fails when it quarantined or
/// degraded anything, or when its digest differs from `expected`.
pub fn judge_result(r: &DetectionResult, expected: Option<u64>) -> Result<u64, String> {
    if !r.quarantine.is_empty() {
        return Err(format!("run quarantined {:?}", r.quarantine));
    }
    if r.durability_degraded {
        return Err("run degraded its durability".into());
    }
    judge_digest(r.digest(), expected)
}

/// Judges one served response: anything but a clean `Result` whose
/// digest equals `expected` (when given) is a failed request.
pub fn judge_response(
    resp: &std::io::Result<Response>,
    expected: Option<u64>,
) -> Result<DetectOutcome, String> {
    match resp {
        Err(e) => Err(format!("transport error: {e}")),
        Ok(Response::Result(o)) if o.degraded => Err("response degraded".into()),
        Ok(Response::Result(o)) if o.quarantined_tables > 0 => {
            Err(format!("{} tables quarantined", o.quarantined_tables))
        }
        Ok(Response::Result(o)) => judge_digest(o.digest, expected).map(|_| *o),
        Ok(Response::Busy { active, queued }) => {
            Err(format!("busy ({active} active, {queued} queued)"))
        }
        Ok(Response::ShuttingDown) => Err("daemon shutting down".into()),
        Ok(Response::Error { kind, message }) => Err(format!("error {kind:?}: {message}")),
        Ok(other) => Err(format!("unexpected response {other:?}")),
    }
}

fn judge_digest(digest: u64, expected: Option<u64>) -> Result<u64, String> {
    match expected {
        Some(want) if want != digest => {
            Err(format!("digest {digest:016x} differs from reference {want:016x}"))
        }
        _ => Ok(digest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_serve::ErrorKind;

    fn outcome(digest: u64) -> DetectOutcome {
        DetectOutcome {
            digest,
            labels_used: 2,
            n_domain_folds: 1,
            n_quality_folds: 2,
            flagged: 3,
            quarantined_tables: 0,
            stages_run: 6,
            stages_restored: 0,
            cached: false,
            degraded: false,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(percentile_with_tail(&xs, 90.0, 10), Some(90.0));
        // With 99 samples the p90 rank is 90 and only nine lie beyond.
        assert_eq!(percentile_with_tail(&xs[..99], 90.0, 10), None);
        assert_eq!(percentile_with_tail(&xs[..99], 50.0, 10), Some(50.0));
        // Input order does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile_with_tail(&rev, 90.0, 10), Some(90.0));
        assert_eq!(percentile_with_tail(&[], 50.0, 0), None);
    }

    #[test]
    fn failed_share_counts_busy_and_digest_mismatch() {
        let mut tally = Tally::default();
        let cold = tally.record(judge_response(&Ok(Response::Result(outcome(7))), None));
        assert_eq!(cold.map(|o| o.digest), Some(7));
        tally.record(judge_response(&Ok(Response::Result(outcome(7))), Some(7)));
        tally.record(judge_response(&Ok(Response::Result(outcome(8))), Some(7)));
        tally.record(judge_response(&Ok(Response::Busy { active: 2, queued: 8 }), Some(7)));
        tally.record(judge_response(&Ok(Response::ShuttingDown), Some(7)));
        tally.record(judge_response(
            &Ok(Response::Error { kind: ErrorKind::Faulted, message: "boom".into() }),
            Some(7),
        ));
        let degraded = DetectOutcome { degraded: true, ..outcome(7) };
        tally.record(judge_response(&Ok(Response::Result(degraded)), Some(7)));
        let quarantined = DetectOutcome { quarantined_tables: 1, ..outcome(7) };
        tally.record(judge_response(&Ok(Response::Result(quarantined)), Some(7)));
        tally.check(true, || unreachable!());
        tally.check(false, || "masks differ".into());
        assert_eq!(tally.attempted, 9);
        assert_eq!(tally.failed, 7);
        assert!((tally.failed_share() - 7.0 / 9.0).abs() < 1e-12);
        assert!(tally.reasons[0].contains("differs from reference"));
        assert!(tally.reasons[1].starts_with("busy"));
    }

    #[test]
    fn failed_share_of_nothing_is_zero() {
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
