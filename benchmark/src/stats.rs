//! Order statistics and the regression rule the benchmark reports with.

/// Tail percentiles considered for a latency report, highest first, as
/// samples beyond the percentile per 10 000 (p99.99, p99.9, p99, p90).
const TAILS: [(f64, u64); 4] = [(99.99, 1), (99.9, 10), (99.0, 100), (90.0, 1000)];

/// The highest tail percentile that has at least ten of `n` samples beyond
/// it, or `None` when even p90 has fewer (report the median alone then).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&(_, beyond)| n as u64 * beyond >= 10 * 10_000)
        .map(|(p, _)| p)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0..=100); NaN for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median; NaN for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so reported spreads match an external check.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let d = sorted(values);
    let ld = d.len() as i64;
    if ld < 2 {
        let x = d.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Whether `candidate` is worse than `base` by more than `bound`, a share
/// of `base` (the rule `BENCHMARK.json` bounds are enforced with).
pub fn regressed(base: f64, candidate: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => candidate > base * (1.0 + bound),
        Better::Higher => candidate < base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(1_200), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // A time may grow by the bound, not more.
        assert!(!regressed(10.0, 10.9, Better::Lower, 0.1));
        assert!(regressed(10.0, 11.1, Better::Lower, 0.1));
        assert!(!regressed(10.0, 5.0, Better::Lower, 0.1));
        // A throughput may drop by the bound, not more.
        assert!(!regressed(10.0, 9.1, Better::Higher, 0.1));
        assert!(regressed(10.0, 8.9, Better::Higher, 0.1));
        assert!(!regressed(10.0, 20.0, Better::Higher, 0.1));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
