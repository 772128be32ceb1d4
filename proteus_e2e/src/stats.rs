//! Order statistics used for every reported timing.

/// Fewest samples for which a 95th percentile is reported: with 200 samples
/// ten lie beyond it, the least the benchmark accepts behind a tail number.
pub const P95_MIN_SAMPLES: usize = 200;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
pub fn percentile(ascending: &[f64], pct: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// The 95th percentile, or `None` when fewer than ten samples would lie
/// beyond it.
pub fn p95(ascending: &[f64]) -> Option<f64> {
    (ascending.len() >= P95_MIN_SAMPLES).then(|| percentile(ascending, 95.0))
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the rule the
/// acceptance check of this benchmark is written against.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of what is left after dropping the smallest and the largest value.
///
/// Used for the per-run set-up timings instead of their median: the host
/// runs at one of two speeds a quarter apart for seconds at a time, so the
/// timings of one run form two clusters, and a median jumps from one
/// cluster to the other when their shares cross a half. A mean moves with
/// the shares; trimming keeps one hiccup on either side out of it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(v.len() >= 3, "a trimmed mean needs at least three values");
    let kept = &v[1..v.len() - 1];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_refuses_fewer_than_200_samples() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&few), None);
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank: ten samples (191..=200) lie at or beyond 190.
        assert_eq!(p95(&enough), Some(190.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_either_end() {
        // The hiccup (90) and the smallest value go; the rest are averaged.
        assert_eq!(trimmed_mean(&[10.0, 90.0, 12.0, 14.0, 4.0]), 12.0);
        // Two clusters: it moves with their shares where a median would jump.
        assert_eq!(trimmed_mean(&[1.0, 1.0, 1.0, 2.0, 2.0]), 4.0 / 3.0);
        assert_eq!(trimmed_mean(&[1.0, 1.0, 2.0, 2.0, 2.0]), 5.0 / 3.0);
    }
}
