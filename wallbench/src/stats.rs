//! Order statistics. Every timing the benchmark reports is a median
//! over windows of a per-window median or percentile, never a mean:
//! host drift on this class of machine is multiplicative and lasts
//! whole windows, so averaging inside a run cannot remove it.

/// The `p`-th percentile (`0.0..=1.0`) of samples in ascending order,
/// by nearest rank: the smallest sample with at least `p` of the
/// samples at or below it. Returns `NaN` for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile's
/// position: a percentile is only reported when at least ten samples
/// lie beyond it.
#[must_use]
pub fn samples_beyond(count: usize, p: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let rank = (p * count as f64).ceil() as usize;
    count - rank.clamp(1, count)
}

/// The median: the mean of the two middle samples for an even count.
/// Returns `NaN` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 100.0);
        assert_eq!(percentile_sorted(&v, 0.95), 190.0);
        assert_eq!(percentile_sorted(&v, 1.0), 200.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_lie_beyond_p95_of_two_hundred() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.95), 50);
        assert_eq!(samples_beyond(0, 0.95), 0);
        // The count matches the samples actually above the value.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile_sorted(&v, 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[45.2, 44.3, 42.5]), 44.3);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow window does not move the median of six.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 10.0, 3.0]), 10.0);
        assert!(median(&[]).is_nan());
    }
}
