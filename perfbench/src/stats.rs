//! Summary statistics shared by every workload.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it. `None` for an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark's bounds are set against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// Ascending copy; NaN sorts last instead of panicking.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), Some(5.0));
        assert_eq!(percentile(&data, 0.9), Some(9.0));
        assert_eq!(percentile(&data, 0.99), Some(10.0));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 3, 7, 15, 31], n=4) == [2.0, 7.0, 23.0]
        assert_eq!(
            quartiles(&[31.0, 1.0, 15.0, 3.0, 7.0]),
            Some([2.0, 7.0, 23.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&data), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
    }
}
