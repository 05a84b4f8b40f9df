//! Order statistics used for every reported number.
//!
//! All percentiles are nearest-rank on a sorted copy; `quartiles` follows
//! Python's `statistics.quantiles(values, n=4)` (the exclusive method), the
//! rule the pipeline applies to the ten-run spread, so `--selfcheck` prints
//! the same figure the pipeline will compute.

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] on an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (exclusive method: position `i * (n + 1) / 4`, linear interpolation).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Applies `stat` to each window's samples and returns the median of the
/// per-window results: one slow window (a scheduler hiccup, an fsync stall)
/// moves one of five inputs to the median instead of the reported figure.
/// Empty windows are skipped.
pub fn window_median(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let (q1, q3) = quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let windows = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 11.0, 12.0],
            vec![900.0, 950.0, 999.0], // the hiccup
            vec![10.0, 12.0, 14.0],
            vec![], // skipped, not counted as zero
        ];
        assert_eq!(window_median(&windows, |w| percentile(w, 0.5)), 11.5);
        assert_eq!(window_median(&[], |w| percentile(w, 0.5)), 0.0);
    }
}
