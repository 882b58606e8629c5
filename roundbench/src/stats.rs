//! Order statistics for the reported timings.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon absorbs binary rounding (`p * n / 100` is exact in decimal).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of `ladder` that still has at least ten samples
/// beyond it, so a tail figure never rests on a handful of outliers.
pub fn tail_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= 10)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn beyond_counts() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(samples_beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let ladder = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(tail_percentile(19, &ladder), None);
        assert_eq!(tail_percentile(20, &ladder), Some(50.0));
        assert_eq!(tail_percentile(99, &ladder), Some(50.0));
        assert_eq!(tail_percentile(100, &ladder), Some(90.0));
        assert_eq!(tail_percentile(999, &ladder), Some(90.0));
        assert_eq!(tail_percentile(1000, &ladder), Some(99.0));
        assert_eq!(tail_percentile(10_000, &ladder), Some(99.9));
        // Ladder order does not matter.
        assert_eq!(tail_percentile(1000, &[99.0, 50.0, 90.0]), Some(99.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
