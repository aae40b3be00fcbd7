//! Order statistics for the benchmark's timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread the benchmark prints is the
//! spread a reviewer recomputes from the run records.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives
/// them. `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |j: usize| {
        // Exclusive method: position j*(n+1)/4, 1-based, interpolated.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are compared against).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Each column's median across `rows` (columns past the shortest row
/// are dropped). With one row per pass and one column per request, this
/// is every request at its median latency across passes: a burst that
/// slows a few requests in one pass drops out.
pub fn column_medians(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..width)
        .map(|i| {
            let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            median(&column).unwrap_or(0.0)
        })
        .collect()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`. `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = nearest_rank(s.len(), p)?;
    Some(s[rank - 1])
}

/// The percentiles the benchmark considers for a latency tail, lowest
/// first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile on [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `n` samples, or `None` when even the median
/// has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| nearest_rank(n, p).is_some_and(|r| n - r >= 10))
}

/// Geometric mean; the identity 1.0 for an empty slice (the convention
/// the repository's harness uses for an empty group). Summed in sorted
/// order, so the result is bit-identical whatever the order of `xs`.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (sorted(xs).iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The tolerance keeps float error in p/100·n (e.g. 0.999 · 10000 =
    // 9990.000000000002) from bumping the rank by one.
    Some(((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data for tiny n.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn column_medians_drop_a_one_pass_burst() {
        let rows = vec![
            vec![1.0, 10.0, 100.0],
            vec![1.0, 50.0, 100.0],
            vec![3.0, 10.0, 100.0, 7.0],
        ];
        assert_eq!(column_medians(&rows), [1.0, 10.0, 100.0]);
        assert!(column_medians(&[]).is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // n = 20: the median is rank 10, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // p90 of 100 is rank 90 (10 beyond); p95 would leave 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // p99 of 1000 is rank 990 (10 beyond).
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn geomean_and_its_identity() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        let xs = [1.1, 0.7, 1.3, 0.9, 1.05];
        let ys = [1.05, 1.3, 0.9, 1.1, 0.7];
        assert_eq!(geomean(&xs).to_bits(), geomean(&ys).to_bits());
    }
}
