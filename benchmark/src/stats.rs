//! Order statistics the benchmark reports. Everything here is exact on
//! the samples given — no interpolation surprises between this file and
//! the README's definitions.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks (numpy's default). Panics on an empty slice: a
/// statistic without samples is a harness bug, not a value.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// [`percentile`], or 0 when there is nothing to take it of: a block in
/// which nothing was served, or an event no request produced. (A run with
/// nothing served is already marked incorrect; the zero only keeps the
/// report printable.)
pub fn percentile_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, q)
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Coefficient of variation (population standard deviation / mean).
pub fn cv(samples: &[f64]) -> f64 {
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt() / m
}

/// The end-to-end reporting rule: compute `stat` inside every measured
/// block, report the median over blocks. A slow stretch of host time then
/// spoils one block's value, not the run's.
pub fn median_of_blocks<T>(blocks: &[T], stat: impl Fn(&T) -> f64) -> f64 {
    median(&blocks.iter().map(stat).collect::<Vec<_>>())
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: rank `i·(n+1)/4`, clamped to the data). The benchmark driver
/// judges run-to-run spread with that function, so `compare` must too.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_of_blocks_ignores_one_spoiled_block() {
        let blocks = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 10.0, 13.0],
            vec![90.0, 95.0, 99.0],
        ];
        // Per-block medians are 11, 10, 95 -> the run reports 11.
        assert_eq!(median_of_blocks(&blocks, |b| median(b)), 11.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) -> [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
