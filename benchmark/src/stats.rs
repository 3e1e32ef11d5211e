//! The one place percentiles and spreads are computed.
//!
//! Rule for timings (choosing-metrics guide): report the median and the
//! highest percentile that still has at least ten samples beyond it,
//! and state the sample count.

/// Samples a tail percentile must leave beyond itself.
const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two central samples for an even count, `0.0`
/// for no samples (a layer the workload never entered).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p` percent of the samples at or below it; `0.0` for no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest value over the mean: 1 when work is spread evenly.
pub fn imbalance(work: &[f64]) -> f64 {
    let mean = work.iter().sum::<f64>() / work.len() as f64;
    work.iter().copied().fold(0.0, f64::max) / mean
}

/// `(percentile, value)` of the highest percentile with at least ten
/// samples beyond it: the sample at rank `n − 10` of `n`. With fewer
/// than eleven samples no such percentile exists and the median is
/// returned as `(50, median)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (50.0, median(&v));
    }
    let rank = n - TAIL_BEYOND;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), so `stability.sh`
/// judges spreads exactly as the driver does. Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let q = |i: usize| {
        // Clamp first, then take the offset from the clamped index, as
        // CPython does: small samples extrapolate.
        let j = ((i * (ld + 1)) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_the_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert_eq!(percentile(&[], 10.0), 0.0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
        assert_eq!(imbalance(&[2.0, 2.0]), 1.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 200 samples: the 95th percentile is the highest allowed.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_eleven_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 5.5));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).1, 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[11.0, 1.0, 7.0, 2.0, 4.0]), (1.5, 9.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(relative_spread(&v), 1.0);
    }
}
