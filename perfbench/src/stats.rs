//! Order statistics for latency samples.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The quantile reported as the tail (`latency_p90_ms`): 0.9 when at
/// least [`TAIL_BEYOND`] samples lie beyond it (`n >= 100`), otherwise
/// the highest quantile that still leaves that many beyond it, and never
/// below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 10 * TAIL_BEYOND {
        0.9
    } else {
        (n.saturating_sub(TAIL_BEYOND) as f64 / n.max(1) as f64).max(0.5)
    }
}

/// Nearest-rank quantile of unsorted samples: the smallest sample with at
/// least `q` of the samples at or below it. `NaN` on no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n >= 1` samples (the small
/// slack keeps `(n - 10) / n * n` from rounding up past `n - 10`).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples lie strictly above the `q` quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [20, 21, 37, 99, 100, 101, 1000, 16_000] {
            let q = tail_quantile(n);
            assert!(beyond(n, q) >= TAIL_BEYOND, "n={n} q={q}");
            if n >= 100 {
                assert_eq!(q, 0.9);
            } else {
                assert_eq!(beyond(n, q), TAIL_BEYOND, "n={n}: highest such quantile");
            }
        }
        for n in [1, 5, 12, 19] {
            assert_eq!(tail_quantile(n), 0.5, "n={n}: too few samples, the median");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(beyond(100, 0.9), 10);
    }
}
