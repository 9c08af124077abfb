//! Order statistics and throughput over a run's per-sort samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two nearest order statistics.  NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (NaN for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples lie strictly beyond the `q`-quantile position: the
/// count that decides whether a percentile may be reported (ten, by the
/// benchmark's rule).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let last = n.saturating_sub(1);
    last - (q.clamp(0.0, 1.0) * last as f64).floor() as usize
}

/// `units` of work per second given each operation's seconds: work ×
/// operations ÷ Σ seconds, so a slow operation weighs by its duration.
pub fn throughput(units_per_op: f64, seconds: &[f64]) -> f64 {
    units_per_op * seconds.len() as f64 / seconds.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn forty_samples_leave_ten_beyond_p75() {
        // The p75 of 40 samples sits at position 29.25; samples 30..=39 lie
        // beyond it.
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(40, 0.5), 20);
        assert_eq!(samples_beyond(3, 0.75), 1);
        assert_eq!(samples_beyond(0, 0.75), 0);
    }

    #[test]
    fn throughput_weighs_by_duration() {
        // Two sorts of 10 records taking 1 s and 3 s: 20 records in 4 s.
        assert_eq!(throughput(10.0, &[1.0, 3.0]), 5.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
