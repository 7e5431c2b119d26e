//! Order statistics and the open-loop arrival schedule.

use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::{Rng, SeedableRng};

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// The percentiles a timing may be reported at, lowest first.
const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics (the same rule as `statistics.quantiles(...,
/// method="inclusive")`). NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values` (NaN for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile of the ladder that has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9)
}

/// Due send times, in seconds from the start of the window, of a Poisson
/// process of `rate` jobs/s over `seconds`, conditioned on its expected
/// count: `round(rate · seconds)` arrival times drawn uniformly and sorted.
/// Given its count, a Poisson process's arrivals are exactly such order
/// statistics, so the gaps keep their exponential burstiness while every
/// run offers the same number of jobs.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(39), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn poisson_schedule_is_determined_by_its_seed() {
        let a = poisson_schedule(0.75, 30.0, 7);
        assert_eq!(a, poisson_schedule(0.75, 30.0, 7));
        assert_ne!(a, poisson_schedule(0.75, 30.0, 8));
        assert_eq!(a.len(), 23);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..30.0).contains(&t)));
    }

    #[test]
    fn poisson_schedule_gaps_are_exponential_at_the_rate() {
        // Over many arrivals the mean gap approaches 1/rate and the gaps'
        // coefficient of variation approaches 1, as for exponential gaps.
        let due = poisson_schedule(0.75, 40_000.0, 3);
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / 0.75).abs() < 0.05, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }
}
