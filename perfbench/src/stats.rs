//! Order statistics for latency samples and run-level summaries.

use std::collections::HashMap;

/// The fewest samples that must lie strictly above a reported
/// percentile, so that the percentile is not set by a handful of runs.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule:
/// the smallest value with at least `ceil(q * n)` samples at or below it.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples would lie above
/// the reported rank; a tail percentile needs `n >= MIN_BEYOND / (1 - q)`
/// samples (200 for the 95th).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle pair for even
/// sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Throughput and latency quantiles of a timed phase: `(per second,
/// median ms, 95th percentile ms)`.
pub type Summary = (f64, f64, f64);

/// Summarizes repeated solves of a pool: each instance's time is the
/// fastest of its repeats. The host this runs on is shared, and its speed
/// drifts by a fifth or more over seconds to minutes; the repeats of an
/// instance lie a whole pass over the pool apart, so the fastest one is
/// the solve least slowed by load outside the benchmark. Throughput is
/// instances per second of those times. `None` when the 95th percentile
/// lacks [`MIN_BEYOND`] instances beyond it.
pub fn per_instance(times_ms: &[Vec<f64>]) -> Option<Summary> {
    let fastest: Vec<f64> = times_ms
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let p95 = percentile(&fastest, 0.95)?;
    let total_s: f64 = fastest.iter().sum::<f64>() / 1e3;
    Some((fastest.len() as f64 / total_s, median(&fastest), p95))
}

/// One closed-loop request: completion time in s since its epoch's
/// phase began, latency in ms, and a key that names the same request in
/// every epoch.
pub type Sample = (f64, f64, u64);

/// Summarizes a closed loop run in epochs, each given as its samples and
/// the seconds it ran. Throughput is the median over the epochs of each
/// epoch's completions per second. Latency quantiles are taken over all
/// requests, each counted at its key's fastest latency in any epoch, for
/// the reason given at [`per_instance`]. `None` when the 95th percentile
/// lacks [`MIN_BEYOND`] samples beyond it.
pub fn closed_loop(epochs: &[(Vec<Sample>, f64)]) -> Option<Summary> {
    let mut fastest: HashMap<u64, f64> = HashMap::new();
    for &(_, ms, key) in epochs.iter().flat_map(|(samples, _)| samples) {
        let f = fastest.entry(key).or_insert(ms);
        *f = f.min(ms);
    }
    let latencies: Vec<f64> = epochs
        .iter()
        .flat_map(|(samples, _)| samples.iter().map(|(_, _, key)| fastest[key]))
        .collect();
    let p95 = percentile(&latencies, 0.95)?;
    let rates: Vec<f64> = epochs
        .iter()
        .map(|(samples, secs)| samples.len() as f64 / secs)
        .collect();
    Some((median(&rates), median(&latencies), p95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 0.95).expect("200 samples suffice");
        assert_eq!(p95, 190.0);
        let beyond = samples.iter().filter(|&&s| s > p95).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} samples beyond p95");
    }

    #[test]
    fn p95_refuses_small_samples() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), None);
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..400).map(|i| f64::from((i * 37) % 400)).collect();
        let shuffled = percentile(&samples, 0.5);
        samples.sort_by(f64::total_cmp);
        assert_eq!(shuffled, percentile(&samples, 0.5));
        assert_eq!(shuffled, Some(199.0));
    }

    #[test]
    fn per_instance_takes_the_fastest_repeat() {
        // 400 instances of 1 ms, each with one repeat slowed tenfold.
        let times: Vec<Vec<f64>> = (0..400).map(|_| vec![1.0, 10.0, 1.5]).collect();
        let (rate, p50, p95) = per_instance(&times).unwrap();
        assert_eq!((rate, p50, p95), (1000.0, 1.0, 1.0));
        assert_eq!(per_instance(&times[..100]), None);
    }

    #[test]
    fn closed_loop_rate_is_the_median_epoch() {
        let epoch = |n: u64, secs: f64| {
            let samples: Vec<Sample> = (0..n).map(|k| (k as f64 / n as f64, 1.0, k)).collect();
            (samples, secs)
        };
        let epochs = [epoch(300, 1.0), epoch(250, 0.5), epoch(600, 2.5)];
        assert_eq!(closed_loop(&epochs), Some((300.0, 1.0, 1.0)));
        assert_eq!(closed_loop(&[epoch(100, 1.0)]), None);
    }

    #[test]
    fn closed_loop_counts_each_request_at_its_fastest_epoch() {
        // The same 400 requests in two epochs: outside load slowed the
        // first 200 in the first epoch and the rest in the second.
        let epoch = |slow: std::ops::Range<u64>| {
            let samples: Vec<Sample> = (0..400u64)
                .map(|k| {
                    (
                        k as f64 / 400.0,
                        if slow.contains(&k) { 9.0 } else { 3.0 },
                        k,
                    )
                })
                .collect();
            (samples, 1.0)
        };
        let epochs = vec![epoch(0..200), epoch(200..400)];
        assert_eq!(closed_loop(&epochs), Some((400.0, 3.0, 3.0)));
        // Requests of one epoch only keep their own latencies.
        assert_eq!(closed_loop(&epochs[..1]), Some((400.0, 6.0, 9.0)));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
