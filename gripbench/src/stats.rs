//! Percentiles and sample summaries.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it. `p` in
/// `[0, 1]`; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// p50 and p99 of a set of samples, with the count they rest on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spread {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(samples: &[f64]) -> Spread {
        let s = sorted(samples.to_vec());
        Spread {
            p50: percentile(&s, 0.50),
            p99: percentile(&s, 0.99),
            n: s.len(),
        }
    }
}

/// The interquartile mean: the mean of the middle half of the samples,
/// a quarter dropped from each end. Robust to a minority of outliers,
/// yet it moves in finer steps than a median of coarse samples.
pub fn middle_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let cut = s.len() / 4;
    let middle = &s[cut..s.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The index of the `window`-long slice of a phase that the offset `at`
/// into the phase falls in.
pub fn slice_of(at: Duration, window: Duration) -> usize {
    (at.as_secs_f64() / window.as_secs_f64()) as usize
}

/// The [`middle_mean`], over consecutive `window`-long slices of a
/// phase, of each slice's p50: `samples` are (offset into the phase,
/// value). A slow spell of the host that covers a minority of the slices
/// does not move it, where it would shift the p50 of the pooled samples.
pub fn windowed_p50(samples: &[(Duration, f64)], window: Duration) -> f64 {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let k = slice_of(at, window);
        if slices.len() <= k {
            slices.resize_with(k + 1, Vec::new);
        }
        slices[k].push(v);
    }
    let p50s: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    middle_mean(&p50s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn spread_counts_samples() {
        let s = Spread::of(&[2.0, 1.0, 4.0, 3.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
    }

    #[test]
    fn middle_mean_drops_a_quarter_from_each_end() {
        assert_eq!(
            middle_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]),
            3.5
        );
        assert_eq!(middle_mean(&[7.0]), 7.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn windowed_p50_ignores_a_minority_of_slow_slices() {
        let ms = Duration::from_millis;
        // Four 10 ms slices: three fast (p50 1, 2 and 2), one slow.
        let mut samples = vec![(ms(1), 1.0), (ms(2), 1.0), (ms(3), 5.0)];
        samples.extend([(ms(11), 2.0), (ms(12), 2.0), (ms(13), 2.0)]);
        samples.extend([(ms(21), 2.0), (ms(22), 2.0), (ms(23), 2.0)]);
        samples.extend([(ms(31), 100.0), (ms(32), 100.0), (ms(33), 100.0)]);
        assert_eq!(windowed_p50(&samples, ms(10)), 2.0);
        assert_eq!(windowed_p50(&[], ms(10)), 0.0);
    }
}
