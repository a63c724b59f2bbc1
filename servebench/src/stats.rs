//! Order statistics used by every reported timing.

/// The most samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail percentile a timing is reported at when the sample is large
/// enough: p99.
pub const TAIL_Q: f64 = 0.99;

/// A tail percentile as reported: the quantile actually used, its value
/// and the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The quantile reported (at most [`TAIL_Q`]).
    pub q: f64,
    /// The sample at that quantile.
    pub value: f64,
    /// Samples the quantile was taken over.
    pub count: usize,
}

/// The reported-percentile rule: the highest percentile up to p99 that
/// still has at least [`TAIL_SAMPLES_BEYOND`] samples beyond it. With
/// fewer than `TAIL_SAMPLES_BEYOND + 1` samples no percentile qualifies and
/// the median is reported instead. `None` for an empty sample.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = if n > TAIL_SAMPLES_BEYOND {
        // Nearest-rank p99, pulled down until ten samples lie beyond it.
        let p99 = ((TAIL_Q * n as f64).ceil() as usize).clamp(1, n) - 1;
        p99.min(n - 1 - TAIL_SAMPLES_BEYOND)
    } else {
        (n - 1) / 2
    };
    let q = if n > TAIL_SAMPLES_BEYOND {
        (idx + 1) as f64 / n as f64
    } else {
        0.5
    };
    Some(Tail {
        q: q.min(TAIL_Q),
        value: sorted[idx],
        count: n,
    })
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_when_a_thousand_samples_support_it() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.count, 2000);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 1980.0);
        // Exactly twenty samples lie beyond the p99 of 2000.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 20);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_samples() {
        for n in [11usize, 12, 50, 200, 999, 1000, 1001] {
            let xs: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let t = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_SAMPLES_BEYOND, "n = {n}: {beyond} beyond");
            assert!(t.q <= TAIL_Q, "n = {n}");
            // The highest such percentile: one rank higher would leave
            // fewer than ten beyond, or exceed p99.
            let p99_rank = (TAIL_Q * n as f64).ceil() as usize;
            assert!(
                beyond == TAIL_SAMPLES_BEYOND || n - beyond == p99_rank,
                "n = {n}"
            );
        }
        // 200 samples: p95 is the highest with ten beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.q, t.count), (190.0, 0.95, 200));
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        assert_eq!(tail(&[]), None);
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.q, t.value, t.count), (0.5, 2.0, 3));
        let t = tail(&[5.0; 10]).unwrap();
        assert_eq!((t.q, t.count), (0.5, 10));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
