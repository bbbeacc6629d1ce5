//! Order statistics over timing samples.

/// Percentiles the tail report may choose from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` ∈ (0, 100] of `samples`: the smallest
/// sample with at least `q`% of the samples at or below it. `NaN` for no
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), q) - 1]
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 95.0.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its nearest rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`], up to `max_pct`, that has
/// at least [`MIN_BEYOND`] samples beyond it. `None` when even the median
/// has fewer (under 20 samples).
pub fn tail(samples: &[f64], max_pct: f64) -> Option<Tail> {
    let n = samples.len();
    TAIL_LADDER
        .iter()
        .filter(|&&p| p <= max_pct)
        .find_map(|&pct| {
            let beyond = n - rank(n, pct).min(n);
            (n > 0 && beyond >= MIN_BEYOND).then(|| Tail {
                pct,
                value: percentile(samples, pct),
                beyond,
                samples: n,
            })
        })
}

/// 1-based nearest rank of percentile `q` among `n` samples, in integer
/// per-mille arithmetic so that e.g. p99 of 1000 samples is exactly rank
/// 990.
fn rank(n: usize, q: f64) -> usize {
    let permille = (q * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000), 100.0).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // A cap stops the climb.
        assert_eq!(tail(&ramp(1000), 95.0).unwrap().pct, 95.0);
        // 999 samples: p99 leaves 9 beyond, so p95 is the highest allowed.
        let t = tail(&ramp(999), 100.0).unwrap();
        assert_eq!((t.pct, t.beyond, t.samples), (95.0, 49, 999));
        // 200 samples: p95 leaves exactly 10.
        let t = tail(&ramp(200), 100.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        // 20 samples: only the median qualifies.
        let t = tail(&ramp(20), 100.0).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 10));
        // Fewer than 20: nothing qualifies.
        assert_eq!(tail(&ramp(19), 100.0), None);
        assert_eq!(tail(&[], 100.0), None);
    }
}
