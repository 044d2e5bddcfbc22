//! Percentiles of latency samples.

/// The `p`-th percentile (0..=100) of `xs` by the nearest-rank rule: the
/// smallest sample with at least `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// The tail percentile a sample count supports: 99 where at least ten
/// samples lie beyond it (n ≥ 1000), otherwise 95.
pub fn tail_rank(n: usize) -> u32 {
    if n - (n * 99).div_ceil(100) >= 10 {
        99
    } else {
        95
    }
}

/// A reported tail latency: the value, the percentile it really is and
/// the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// 99 or 95, per [`tail_rank`].
    pub rank: u32,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The highest supported tail percentile of `xs`.
pub fn tail(xs: &[f64]) -> Tail {
    let rank = tail_rank(xs.len());
    Tail {
        value: percentile(xs, rank),
        rank,
        samples: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 95), 95.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&xs, 0), 1.0);
        // Unsorted input, small count: rank rounds up.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 99), 9.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_rank(600), 95);
        assert_eq!(tail_rank(999), 95);
        assert_eq!(tail_rank(1000), 99);
        assert_eq!(tail_rank(7680), 99);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.rank, t.value, t.samples), (99, 990.0, 1000));
        let t = tail(&xs[..600]);
        assert_eq!((t.rank, t.value), (95, 570.0));
    }
}
