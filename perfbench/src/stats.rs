//! Order statistics for latency samples.

/// A percentile read from a sample, with the counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Number of samples the percentile was read from.
    pub samples: usize,
    /// Number of samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// Failed requests belong in `samples` as `f64::INFINITY`, so they count
/// as missing any latency limit.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond the rank: the run
/// was too short to support that percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} sample(s) leaves fewer than {MIN_BEYOND} beyond it; run longer"
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The typical value of a mix: each key's median, weighted by the key's
/// share of the samples. For a single key it is that key's median; for a
/// mix of request kinds it adds up across layers, which medians of the
/// whole mix do not (a step only one kind takes has a pooled median of
/// zero). `0.0` for no samples.
#[must_use]
pub fn mix_median<K: PartialEq + Copy>(samples: &[(K, f64)]) -> f64 {
    let mut keys: Vec<K> = Vec::new();
    for (k, _) in samples {
        if !keys.contains(k) {
            keys.push(*k);
        }
    }
    keys.iter()
        .map(|key| {
            let values: Vec<f64> = samples
                .iter()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .collect();
            median(&values) * values.len() as f64 / samples.len() as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it_and_reports_the_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&short, 99.0).is_err());
    }

    #[test]
    fn median_percentile_ignores_input_order() {
        let samples = [
            5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0,
        ];
        let p50 = percentile(&samples, 50.0);
        // 12 samples: rank 6 leaves only 6 beyond — too few.
        assert!(p50.is_err());
        let samples: Vec<f64> = (0..25).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 12.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn mix_median_weights_each_kind_by_its_share() {
        assert_eq!(mix_median(&[("a", 1.0), ("a", 3.0), ("a", 100.0)]), 3.0);
        let mix = [("a", 0.0), ("a", 0.0), ("a", 0.0), ("b", 8.0)];
        assert_eq!(median(&mix.map(|(_, v)| v)), 0.0);
        assert_eq!(mix_median(&mix), 2.0);
        assert_eq!(mix_median::<&str>(&[]), 0.0);
    }

    #[test]
    fn failures_count_as_missing_the_tail() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for s in samples.iter_mut().take(20) {
            *s = f64::INFINITY;
        }
        assert_eq!(percentile(&samples, 99.0).unwrap().value, f64::INFINITY);
    }
}
