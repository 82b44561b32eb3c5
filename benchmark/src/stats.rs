//! Order statistics over timing samples.
//!
//! Quantiles follow Python's `statistics.quantiles(method="exclusive")`,
//! the rule the acceptance harness applies to run-to-run spread, so a
//! spread printed here and one computed there agree on the same numbers
//! (from three samples up; below that Python extrapolates, this does not).

/// The `q`-quantile (`0 < q < 1`) of `samples`; `0.0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n as f64 + 1.0);
            let j = (pos.floor() as usize).clamp(1, n - 1);
            // The reference implementation extrapolates past the ends
            // when `pos` falls outside `1..=n` (two samples, quartiles);
            // a quantile outside the data helps nobody, so stop at them.
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            v[j - 1] * (1.0 - frac) + v[j] * frac
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The 75th percentile of `samples`.
pub fn p75(samples: &[f64]) -> f64 {
    quantile(samples, 0.75)
}

/// Interquartile range as a percentage of the median — the run's own
/// noise figure (`bench.harness.wall_iqr_pct`).
pub fn iqr_pct(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    100.0 * (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

/// Samples strictly above the p75 value: the guide asks for the highest
/// percentile with at least ten samples beyond it, so this is printed
/// next to every p75.
pub fn beyond_p75(samples: &[f64]) -> usize {
    let cut = p75(samples);
    samples.iter().filter(|s| **s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&five, 0.25), 1.5);
        assert_eq!(median(&five), 3.0);
        assert_eq!(p75(&five), 4.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.25), 2.75);
        assert_eq!(median(&ten), 5.5);
        assert_eq!(p75(&ten), 8.25);
        assert_eq!(beyond_p75(&ten), 2);
        assert!((iqr_pct(&ten) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(p75(&[7.0]), 7.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        // Two points: the reference extrapolates q3 of [2, 4] to 4.5.
        assert_eq!(p75(&[2.0, 4.0]), 4.0);
        assert_eq!(quantile(&[2.0, 4.0], 0.25), 2.0);
        assert_eq!(iqr_pct(&[0.0, 0.0, 0.0]), 0.0);
    }
}
