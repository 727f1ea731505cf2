//! Order statistics over timing samples.
//!
//! Every percentile the benchmark reports is a nearest-rank percentile
//! printed with its sample count and the number of samples beyond it; a
//! percentile with fewer than [`MIN_BEYOND`] samples beyond it says
//! nothing about the tail and is refused.

/// Samples a reported percentile must have strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; `None`
/// when `values` is empty. Sorts a copy.
pub fn percentile(values: &[f64], p: f64) -> Option<Pct> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// [`percentile`] that refuses a tail without [`MIN_BEYOND`] samples
/// beyond it, naming the sample in the error.
pub fn tail(name: &str, values: &[f64], p: f64) -> Result<Pct, String> {
    match percentile(values, p) {
        Some(pct) if pct.beyond >= MIN_BEYOND => Ok(pct),
        Some(pct) => Err(format!(
            "{name}: p{p} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            pct.n, pct.beyond
        )),
        None => Err(format!("{name}: no samples")),
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&[7.0], 1.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 60.0).unwrap().value, 3.0);
        assert_eq!(percentile(&v, 61.0).unwrap().value, 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail("x", &v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (989.0, 10));
        assert!(tail("x", &v[..999], 99.0).is_err());
        assert!(tail("x", &v[..19], 50.0).is_err());
        assert!(tail("x", &v[..20], 50.0).is_ok());
        assert!(tail("x", &[], 50.0).is_err());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
