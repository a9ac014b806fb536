//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank: the smallest sample with
/// at least `q·n` samples at or below it. NaN for no samples (a run whose
/// every operation failed), which the result line prints as 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (lower middle for an even count, so it is always a sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median over windows of each window's `q`-quantile: a tail that a
/// burst of host noise covering a few windows does not move.
pub fn median_quantile<'a>(windows: impl IntoIterator<Item = &'a [f64]>, q: f64) -> f64 {
    let per_window: Vec<f64> = windows.into_iter().map(|w| quantile(w, q)).collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert!(median(&[]).is_nan());
        let burst = [1.0, 2.0, 9.0, 1.0, 2.0, 3.0, 9.0, 9.0, 1.0, 3.0];
        assert_eq!(median_quantile(burst.chunks(2), 0.9), 3.0);
    }
}
