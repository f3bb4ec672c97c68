//! Order statistics over latency samples.

/// The `q`-quantile (nearest rank) of an already sorted slice; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values`, linearly interpolated between the order
/// statistics (the inclusive method: `q = 0` is the minimum, `q = 1` the
/// maximum); 0 when empty.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    v[lo] + (v[(lo + 1).min(last)] - v[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them (what the driver
/// uses). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.95), 4);
        assert_eq!(quantile_f64(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile_f64(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile_f64(&[7.0], 0.25), 7.0);
    }
}
