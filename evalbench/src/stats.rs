//! Order statistics and means over measured samples.

/// Median of `v` (mean of the middle pair for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` (the inclusive
/// method: `q = 0` is the minimum, `q = 1` the maximum); 0 for an
/// empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Geometric mean of `v` with every sample raised to at least `floor`.
pub fn geomean(v: &[f64], floor: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let logs: f64 = v.iter().map(|x| x.max(floor).ln()).sum();
    (logs / v.len() as f64).exp()
}
