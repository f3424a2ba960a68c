//! Order statistics over timing samples.

use std::time::Duration;

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean of the samples left after dropping the lowest and the highest
/// tenth; 0 for no samples. Timings on a shared host come in fast and
/// slow phases lasting seconds. A median sits on whichever phase has more
/// than half the samples, so it jumps by the whole gap between runs; a
/// trimmed mean moves with the phases' shares and still ignores rare
/// stalls.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending slice; 0 for no
/// samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts and takes a nearest-rank quantile.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        let mut ys: Vec<f64> = (1..=9).map(f64::from).collect();
        ys.push(1000.0);
        assert_eq!(trimmed_mean(&ys), 5.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }
}
