//! Order statistics over `f64` samples.

use crate::spec::Better;

/// Sorts ascending; samples are measurements, never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// The `p`-quantile (0..=1) of ascending `sorted` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The quartile of `values` on their better side: the first where lower is
/// better, the third where higher is. The machine's noise is one-sided — a
/// neighbour only ever slows a window down — so this reads the undisturbed
/// windows while at least a quarter of them were, where the median needs
/// half.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    let p = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    percentile(&sorted(values.to_vec()), p)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so the spreads this benchmark
/// prints are the spreads its driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 with fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quiet_quartile_takes_the_better_side() {
        // Three undisturbed windows of eight: five slow ones do not show.
        let ms = [80.0, 130.0, 81.0, 128.0, 131.0, 79.0, 127.0, 126.0];
        assert!(quiet_quartile(&ms, Better::Lower) < 82.0);
        assert!(median(&ms) > 100.0);
        let per_s = [12.0, 8.0, 12.1, 7.9, 8.1, 11.9, 8.0, 8.2];
        assert!(quiet_quartile(&per_s, Better::Higher) > 11.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 0.5), 2.5);
        assert_eq!(percentile(&data, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
