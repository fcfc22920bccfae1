//! Order statistics over timing samples.

/// Linearly interpolated `q`-quantile (`0 ≤ q ≤ 1`) of `values`;
/// `NaN` when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over already sorted values.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `q`-quantile of whole-microsecond samples that were truncated from
/// continuous times, so a sample `v` stands for a time in `[v, v + 1)`.
/// Interpolating inside that bucket by rank (the grouped-data
/// percentile) keeps the sub-microsecond signal that a plain order
/// statistic of integers would round away.
pub fn grouped_quantile(sorted_micros: &[u64], q: f64) -> f64 {
    let n = sorted_micros.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * n as f64;
    let idx = (rank as usize).min(n - 1);
    let v = sorted_micros[idx];
    let below = sorted_micros.partition_point(|&x| x < v);
    let equal = sorted_micros.partition_point(|&x| x <= v) - below;
    v as f64 + ((rank - below as f64) / equal as f64).clamp(0.0, 1.0)
}

/// The element-wise least of equally long rows: for repetitions of
/// identical work, the least time each piece of it took.
pub fn least_each<'a>(mut rows: impl Iterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut least = rows.next().map(<[u64]>::to_vec).unwrap_or_default();
    for row in rows {
        debug_assert_eq!(row.len(), least.len());
        for (l, &v) in least.iter_mut().zip(row) {
            *l = (*l).min(v);
        }
    }
    least
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn grouped_quantile_spreads_ties_over_their_bucket() {
        // Four samples of 10 µs: the median sits halfway through [10, 11).
        assert_eq!(grouped_quantile(&[10, 10, 10, 10], 0.5), 10.5);
        assert_eq!(grouped_quantile(&[1, 2, 3, 4], 0.5), 3.0);
        assert!(grouped_quantile(&[7, 7, 9], 0.99) >= 9.0);
    }

    #[test]
    fn least_each_takes_the_minimum_per_position() {
        let rows: [&[u64]; 3] = [&[5, 1, 9], &[3, 4, 9], &[6, 2, 8]];
        assert_eq!(least_each(rows.into_iter()), vec![3, 1, 8]);
        assert!(least_each(std::iter::empty()).is_empty());
    }
}
