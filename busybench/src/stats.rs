//! Small statistics helpers.

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Share of timed chunks that host-time statistics are taken from. The
/// host is shared: contention from other processes comes and goes within
/// a run and slows whole stretches of chunks, so a median moves with the
/// amount of contention in a run. The fastest tenth of the chunks is
/// what the simulator sustains when left alone, and repeats from run to
/// run.
pub const FAST_SHARE: f64 = 0.1;

/// Indices of the [`FAST_SHARE`] of `times` that are smallest (at least
/// one), fastest first.
pub fn fastest(times: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let keep = ((times.len() as f64 * FAST_SHARE).ceil() as usize).max(1);
    order.truncate(keep);
    order
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn fastest_keeps_the_smallest_tenth() {
        let times: Vec<f64> = (0..20).rev().map(f64::from).collect();
        assert_eq!(fastest(&times), vec![19, 18]);
        assert_eq!(fastest(&[5.0]), vec![0]);
    }

    #[test]
    fn ratio_of_zero_whole_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
