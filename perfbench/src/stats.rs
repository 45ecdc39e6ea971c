//! Summary statistics: medians, the sample-supported tail percentile,
//! quartile spreads and geometric means.

/// A timing tail: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `99.5`).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for even counts); `None`
/// for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample at sorted index `n - 1 - TAIL_BEYOND`, reported as the
/// percentile `100 * (n - TAIL_BEYOND) / n`. `None` when the sample is
/// too small to leave that many beyond any value.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - 1 - TAIL_BEYOND],
        beyond: TAIL_BEYOND,
    })
}

/// `stat` of each of consecutive windows of a time-ordered sample: as
/// many windows as leave every window at least `min_per_window` samples.
pub fn per_window(
    samples: &[f64],
    min_per_window: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let k = (samples.len() / min_per_window.max(1)).max(1);
    let size = samples.len() / k;
    (0..k)
        .filter_map(|w| {
            let end = if w + 1 == k {
                samples.len()
            } else {
                (w + 1) * size
            };
            stat(&samples[w * size..end])
        })
        .collect()
}

/// The lower quartile (nearest rank) of a set of values.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    percentile(values, 25.0)
}

/// The value at percentile `pct` (nearest rank); `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        assert_eq!(tail(&[1.0; TAIL_BEYOND]), None);
        let t = tail(&[1.0; TAIL_BEYOND + 1]).unwrap();
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn per_window_stats_keep_a_stall_to_its_window() {
        // five windows of 200; one has a 50 ms stall over 30 samples
        let mut samples: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 200) as f64 / 200.0).collect();
        for s in &mut samples[400..430] {
            *s = 50.0;
        }
        let tails = per_window(&samples, 200, |w| tail(w).map(|t| t.value));
        assert_eq!(tails.len(), 5);
        assert_eq!(tails.iter().filter(|&&t| t == 50.0).count(), 1);
        assert!(lower_quartile(&tails).unwrap() < 2.0);
        // too few samples for more than one window
        assert_eq!(per_window(&samples[..300], 200, median).len(), 1);
        assert!(per_window(&samples[..5], 200, |w| tail(w).map(|t| t.value)).is_empty());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 100.0), Some(5.0));
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }
}
