//! Summaries of timing samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the number would be one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` in `[0, 1]` of a sorted, non-empty slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

/// The median (nearest rank), or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| rank(&sorted(xs), 0.5))
}

/// The `q` quantile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// above its rank.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    let at = (q * v.len() as f64).ceil() as usize;
    (v.len().saturating_sub(at) >= MIN_BEYOND).then(|| rank(&v, q))
}

/// Geometric mean of positive values, or `None` for no values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean, `0` for no values.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// spreads printed here match the ones any other tool reports. Needs at
/// least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Windows a timed phase is cut into when picking its quieter half.
pub const WINDOWS: usize = 10;

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Operations of one class take comparable time (the same instance,
    /// the same kind of request).
    pub class: usize,
    /// Start, seconds into the timed phase.
    pub at: f64,
    /// Latency in milliseconds.
    pub ms: f64,
}

/// The window of `at` when `span` seconds are cut into [`WINDOWS`].
pub fn window(at: f64, span: f64) -> usize {
    ((at / span * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// The samples of the quieter half of a run.
///
/// Scaling to reference speed (see [`crate::probe`]) removes slowdowns
/// that hit the whole host; this removes what is left of short ones,
/// such as the backlog a slow second leaves in an open loop. The timed
/// phase is cut into [`WINDOWS`] windows; each window is scored by the
/// median over its samples of latency divided by the median latency of
/// the sample's class; windows are kept from the lowest score up until
/// they hold at least half of the samples, so a tail that needs `2k`
/// samples in the run finds `k` here.
pub fn quiet_half(samples: &[Sample], span: f64) -> Vec<Sample> {
    let classes = samples.iter().map(|s| s.class + 1).max().unwrap_or(0);
    let class_median: Vec<f64> = (0..classes)
        .map(|c| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == c)
                .map(|s| s.ms)
                .collect();
            median(&xs).unwrap_or(1.0)
        })
        .collect();
    let mut scored: Vec<(f64, usize)> = (0..WINDOWS)
        .filter_map(|w| {
            let rel: Vec<f64> = samples
                .iter()
                .filter(|s| window(s.at, span) == w)
                .map(|s| s.ms / class_median[s.class])
                .collect();
            median(&rel).map(|m| (m, w))
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut per_window = [0usize; WINDOWS];
    for s in samples {
        per_window[window(s.at, span)] += 1;
    }
    let mut keep = Vec::new();
    let mut kept = 0;
    for &(_, w) in &scored {
        if 2 * kept >= samples.len() {
            break;
        }
        keep.push(w);
        kept += per_window[w];
    }
    samples
        .iter()
        .filter(|s| keep.contains(&window(s.at, span)))
        .copied()
        .collect()
}

/// Events per second in the busier half of the windows of a `span`-second
/// phase, given each event's time, with each window's count divided by
/// its `factors` entry (reference-speed time per measured time).
pub fn quiet_rate(times: &[f64], span: f64, factors: &[f64; WINDOWS]) -> f64 {
    let mut counts = [0usize; WINDOWS];
    for &t in times {
        counts[window(t, span)] += 1;
    }
    let width = span / WINDOWS as f64;
    let mut rates: Vec<f64> = counts
        .iter()
        .zip(factors)
        .map(|(&n, f)| n as f64 / width / f)
        .collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    mean(&rates[..WINDOWS / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_drops_the_slow_windows() {
        // two classes, one twice as slow; seconds 3-5 of 10 run 3x slower
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let at = i as f64 / 100.0;
                let class = i % 2;
                let slow = if (3.0..6.0).contains(&at) { 3.0 } else { 1.0 };
                Sample {
                    class,
                    at,
                    ms: (1.0 + class as f64) * slow,
                }
            })
            .collect();
        let q = quiet_half(&samples, 10.0);
        assert_eq!(q.len(), 500);
        assert!(q.iter().all(|s| !(3.0..6.0).contains(&s.at)));
        // the quiet windows hold few samples: more windows are kept until
        // half the samples are
        let sparse: Vec<Sample> = samples
            .iter()
            .filter(|s| (3.0..6.0).contains(&s.at) || ((s.at * 100.0) as usize).is_multiple_of(10))
            .copied()
            .collect();
        let q = quiet_half(&sparse, 10.0);
        assert!(
            2 * q.len() >= sparse.len(),
            "{} of {}",
            q.len(),
            sparse.len()
        );
        // events at 100/s, but a quarter of the windows see only 10/s
        let times: Vec<f64> = (0..1000)
            .map(|i| i as f64 / 100.0)
            .filter(|t| !(2.0..4.5).contains(t) || ((t * 100.0) as usize).is_multiple_of(10))
            .collect();
        assert!((quiet_rate(&times, 10.0, &[1.0; WINDOWS]) - 100.0).abs() < 1.0);
        // a host running at half speed throughout
        assert!((quiet_rate(&times, 10.0, &[0.5; WINDOWS]) - 200.0).abs() < 2.0);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: p95 sits at rank 190, leaving 9 beyond it
        assert_eq!(tail(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), Some(190.0));
        assert_eq!(tail(&xs[..50], 0.99), None);
        assert_eq!(median(&xs), Some(100.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
