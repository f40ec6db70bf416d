//! Online statistics and measurement collectors.
//!
//! The benchmark harness follows the paper's methodology ("each value is
//! measured three times and the best is taken"), so collectors expose `min`
//! alongside the usual moments. Variance uses Welford's algorithm to stay
//! numerically stable over long simulations.

use crate::time::SimDuration;
use std::fmt;

/// Streaming summary statistics over `f64` samples.
#[derive(Debug, Clone)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates a new instance.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance. NaN with no samples.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation of the samples.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample — the paper's "best of three" statistic.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// A collector of duration samples keyed by the paper's overhead phases.
/// `best()` implements "measured three times and the best is taken".
#[derive(Debug, Clone, Default)]
pub struct DurationSamples {
    samples: Vec<SimDuration>,
}

impl DurationSamples {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether this is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The minimum sample (paper methodology), or zero when empty.
    pub fn best(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Largest recorded sample.
    pub fn worst(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        SimDuration::from_nanos((total / self.samples.len() as u128) as u64)
    }

    /// Max - min spread; the paper notes "the variation of the overhead is
    /// within 2 seconds", which we verify.
    pub fn spread(&self) -> SimDuration {
        self.worst().saturating_sub(self.best())
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.samples.iter().copied()
    }
}

/// Fixed-bucket histogram for latency distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket upper bounds, strictly increasing.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create with the given strictly increasing bucket upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "need at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            total: 0,
        }
    }

    /// Exponential buckets: `first, first*base, ...` for `n` buckets.
    pub fn exponential(first: f64, base: f64, n: usize) -> Self {
        assert!(first > 0.0 && base > 1.0 && n > 0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b *= base;
        }
        Histogram::new(bounds)
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Record `n` copies of one sample with a single bucket lookup.
    pub fn record_n(&mut self, x: f64, n: u64) {
        self.total += n;
        match self.bounds.iter().position(|&b| x <= b) {
            Some(i) => self.counts[i] += n,
            None => self.overflow += n,
        }
    }

    /// Returns the total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(upper_bound, count)` per bucket, in increasing bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }

    /// Samples above the last bucket bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merges another histogram with the identical bucket layout;
    /// returns `false` (leaving `self` unchanged) when layouts differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        true
    }

    /// Approximate quantile (returns the bucket upper bound containing it).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.bounds[i]);
            }
        }
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn default_equals_new() {
        // A derived Default would zero `min`, silently corrupting the
        // minimum of positive samples (regression test).
        let mut s = Summary::default();
        s.record(5.0);
        s.record(7.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn duration_best_of_three() {
        let mut d = DurationSamples::new();
        d.record(SimDuration::from_millis(3880));
        d.record(SimDuration::from_millis(4100));
        d.record(SimDuration::from_millis(3950));
        assert_eq!(d.best(), SimDuration::from_millis(3880));
        assert_eq!(d.spread(), SimDuration::from_millis(220));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn duration_mean() {
        let mut d = DurationSamples::new();
        d.record(SimDuration::from_secs(1));
        d.record(SimDuration::from_secs(3));
        assert_eq!(d.mean(), SimDuration::from_secs(2));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::exponential(1.0, 2.0, 10);
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((32.0..=64.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0).unwrap(), 128.0);
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.record(5.0);
        assert_eq!(h.total(), 1);
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        Histogram::new(vec![2.0, 1.0]);
    }
}
