//! Exact order statistics over every recorded sample.
//!
//! Latencies are kept as raw samples, never bucketed: a log histogram's
//! 12.5% buckets are wider than the run-to-run steadiness the benchmark
//! needs, so its percentiles jump between bucket edges across identical
//! runs.

/// Every sample of one quantity, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least
    /// `q · n` samples at or below it. An exact order statistic, never an
    /// interpolation. `NaN` when there are no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.sort();
        let n = self.values.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    /// The median (nearest rank).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Samples strictly above the `q`-quantile: how well the sample
    /// supports that percentile (at least ten are needed to report it).
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }

    /// A one-line summary: median, p90, p99 and p99.9 with the sample
    /// count and how many samples lie beyond each tail percentile.
    pub fn summary(&mut self, unit: &str) -> String {
        if self.values.is_empty() {
            return "n=0".to_string();
        }
        let mut parts = vec![format!("n={}", self.len())];
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            let beyond = self.beyond(q);
            parts.push(format!(
                "{label}={:.1}{unit} ({beyond} beyond)",
                self.quantile(q)
            ));
        }
        parts.join(" ")
    }
}

/// The median of a small list of repeated measurements (the mean of the
/// two middle values for an even count); `NaN` when empty.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of a small list of repeated measurements; `NaN` when empty.
pub fn mean_of(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
