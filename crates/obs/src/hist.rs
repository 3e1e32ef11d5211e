//! Fixed-bucket latency histogram.
//!
//! Buckets are log-spaced (1–2–5 per decade) from 1 µs to 50 s, which
//! covers everything from a single span record to a full steering
//! round-trip over TCP. Fixed bounds mean histograms from different
//! ranks (or different runs) merge by plain bucket-wise addition — the
//! property the cross-rank aggregation in `run_spmd_opts` relies on.

use crate::json::Json;

/// Bucket upper bounds in seconds: 1-2-5 per decade, 1 µs .. 50 s.
/// Samples above the last bound land in a final overflow bucket.
pub const BUCKET_BOUNDS: [f64; 24] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1, 2e1, 5e1,
];

const NBUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A latency histogram with fixed log-spaced buckets plus exact
/// count/sum/min/max, and quantile estimates (p50/p95/p99) read from
/// the bucket boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; NBUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Record one latency sample in seconds. Negative and NaN samples
    /// are ignored (they cannot arise from monotonic clocks).
    pub fn record(&mut self, secs: f64) {
        if secs.is_nan() || secs < 0.0 {
            return;
        }
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(NBUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += secs;
        self.min = self.min.min(secs);
        self.max = self.max.max(secs);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample, seconds (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, seconds.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Quantile estimate in seconds: the upper bound of the bucket the
    /// q-th sample falls in, clamped to the exact observed max (so the
    /// estimate never exceeds reality). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let bound = if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i]
                } else {
                    self.max
                };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate, seconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate, seconds.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate, seconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Add every sample of `other` into `self` (bucket-wise; exact for
    /// count/sum/min/max).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// JSON export: `{count, sum, min, max, buckets}` with `buckets`
    /// only listing non-empty entries as `[index, n]` pairs (the 25
    /// fixed bounds are shared knowledge between writer and reader).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum)),
            ("min".into(), Json::Num(self.min())),
            ("max".into(), Json::Num(self.max)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1.5e-3); // bucket bound 2e-3
        }
        for _ in 0..10 {
            h.record(0.4); // bucket bound 5e-1
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 2e-3);
        assert!(h.p95() <= 0.4 + 1e-12 && h.p95() > 2e-3, "p95={}", h.p95());
        assert_eq!(h.max(), 0.4);
        assert!((h.mean() - (90.0 * 1.5e-3 + 10.0 * 0.4) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let mut h = Histogram::new();
        h.record(3e-6);
        assert_eq!(h.p99(), 3e-6, "single sample: clamped to max");
    }

    #[test]
    fn nan_and_negative_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let mut h = Histogram::new();
        h.record(1e4);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 1e4);
    }

    #[test]
    fn merge_is_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..50 {
            a.record(1e-5 * (i + 1) as f64);
            b.record(1e-2 * (i + 1) as f64);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.max(), b.max());
        assert_eq!(merged.min(), a.min());
        assert!((merged.sum() - (a.sum() + b.sum())).abs() < 1e-12);
    }

    #[test]
    fn json_export_parses_back_to_the_same_tree() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record((i as f64 + 0.5) * 3.7e-5);
        }
        for h in [h, Histogram::new()] {
            let tree = Json::parse(&h.to_json().render()).unwrap();
            assert_eq!(tree, h.to_json());
            assert_eq!(tree.get("count").and_then(Json::as_u64), Some(h.count()));
            let sum = tree.get("sum").and_then(Json::as_f64).unwrap();
            assert_eq!(sum.to_bits(), h.sum().to_bits());
            let buckets = tree.get("buckets").and_then(Json::as_arr).unwrap();
            let total: u64 = buckets
                .iter()
                .map(|pair| pair.as_arr().unwrap()[1].as_u64().unwrap())
                .sum();
            assert_eq!(total, h.count(), "bucket entries hold every sample");
        }
    }
}
