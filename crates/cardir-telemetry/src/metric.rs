//! The two metric primitives: atomic counters and fixed-bucket
//! histograms.
//!
//! Both are handles over `Arc`'d atomics: cloning a handle is cheap, and
//! every clone observes (and feeds) the same underlying cells. Hot-path
//! updates are single `fetch_add`s with relaxed ordering — the registry
//! only reads them at snapshot time, and a snapshot does not need to be a
//! point-in-time cut across *different* metrics, only monotone per cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Default duration buckets in nanoseconds: 1 µs to 10 s in a 1-2-5
/// progression, wide enough for cache builds and narrow enough for
/// per-chunk timings.
pub const DURATION_BOUNDS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Default magnitude buckets for counts (pairs per chunk, candidates per
/// reference, …): a 1-2-5 progression from 1 to 10⁹.
pub const COUNT_BOUNDS: [u64; 28] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

/// A histogram over `u64` values with fixed, inclusive upper bucket
/// bounds plus an implicit overflow bucket.
///
/// A recorded value `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; values above every bound land in the overflow bucket.
/// Recording is one relaxed `fetch_add` after a short linear scan of the
/// bounds (bucket counts are small and fixed — typically ≤ 24).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 cells; last = overflow
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket bounds this histogram was registered with.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, with quantile and mean
/// estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets[bounds.len()]` is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (exact — the sum is tracked, not
    /// reconstructed from buckets). `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the bucket containing the target rank; the
    /// overflow bucket reports its lower bound. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let next = cumulative + n;
            if (next as f64) >= rank && n > 0 {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                if i == self.bounds.len() {
                    // Overflow: no upper bound to interpolate towards.
                    return lo as f64;
                }
                let hi = self.bounds[i];
                let into = (rank - cumulative as f64) / n as f64;
                return lo as f64 + into * (hi - lo) as f64;
            }
            cumulative = next;
        }
        *self.bounds.last().unwrap_or(&0) as f64
    }

    /// The median estimate — shorthand for `quantile(0.5)`.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 43, "clones share the cell");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::new(&[10, 20, 30]);
        for v in [0, 10, 11, 20, 30, 31, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 2], "0,10 | 11,20 | 30 | 31,1000");
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1102); // 0+10+11+20+30+31+1000
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        // 100 values 1..=100 against decade buckets: p50 ≈ 50, p99 ≈ 99.
        let h = Histogram::new(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!((s.p50() - 50.0).abs() <= 1.0, "p50 = {}", s.p50());
        assert!((s.p95() - 95.0).abs() <= 1.0, "p95 = {}", s.p95());
        assert!((s.p99() - 99.0).abs() <= 1.0, "p99 = {}", s.p99());
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert!((s.quantile(1.0) - 100.0).abs() <= 1e-9);
    }

    #[test]
    fn overflow_bucket_reports_lower_bound() {
        let h = Histogram::new(&[10]);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![0, 1]);
        assert_eq!(s.p50(), 10.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(&[1, 2]);
        let s = h.snapshot();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p50(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[10, 5]);
    }
}
