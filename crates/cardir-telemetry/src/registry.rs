//! The metric registry: named counters and histograms, snapshot-on-read.
//!
//! A [`Registry`] is deliberately *not* global: the engine, the query
//! evaluator, and the benches each own (or borrow) one, so tests can
//! assert on isolated registries and two batch runs never smear into one
//! another. Registration takes the internal lock; the handles that come
//! back update lock-free.

use crate::metric::{Counter, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A named collection of metrics. Cheap to create; share by reference
/// (it is `Sync`) or wrap in an `Arc` for ownership across threads.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    // BTreeMaps so snapshots and reports come out in stable name order.
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it at zero on first
    /// use. The handle stays valid for the registry's lifetime.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_insert_with(Counter::new).clone()
    }

    /// Returns the histogram named `name`, creating it with `bounds` on
    /// first use.
    ///
    /// # Panics
    /// Panics if the name already exists with different bounds — metric
    /// names must mean one thing.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let h = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone();
        assert_eq!(h.bounds(), bounds, "histogram {name:?} re-registered with different bounds");
        h
    }

    /// A point-in-time copy of every metric, in name order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// An immutable copy of a registry's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` pairs in ascending name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_get_or_create() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.snapshot().counter("a"), Some(7));
        assert_eq!(r.snapshot().counter("missing"), None);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = Registry::new();
        r.counter("zebra").inc();
        r.counter("aardvark").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["aardvark", "zebra"]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_conflict_panics() {
        let r = Registry::new();
        let _ = r.histogram("h", &[1, 2]);
        let _ = r.histogram("h", &[1, 3]);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let r = Registry::new();
        let workers = 8;
        let per_worker = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..workers {
                let c = r.counter("hits");
                s.spawn(move || {
                    for _ in 0..per_worker {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("hits"), Some(workers * per_worker));
    }
}
