//! Rich per-run engine metrics, layered over [`BatchStats`].
//!
//! [`BatchStats`] is the cheap always-on counter record; this module
//! adds the run's *shape*: where wall time went (cache build, sweep
//! discovery, exact pass) and how evenly the workers shared the pair
//! load. Per-chunk timings are the tracer's `chunk_compute` spans.
//! [`EngineMetrics::export`] folds a run into a long-lived
//! [`Registry`], which the sinks in `cardir-telemetry` then render as a
//! human report or JSON lines.

use crate::batch::BatchStats;
use crate::policy::FaultTally;
use cardir_geometry::RobustStats;
use cardir_telemetry::{Registry, COUNT_BOUNDS, DURATION_BOUNDS_NS};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Everything one batch run can tell you about its own cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineMetrics {
    /// The run's counter record.
    pub stats: BatchStats,
    /// Wall time of [`RegionCache::build`](crate::RegionCache::build)
    /// for the cache this run used.
    pub cache_build: Duration,
    /// Wall time of the join's sweep discovery; zero for an explicit
    /// pair list.
    pub discover: Duration,
    /// Wall time of the threaded exact pass, from allocating the output
    /// slots through chunk dispatch to the last worker's exit.
    pub exact_pass: Duration,
    /// Pairs processed by each worker of the exact pass, indexed by
    /// worker slot — the load-balance signal.
    pub per_thread_pairs: Vec<usize>,
    /// Fault events observed during this run: panics caught, injected
    /// failures, retries, failed/skipped pairs, deadline/cancel stops.
    /// All-zero ([`FaultTally::is_clean`]) on a healthy run.
    pub faults: FaultTally,
}

impl EngineMetrics {
    /// Worker utilisation in `(0, 1]`: mean pairs per worker over the
    /// busiest worker's pairs. `1.0` means a perfectly even split; `0.0`
    /// when nothing ran.
    ///
    /// This is a *scale-free summary*: distinct distributions collapse to
    /// the same value whenever their mean/max ratio coincides, which
    /// chunk-granular claiming makes likely across thread counts (pinned
    /// in a test below). Consumers that need to audit the actual distribution should read
    /// [`EngineMetrics::per_thread_pairs`], which the benches emit raw.
    pub fn worker_balance(&self) -> f64 {
        let max = self.per_thread_pairs.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let mean =
            self.per_thread_pairs.iter().sum::<usize>() as f64 / self.per_thread_pairs.len() as f64;
        mean / max as f64
    }

    /// Folds this run into `registry`: counters `engine.{runs,pairs,
    /// edges_scanned,fused_pairs}` and the partition counters
    /// `join.{mask_emitted,exact_pairs,candidates}`, duration histograms
    /// `engine.{cache_build,discover,exact_pass}_ns` (one sample per
    /// run), and the per-worker pair histogram `engine.thread_pairs`.
    pub fn export(&self, registry: &Registry) {
        let s = &self.stats;
        registry.counter("engine.runs").inc();
        for (name, value) in [
            ("engine.pairs", s.pairs),
            ("engine.edges_scanned", s.edges_scanned),
            ("engine.fused_pairs", s.fused_pairs),
            ("join.mask_emitted", s.mask_emitted),
            ("join.exact_pairs", s.exact_pairs),
            ("join.candidates", s.candidates),
        ] {
            registry.counter(name).add(value as u64);
        }
        for (name, duration) in [
            ("engine.cache_build_ns", self.cache_build),
            ("engine.discover_ns", self.discover),
            ("engine.exact_pass_ns", self.exact_pass),
        ] {
            registry
                .histogram(name, &DURATION_BOUNDS_NS)
                .record(duration.as_nanos().min(u64::MAX as u128) as u64);
        }
        let thread_pairs = registry.histogram("engine.thread_pairs", &COUNT_BOUNDS);
        for &pairs in &self.per_thread_pairs {
            thread_pairs.record(pairs as u64);
        }
        if !self.faults.is_clean() {
            for (name, value) in [
                ("engine.faults.panics_caught", self.faults.panics_caught),
                ("engine.faults.injected_failures", self.faults.injected_failures),
                ("engine.faults.retries", self.faults.retries),
                ("engine.faults.failed_pairs", self.faults.failed_pairs),
                ("engine.faults.skipped_pairs", self.faults.skipped_pairs),
                ("engine.faults.deadline_hits", self.faults.deadline_hits),
                ("engine.faults.cancel_hits", self.faults.cancel_hits),
            ] {
                if value > 0 {
                    registry.counter(name).add(value as u64);
                }
            }
        }
        export_geometry(registry);
    }
}

/// Folds the robust-predicate counters accumulated since the previous
/// export into `registry` as `geometry.orient2d_calls` /
/// `geometry.exact_fallback`, as deltas so repeated exports do not
/// double-count. `cardir-geometry` has no telemetry dependency, so the
/// engine is the export point.
///
/// Unlike the `engine.faults.*` counters, both counters are created even
/// when the delta is zero: "the exact fallback never fired" is itself the
/// signal dashboards watch (a healthy filter hit-rate), so the series must
/// exist on every export.
fn export_geometry(registry: &Registry) {
    static LAST: OnceLock<Mutex<RobustStats>> = OnceLock::new();
    let last = LAST.get_or_init(|| Mutex::new(RobustStats::default()));
    let mut last = last.lock().unwrap_or_else(PoisonError::into_inner);
    let now = cardir_geometry::robust::stats();
    let delta = now.since(&last);
    *last = now;
    registry.counter("geometry.orient2d_calls").add(delta.orient_calls);
    registry.counter("geometry.exact_fallback").add(delta.exact_fallbacks);

    // Edge-flattening events (Polygon::edges / Region::edges iterator
    // constructions), same delta pattern. A healthy batch run flattens
    // only while building its RegionCache; a non-zero delta *per pair*
    // would mean an exact loop regressed to re-deriving geometry — the
    // series exists precisely so dashboards can catch that.
    static LAST_FLATTENS: OnceLock<Mutex<u64>> = OnceLock::new();
    let last = LAST_FLATTENS.get_or_init(|| Mutex::new(0));
    let mut last = last.lock().unwrap_or_else(PoisonError::into_inner);
    let now = cardir_geometry::flatten::events();
    let delta = now.saturating_sub(*last);
    *last = now;
    registry.counter("geometry.edge_flattens").add(delta);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `export` drains process-global delta state (predicate counters,
    /// edge flattens); tests that call it must not interleave.
    static EXPORT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn worker_balance_bounds() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.worker_balance(), 0.0);
        m.per_thread_pairs = vec![100, 100];
        assert!((m.worker_balance() - 1.0).abs() < 1e-12);
        m.per_thread_pairs = vec![300, 100];
        assert!((m.worker_balance() - (200.0 / 300.0)).abs() < 1e-12);
    }

    /// An earlier all-pairs `BENCH_engine.json` reported the same
    /// worker_balance (0.885286694646098) at 4 and 8 threads. That is a
    /// summary collision, not a stale stat: with chunk-granular claiming,
    /// the 8-worker peak landed on exactly half the 4-worker peak (551 vs
    /// 1102 chunks of 256) over the same 999 000-pair total, and mean/max
    /// cannot tell those distributions apart. Pin the arithmetic so the
    /// explanation stays checked.
    #[test]
    fn worker_balance_collides_across_distinct_distributions() {
        let total = 999_000usize;
        let max4 = 1102 * 256; // busiest of 4 workers: 282 112 pairs
        let max8 = 551 * 256; // busiest of 8 workers: 141 056 pairs
        let four = EngineMetrics {
            per_thread_pairs: vec![max4, 245_000, 240_000, total - max4 - 245_000 - 240_000],
            ..EngineMetrics::default()
        };
        let mut rest = vec![120_000; 7];
        rest[6] = total - max8 - 6 * 120_000;
        let eight = EngineMetrics {
            per_thread_pairs: [vec![max8], rest].concat(),
            ..EngineMetrics::default()
        };
        assert_eq!(four.per_thread_pairs.iter().sum::<usize>(), total);
        assert_eq!(eight.per_thread_pairs.iter().sum::<usize>(), total);
        assert_ne!(four.per_thread_pairs, eight.per_thread_pairs);
        // mean/max = (total/k) / max — and max4 = 2·max8 while k doubled,
        // so the two ratios are bit-identical, down to the benched value.
        let benched = 0.885286694646098_f64;
        assert_eq!(four.worker_balance(), eight.worker_balance());
        assert!((four.worker_balance() - benched).abs() < 1e-15);
    }

    #[test]
    fn export_writes_engine_and_join_namespaces() {
        let _guard = EXPORT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = EngineMetrics {
            stats: BatchStats {
                pairs: 10,
                mask_emitted: 6,
                exact_pairs: 4,
                candidates: 12,
                edges_scanned: 64,
                fused_pairs: 4,
                threads: 2,
            },
            cache_build: Duration::from_micros(5),
            discover: Duration::from_micros(3),
            exact_pass: Duration::from_micros(40),
            per_thread_pairs: vec![6, 4],
            faults: FaultTally::default(),
        };
        let registry = Registry::new();
        m.export(&registry);
        m.export(&registry); // runs accumulate
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.runs"), Some(2));
        assert_eq!(snap.counter("engine.pairs"), Some(20));
        assert_eq!(snap.counter("engine.edges_scanned"), Some(128));
        assert_eq!(snap.counter("engine.fused_pairs"), Some(8));
        assert_eq!(snap.counter("join.mask_emitted"), Some(12));
        assert_eq!(snap.counter("join.exact_pairs"), Some(8));
        assert_eq!(snap.counter("join.candidates"), Some(24));
        assert_eq!(snap.histogram("engine.exact_pass_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("engine.discover_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("engine.thread_pairs").unwrap().count, 4);
        // The robust-predicate and flatten series always export, even
        // when zero events happened between exports.
        assert!(snap.counter("geometry.orient2d_calls").is_some());
        assert!(snap.counter("geometry.exact_fallback").is_some());
        assert!(snap.counter("geometry.edge_flattens").is_some());
    }

    #[test]
    fn export_folds_predicate_deltas() {
        use cardir_geometry::{orient2d_sign, Point, Sign};
        let _guard = EXPORT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let registry = Registry::new();
        EngineMetrics::default().export(&registry); // drain other tests' calls
        let drained = registry.snapshot().counter("geometry.orient2d_calls").unwrap_or(0);
        // One call that the static filter decides, one that must fall back.
        assert_eq!(
            orient2d_sign(Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)),
            Sign::Positive
        );
        assert_eq!(
            orient2d_sign(Point::new(0.1, 0.1), Point::new(0.2, 0.2), Point::new(0.3, 0.3)),
            Sign::Zero
        );
        EngineMetrics::default().export(&registry);
        let snap = registry.snapshot();
        let calls = snap.counter("geometry.orient2d_calls").unwrap();
        assert!(calls >= drained + 2, "calls = {calls}, drained = {drained}");
        assert!(snap.counter("geometry.exact_fallback").unwrap() >= 1);
    }
}
