//! The MBB spatial join: the batch path for a whole map.
//!
//! A map of `N` regions has `N·(N−1)` ordered pairs, but most of them are
//! decided by their boxes alone: the primary's MBB lies strictly inside
//! one tile of the reference's grid ([`decided_tile`]). Two plane sweeps
//! over the region MBBs (see [`cardir_index::sweep_stabs`]) discover the
//! *interacting* pairs — the ones a grid-line contact sends down the
//! exact pipeline — in `O(N log N + K)` for `K` interacting pairs. That
//! partitions the pair space:
//!
//! - **mask-emitted** — the `N·(N−1) − K` non-interacting pairs. Their
//!   relation is the single-tile relation, emitted by `emit_decided`.
//!   These pairs are never enumerated as work items.
//! - **exact** — the `K` interacting pairs, which flow through the
//!   chunked worker pipeline (retries, panic isolation, deadline/cancel).
//!
//! [`BatchEngine::run_join`] returns the compact [`JoinOutcome`]: the `K`
//! exact outcomes plus counters, with memory bounded by the interacting
//! set, so a 100k-region map never materialises ten billion pairs.
//! [`JoinOutcome::materialize`] expands to the full [`BatchOutcome`] when
//! the caller really wants every ordered pair, in the naive double loop's
//! primary-major order and bit-identical to it.
//!
//! ## Why the sweep finds exactly the undecided pairs
//!
//! `decided_tile(mbb(i), mbb(j))` is `None` exactly when `i`'s closed
//! x-interval contains `j.min.x` or `j.max.x`, or `i`'s closed y-interval
//! contains `j.min.y` or `j.max.y` (strict-band case analysis: touching
//! or straddling an endpoint on an axis is precisely closed containment
//! of that endpoint). Each sweep reports exactly those containments, so
//! the union of the two sweeps, deduplicated, is exactly the undecided
//! pair set; `join.candidates` counts one per interval/grid-coordinate
//! contact, self-contacts included.
//!
//! ## Fault semantics
//!
//! `RunPolicy` applies to the exact subset, which is the only part that
//! does real work. Mask-emitted pairs cost `O(1)` each and are emitted
//! regardless of deadline or cancellation — a cancelled join still
//! reports them as succeeded. Likewise the `engine.pair.compute`
//! failpoint only fires for exact work items: emitted pairs never were
//! work items. Panic isolation still covers emission itself (each emit
//! runs under `catch_unwind` during materialisation when the policy
//! isolates).

use crate::batch::{emit_decided, BatchEngine, BatchStats, EngineMode, PairRelation, Tally};
use crate::cache::RegionCache;
use crate::metrics::EngineMetrics;
use crate::policy::{
    BatchOutcome, CompletionStatus, PairError, PairFailure, PairOutcome, RunPolicy,
};
use crate::prefilter::decided_tile;
use cardir_index::{sweep_stabs, Interval};
use cardir_telemetry::trace::{phases, MAIN_TID};
use cardir_telemetry::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Discovers every interacting ordered pair `(i, j)`, `i ≠ j` — the
/// pairs whose relation the boxes alone cannot decide
/// ([`decided_tile`] is `None`) — with one plane sweep per axis, plus
/// the total contact count (the `join.candidates` counter).
///
/// The pairs come back sorted primary-major (ascending `i`, then `j`),
/// each exactly once. Cost: `O(N log N + K)` time, `O(K)` memory.
pub fn interacting_pairs(cache: &RegionCache<'_>) -> (Vec<(u32, u32)>, usize) {
    let n = cache.len();
    assert!(u32::try_from(n).is_ok(), "the join packs region indices into u32 pairs");
    let mut candidates = 0usize;
    // Packed (i << 32 | j) so sort + dedup run on plain u64s. A pair can
    // be reported up to four times (each of j's two grid coordinates per
    // axis), so dedup is required, not just cosmetic.
    let mut packed: Vec<u64> = Vec::new();
    let mut axis = |coord: &dyn Fn(usize) -> (f64, f64)| {
        let intervals: Vec<Interval> =
            (0..n).map(|i| { let (lo, hi) = coord(i); Interval::new(lo, hi) }).collect();
        let mut points = Vec::with_capacity(2 * n);
        for iv in &intervals {
            points.push(iv.lo);
            points.push(iv.hi);
        }
        sweep_stabs(&intervals, &points, &mut |i, p| {
            candidates += 1;
            let j = p / 2;
            if i != j {
                packed.push(((i as u64) << 32) | j as u64);
            }
        });
    };
    axis(&|i| { let b = cache.mbb(i); (b.min.x, b.max.x) });
    axis(&|i| { let b = cache.mbb(i); (b.min.y, b.max.y) });
    packed.sort_unstable();
    packed.dedup();
    let pairs = packed.into_iter().map(|w| ((w >> 32) as u32, (w & 0xFFFF_FFFF) as u32)).collect();
    (pairs, candidates)
}

/// Result of [`BatchEngine::run_join`]: the exact subset's outcomes plus
/// the partition accounting, *without* the mask-emitted pairs — memory
/// is bounded by the interacting set, not by `N²`.
///
/// The mask-emitted pairs are counted as succeeded (their relation is
/// proven by the boxes; producing it is `O(1)`); call
/// [`materialize`](JoinOutcome::materialize) to actually expand them.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Number of regions in the cache.
    pub regions: usize,
    /// One outcome per interacting pair, sorted primary-major — the
    /// exact subset only.
    pub interacting: Vec<PairOutcome>,
    /// How the exact pass ended; mask emission cannot fail or stop.
    pub status: CompletionStatus,
    /// Mask-emitted pairs plus exact successes.
    pub succeeded: usize,
    /// Exact pairs that failed permanently.
    pub failed: usize,
    /// Exact pairs skipped by deadline/cancel.
    pub skipped: usize,
    /// Counters over the whole pair space (`metrics.stats.pairs ==
    /// N·(N−1)`), stage timings (`metrics.discover` is the sweep), and
    /// the fault tally.
    pub metrics: EngineMetrics,
    mode: EngineMode,
    panic_isolation: bool,
    tracer: Tracer,
}

impl JoinOutcome {
    /// Total ordered pairs of the configuration
    /// (`succeeded + failed + skipped`).
    pub fn total(&self) -> usize {
        self.metrics.stats.pairs
    }

    /// Expands to the full [`BatchOutcome`]: every ordered pair in
    /// primary-major order, mask-emitted relations produced by
    /// `emit_decided`. The partition counters carry over unchanged;
    /// the quantitative tile-`N` fallback adds its kernel work to
    /// `edges_scanned`/`fused_pairs`. Allocates `O(N²)`; large maps
    /// should consume [`JoinOutcome::interacting`] directly instead.
    pub fn materialize(self, cache: &RegionCache<'_>) -> BatchOutcome {
        let JoinOutcome {
            regions: n,
            interacting,
            status,
            succeeded,
            failed,
            skipped,
            mut metrics,
            mode,
            panic_isolation,
            tracer,
        } = self;
        let mut trace = tracer.thread(MAIN_TID);
        let trace_start = trace.begin();
        let mut pairs = Vec::with_capacity(metrics.stats.pairs);
        let mut tally = Tally::default();
        let mut exact = interacting.into_iter().peekable();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // The exact subset is sorted primary-major like this
                // double loop, so one peek decides which side owns (i, j).
                if exact.peek().is_some_and(|p| p.indices() == (i, j)) {
                    pairs.push(exact.next().expect("peeked"));
                } else {
                    pairs.push(emit_pair(cache, i, j, mode, panic_isolation, &mut tally));
                }
            }
        }
        debug_assert!(exact.peek().is_none(), "every interacting pair was consumed");
        trace.end(trace_start, phases::MATERIALIZE, None);
        drop(trace);

        // Emission can itself fail (an isolated panic in the quantitative
        // N-tile fallback): move those pairs from succeeded to failed.
        let emit_failed = tally.faults.failed_pairs;
        let succeeded = succeeded - emit_failed;
        let failed = failed + emit_failed;
        let status = if emit_failed > 0 && status == CompletionStatus::Complete {
            CompletionStatus::PartialPanics
        } else {
            status
        };
        metrics.stats.edges_scanned += tally.edges_scanned;
        metrics.stats.fused_pairs += tally.fused;
        metrics.faults.merge(&tally.faults);
        BatchOutcome { pairs, status, succeeded, failed, skipped, metrics }
    }
}

/// Emits one mask-decided pair during materialisation, under the same
/// panic-isolation contract as the worker pipeline.
fn emit_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    isolate: bool,
    tally: &mut Tally,
) -> PairOutcome {
    if !isolate {
        return PairOutcome::Ok(emit_checked(cache, i, j, mode, tally));
    }
    match catch_unwind(AssertUnwindSafe(|| emit_checked(cache, i, j, mode, tally))) {
        Ok(pr) => PairOutcome::Ok(pr),
        Err(payload) => {
            tally.faults.panics_caught += 1;
            tally.faults.failed_pairs += 1;
            PairOutcome::Failed(PairError {
                primary: i,
                reference: j,
                failure: PairFailure::Panicked(cardir_faults::panic_message(payload)),
                attempts: 1,
            })
        }
    }
}

/// Re-derives the decided tile and emits: the sweep already proved the
/// pair non-interacting, so `decided_tile` cannot be `None` here.
fn emit_checked(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let tile = decided_tile(cache.mbb(i), cache.mbb(j))
        .expect("the sweep routed every interacting pair to the exact set");
    emit_decided(cache, i, j, tile, mode, tally)
}

impl BatchEngine {
    /// Computes every ordered pair under `policy` via the spatial join,
    /// returning the compact [`JoinOutcome`]: exact outcomes for the `K`
    /// interacting pairs, counters for the rest. Memory is `O(K)`, not
    /// `O(N²)`.
    pub fn run_join(&self, cache: &RegionCache<'_>, policy: &RunPolicy) -> JoinOutcome {
        let n = cache.len();
        let mut trace = self.tracer().thread(MAIN_TID);
        let trace_start = trace.begin();
        let discover_start = Instant::now();
        let (work, candidates) = interacting_pairs(cache);
        let discover = discover_start.elapsed();
        trace.end(trace_start, phases::SWEEP_PARTITION, None);
        drop(trace);
        let total = n * n.saturating_sub(1);
        let sub = self.run(
            cache,
            work.len(),
            |k| (work[k].0 as usize, work[k].1 as usize),
            policy,
        );
        let mask_emitted = total - work.len();
        let mut metrics = sub.metrics;
        metrics.stats = BatchStats { pairs: total, mask_emitted, candidates, ..metrics.stats };
        metrics.discover = discover;
        JoinOutcome {
            regions: n,
            interacting: sub.pairs,
            status: sub.status,
            succeeded: mask_emitted + sub.succeeded,
            failed: sub.failed,
            skipped: sub.skipped,
            metrics,
            mode: self.mode(),
            panic_isolation: policy.panic_isolation,
            tracer: self.tracer().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::{BoundingBox, Point, Region};
    use cardir_workloads::SplitMix64;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Quadratic oracle: the interacting set is exactly the undecided
    /// ordered pairs.
    fn oracle(cache: &RegionCache<'_>) -> Vec<(u32, u32)> {
        let n = cache.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && decided_tile(cache.mbb(i), cache.mbb(j)).is_none() {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Quadratic contact count: per region, the boxes whose closed
    /// interval contains each of its four grid coordinates.
    fn contact_oracle(cache: &RegionCache<'_>) -> usize {
        let n = cache.len();
        let mut contacts = 0;
        for j in 0..n {
            let b = cache.mbb(j);
            for i in 0..n {
                let a = cache.mbb(i);
                let within = |lo: f64, hi: f64, c: f64| usize::from(lo <= c && c <= hi);
                contacts += within(a.min.x, a.max.x, b.min.x)
                    + within(a.min.x, a.max.x, b.max.x)
                    + within(a.min.y, a.max.y, b.min.y)
                    + within(a.min.y, a.max.y, b.max.y);
            }
        }
        contacts
    }

    fn assert_join_matches_oracle(regions: &[Region]) {
        let cache = RegionCache::build(regions);
        let (got, candidates) = interacting_pairs(&cache);
        assert_eq!(got, oracle(&cache), "interacting set must match the quadratic oracle");
        // Exactly once: strictly increasing packed order proves no dups.
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
        assert_eq!(candidates, contact_oracle(&cache), "one candidate per grid-line contact");
    }

    /// Random lattice rectangles: half-integer endpoints force plenty of
    /// exact ties (shared grid lines, corner contact).
    fn lattice_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x0 = rng.random_range(-20i64..20) as f64 / 2.0;
                let y0 = rng.random_range(-20i64..20) as f64 / 2.0;
                let w = rng.random_range(1i64..12) as f64 / 2.0;
                let h = rng.random_range(1i64..12) as f64 / 2.0;
                rect(x0, y0, x0 + w, y0 + h)
            })
            .collect()
    }

    #[test]
    fn interacting_pairs_matches_oracle_on_lattice_maps() {
        for seed in 0..30 {
            let n = 2 + (seed as usize % 11);
            assert_join_matches_oracle(&lattice_regions(seed, n));
        }
    }

    #[test]
    fn interacting_pairs_matches_oracle_on_slivers_and_contacts() {
        // Degenerate-ish geometry: hairline slivers, shared edges, corner
        // touches, one box containing everything.
        let regions = vec![
            rect(0.0, 0.0, 4.0, 4.0),
            rect(4.0, 4.0, 6.0, 6.0),   // corner contact with 0
            rect(0.0, 4.0, 4.0, 8.0),   // edge contact with 0
            rect(1.0, 1.0, 3.0, 1.001), // sliver inside 0
            rect(-10.0, -10.0, 20.0, 20.0), // contains everything
            rect(30.0, 30.0, 31.0, 31.0),   // far away, decided vs most
        ];
        assert_join_matches_oracle(&regions);
    }

    #[test]
    fn interacting_pairs_empty_and_single() {
        let cache = RegionCache::build(std::iter::empty());
        assert_eq!(interacting_pairs(&cache), (Vec::new(), 0));
        let one = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&one);
        let (pairs, candidates) = interacting_pairs(&cache);
        assert!(pairs.is_empty(), "a single region has no ordered pairs");
        assert_eq!(candidates, 4, "the region still contacts its own four grid coordinates");
    }

    fn map_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let extent =
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0));
        cardir_workloads::random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect()
    }

    #[test]
    fn materialized_join_matches_the_exact_path_on_every_pair() {
        let regions = map_regions(11, 30);
        let cache = RegionCache::build(&regions);
        let every: Vec<(usize, usize)> =
            (0..30).flat_map(|i| (0..30).filter(move |&j| j != i).map(move |j| (i, j))).collect();
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let engine = BatchEngine::new().with_mode(mode).with_threads(2);
            let exact = engine.run_pairs(&cache, &every, &RunPolicy::default()).unwrap();
            let joined = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
            assert_eq!(joined.status, CompletionStatus::Complete);
            assert_eq!(joined.pairs.len(), exact.pairs.len());
            for (got, want) in joined.pairs.iter().zip(&exact.pairs) {
                let (got, want) = (got.ok().unwrap(), want.ok().unwrap());
                assert_eq!((got.primary, got.reference), (want.primary, want.reference));
                assert_eq!(got.relation, want.relation, "mode {mode:?}");
                assert_eq!(got.percentages, want.percentages, "mode {mode:?}");
            }
            // Kernel work: every exact pair, plus the quantitative
            // tile-N fallbacks, each scanning its primary's edges once.
            let kernel: Vec<&PairRelation> =
                joined.relations().filter(|p| !p.via_prefilter).collect();
            let stats = joined.metrics.stats;
            assert_eq!(stats.fused_pairs, kernel.len());
            assert_eq!(
                stats.edges_scanned,
                kernel.iter().map(|p| cache.edge_count(p.primary)).sum::<usize>()
            );
        }
    }

    /// The accounting closes without materializing, and the partition
    /// counters close over the pair space on the compact outcome and
    /// carry over to the materialized one unchanged.
    #[test]
    fn join_outcome_accounting_closes_without_materializing() {
        let regions = map_regions(23, 40);
        let cache = RegionCache::build(&regions);
        let total = 40 * 39;
        let (interacting, candidates) = interacting_pairs(&cache);
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let outcome =
                BatchEngine::new().with_mode(mode).with_threads(2).run_join(&cache, &RunPolicy::default());
            assert_eq!(outcome.total(), total);
            assert_eq!(outcome.succeeded + outcome.failed + outcome.skipped, total);
            assert_eq!(outcome.status, CompletionStatus::Complete);
            // Every interacting outcome really is an undecided pair.
            for p in &outcome.interacting {
                let (i, j) = p.indices();
                assert_eq!(decided_tile(cache.mbb(i), cache.mbb(j)), None, "pair ({i}, {j})");
            }
            let compact = outcome.metrics.stats;
            assert_eq!(compact.mask_emitted + compact.exact_pairs, compact.pairs);
            assert_eq!(compact.exact_pairs, interacting.len());
            assert_eq!(outcome.interacting.len(), interacting.len());
            assert_eq!(compact.candidates, candidates);
            assert!(
                compact.mask_emitted > compact.exact_pairs,
                "a scattered map is mostly mask-emitted: {compact:?}"
            );
            let full = outcome.materialize(&cache).metrics.stats;
            assert_eq!(
                (full.pairs, full.mask_emitted, full.exact_pairs, full.candidates),
                (compact.pairs, compact.mask_emitted, compact.exact_pairs, compact.candidates),
                "{mode:?}: materializing must not move the partition"
            );
            assert!(full.edges_scanned >= compact.edges_scanned);
        }
    }

    #[test]
    fn run_join_on_tiny_maps() {
        let cache = RegionCache::build(std::iter::empty());
        let outcome = BatchEngine::new().run_join(&cache, &RunPolicy::default());
        assert_eq!(outcome.total(), 0);
        assert_eq!(outcome.metrics.stats.mask_emitted + outcome.metrics.stats.exact_pairs, 0);
        let materialized = outcome.materialize(&cache);
        assert!(materialized.pairs.is_empty());
        assert_eq!(materialized.status, CompletionStatus::Complete);
    }
}
