//! The MBB spatial join: the batch path for a whole map.
//!
//! A map of `N` regions has `N·(N−1)` ordered pairs, but most of them are
//! decided by their boxes alone: the primary's MBB lies strictly inside
//! one tile of the reference's grid ([`decided_tile`]). Two plane sweeps
//! over the region MBBs (see [`cardir_index::sweep_stabs`]) discover the
//! *interacting* pairs — the ones a grid-line contact sends down the
//! exact pipeline. The sweeps cost `O(N log N + C)` for `C` contacts
//! (`C ≤ 4K + 4N` for `K` interacting pairs: up to four per pair, plus
//! each box's four contacts with its own grid coordinates).
//! A counting sort by primary then scatters the contacts into one row
//! per primary (compressed sparse rows), and each short row is sorted and
//! deduplicated on its own, so no sort runs over the whole contact list.
//! The exact pass takes its work items from those rows in order. That
//! partitions the pair space:
//!
//! - **mask-emitted** — the `N·(N−1) − K` non-interacting pairs. Their
//!   relation is the single-tile relation, emitted by `emit_decided`.
//!   These pairs are never enumerated as work items.
//! - **exact** — the `K` interacting pairs, which flow through the
//!   chunked worker pipeline (panic isolation, deadline).
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
//! regardless of the deadline — a join whose deadline passed before the
//! exact pass still reports them as succeeded. Likewise the
//! `engine.pair.compute` failpoint only fires for exact work items:
//! emitted pairs never were work items. Panic isolation still covers
//! emission itself: each emit runs under `catch_unwind` during
//! materialisation.

use crate::batch::{emit_decided, BatchEngine, BatchStats, EngineMode, PairRelation};
use crate::cache::RegionCache;
use crate::policy::{
    BatchOutcome, CompletionStatus, PairError, PairFailure, PairOutcome, RunPolicy,
};
use crate::prefilter::decided_tile;
use cardir_index::{sweep_stabs, Interval};
use cardir_telemetry::trace::{phases, MAIN_TID};
use cardir_telemetry::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The interacting pairs of a map as compressed sparse rows: primary
/// `i`'s references are `refs[offsets[i]..offsets[i + 1]]`, ascending and
/// distinct, so walking the rows in order yields the pairs primary-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairRows {
    /// Row starts into `refs`, `regions + 1` entries.
    pub(crate) offsets: Vec<usize>,
    /// Reference indices, row after row.
    pub(crate) refs: Vec<u32>,
}

impl PairRows {
    /// Number of pairs over all rows.
    pub(crate) fn len(&self) -> usize {
        self.refs.len()
    }

    /// Every pair `(i, j)`, row after row: primary-major with ascending
    /// `j`. The primary advances along `offsets` as the walk crosses each
    /// row end.
    pub(crate) fn pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let mut i = 0;
        self.refs.iter().enumerate().map(move |(k, &j)| {
            while k >= self.offsets[i + 1] {
                i += 1;
            }
            (i, j as usize)
        })
    }
}

/// Discovers the interacting ordered pairs `(i, j)`, `i ≠ j`, as rows
/// per primary ([`PairRows`]), plus the total contact count (the
/// `join.candidates` counter).
///
/// One plane sweep per axis reports every contact; a counting sort by
/// primary scatters the contacts into rows, and each row, as long as the
/// primary's contact list, is sorted and deduplicated on its own (a pair
/// is reported up to four times, once per grid coordinate of `j` that
/// `i`'s box touches). Cost: the two sweeps plus `O(N + C)` for `C`
/// contacts, except that a row spread over more than twice as many
/// 64-bit words of region indices as it has contacts takes a comparison
/// sort; `O(N + C)` memory. No sort runs over the whole contact list.
pub(crate) fn interacting_rows(cache: &RegionCache<'_>) -> (PairRows, usize) {
    let n = cache.len();
    assert!(
        u32::try_from(n).is_ok(),
        "the join stores region indices as u32"
    );
    let mut candidates = 0usize;
    // Contacts in sweep order, and per-primary counts at `offsets[i + 1]`.
    let mut contacts: Vec<(u32, u32)> = Vec::new();
    let mut offsets = vec![0usize; n + 1];
    let mut axis = |coord: &dyn Fn(usize) -> (f64, f64)| {
        let intervals: Vec<Interval> = (0..n)
            .map(|i| {
                let (lo, hi) = coord(i);
                Interval::new(lo, hi)
            })
            .collect();
        let mut points = Vec::with_capacity(2 * n);
        for iv in &intervals {
            points.push(iv.lo);
            points.push(iv.hi);
        }
        sweep_stabs(&intervals, &points, &mut |i, p| {
            candidates += 1;
            let j = p / 2;
            if i != j {
                offsets[i + 1] += 1;
                contacts.push((i as u32, j as u32));
            }
        });
    };
    axis(&|i| {
        let b = cache.mbb(i);
        (b.min.x, b.max.x)
    });
    axis(&|i| {
        let b = cache.mbb(i);
        (b.min.y, b.max.y)
    });
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut refs = vec![0u32; contacts.len()];
    let mut cursor = offsets.clone();
    for (i, j) in contacts {
        let at = &mut cursor[i as usize];
        refs[*at] = j;
        *at += 1;
    }
    // Sort and dedup each row, compacting the rows towards the front:
    // row `i` is written at `w <= offsets[i]`, so nothing unread is
    // overwritten. A row whose references span few 64-bit words goes
    // through a bitmap: set one bit per reference, then read the set bits
    // back in ascending order, which also drops the duplicates, in
    // O(row + span / 64). A row spread wider is sorted instead, so no row
    // pays for more than twice its length in words. On a 10k-region map
    // the bitmap cuts discovery from ~76 to ~51 ms against sorting every
    // row (DESIGN §10).
    let mut seen = vec![0u64; n.div_ceil(64)];
    let mut w = 0;
    for i in 0..n {
        let (start, end) = (offsets[i], offsets[i + 1]);
        offsets[i] = w;
        let row = &refs[start..end];
        let (Some(&lo), Some(&hi)) = (row.iter().min(), row.iter().max()) else {
            continue;
        };
        let words = lo as usize / 64..=hi as usize / 64;
        if words.end() - words.start() <= 2 * row.len() {
            for &j in row {
                seen[j as usize / 64] |= 1 << (j % 64);
            }
            for word in words {
                let mut bits = std::mem::take(&mut seen[word]);
                while bits != 0 {
                    refs[w] = (word * 64) as u32 + bits.trailing_zeros();
                    w += 1;
                    bits &= bits - 1;
                }
            }
        } else {
            refs[start..end].sort_unstable();
            for k in start..end {
                if k == start || refs[k] != refs[k - 1] {
                    refs[w] = refs[k];
                    w += 1;
                }
            }
        }
    }
    offsets[n] = w;
    refs.truncate(w);
    (PairRows { offsets, refs }, candidates)
}

/// Discovers every interacting ordered pair `(i, j)`, `i ≠ j` — the
/// pairs whose relation the boxes alone cannot decide
/// ([`decided_tile`] is `None`) — plus the total contact count (the
/// `join.candidates` counter).
///
/// The pairs come back sorted primary-major (ascending `i`, then `j`),
/// each exactly once: the rows of the join's discovery, flattened. Cost:
/// two plane sweeps, then `O(N + C)` for `C` contacts (see
/// `interacting_rows`), and `O(C)` memory.
pub fn interacting_pairs(cache: &RegionCache<'_>) -> (Vec<(u32, u32)>, usize) {
    let (rows, candidates) = interacting_rows(cache);
    let pairs = rows.pairs().map(|(i, j)| (i as u32, j as u32)).collect();
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
    /// Exact pairs that failed.
    pub failed: usize,
    /// Exact pairs skipped by the deadline.
    pub skipped: usize,
    /// Counters over the whole pair space (`stats.pairs == N·(N−1)`),
    /// stage timings (`stats.discover` is the sweep), and the fault
    /// counters.
    pub stats: BatchStats,
    mode: EngineMode,
    tracer: Tracer,
}

impl JoinOutcome {
    /// Total ordered pairs of the configuration
    /// (`succeeded + failed + skipped`).
    pub fn total(&self) -> usize {
        self.stats.pairs
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
            mut stats,
            mode,
            tracer,
        } = self;
        let mut trace = tracer.thread(MAIN_TID);
        let trace_start = trace.begin();
        let mut pairs = Vec::with_capacity(stats.pairs);
        let mut emitted = BatchStats::default();
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
                    pairs.push(emit_pair(cache, i, j, mode, &mut emitted));
                }
            }
        }
        debug_assert!(
            exact.peek().is_none(),
            "every interacting pair was consumed"
        );
        trace.end(trace_start, phases::MATERIALIZE, None);
        drop(trace);

        // Emission can itself fail (an isolated panic in the quantitative
        // N-tile fallback): move those pairs from succeeded to failed.
        let emit_failed = emitted.failed_pairs;
        let succeeded = succeeded - emit_failed;
        let failed = failed + emit_failed;
        let status = if emit_failed > 0 && status == CompletionStatus::Complete {
            CompletionStatus::PartialPanics
        } else {
            status
        };
        stats.merge(&emitted);
        BatchOutcome {
            pairs,
            status,
            succeeded,
            failed,
            skipped,
            stats,
        }
    }
}

/// Emits one mask-decided pair during materialisation, under the same
/// panic isolation as the worker pipeline.
fn emit_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    stats: &mut BatchStats,
) -> PairOutcome {
    match catch_unwind(AssertUnwindSafe(|| emit_checked(cache, i, j, mode, stats))) {
        Ok(pr) => PairOutcome::Ok(pr),
        Err(payload) => {
            stats.panics_caught += 1;
            stats.failed_pairs += 1;
            PairOutcome::Failed(PairError {
                primary: i,
                reference: j,
                failure: PairFailure::Panicked(cardir_faults::panic_message(payload)),
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
    stats: &mut BatchStats,
) -> PairRelation {
    let tile = decided_tile(cache.mbb(i), cache.mbb(j))
        .expect("the sweep routed every interacting pair to the exact set");
    emit_decided(cache, i, j, tile, mode, stats)
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
        let (rows, candidates) = interacting_rows(cache);
        let discover = discover_start.elapsed();
        trace.end(trace_start, phases::SWEEP_PARTITION, None);
        drop(trace);
        let total = n * n.saturating_sub(1);
        let sub = self.run(cache, rows.pairs(), policy);
        let mask_emitted = total - rows.len();
        let stats = BatchStats {
            pairs: total,
            mask_emitted,
            candidates,
            discover,
            ..sub.stats
        };
        JoinOutcome {
            regions: n,
            interacting: sub.pairs,
            status: sub.status,
            succeeded: mask_emitted + sub.succeeded,
            failed: sub.failed,
            skipped: sub.skipped,
            stats,
            mode: self.mode(),
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
        assert_eq!(
            got,
            oracle(&cache),
            "interacting set must match the quadratic oracle"
        );
        // Exactly once: strictly increasing packed order proves no dups.
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "sorted, duplicate-free"
        );
        assert_eq!(
            candidates,
            contact_oracle(&cache),
            "one candidate per grid-line contact"
        );
        assert_rows_well_formed(&cache, &got, candidates);
    }

    /// The rows behind `interacting_pairs`: one per region, each strictly
    /// ascending (sorted, no duplicate), flattening to exactly `pairs`,
    /// with the same contact count.
    fn assert_rows_well_formed(cache: &RegionCache<'_>, pairs: &[(u32, u32)], candidates: usize) {
        let (rows, row_candidates) = interacting_rows(cache);
        assert_eq!(row_candidates, candidates);
        assert_eq!(rows.offsets.len(), cache.len() + 1);
        assert_eq!(
            (rows.offsets[0], rows.offsets[cache.len()]),
            (0, rows.len())
        );
        for (i, w) in rows.offsets.windows(2).enumerate() {
            let row = &rows.refs[w[0]..w[1]];
            assert!(
                row.windows(2).all(|r| r[0] < r[1]),
                "row {i} ascends: {row:?}"
            );
            assert!(!row.contains(&(i as u32)), "row {i} holds no self-pair");
        }
        let flat: Vec<(u32, u32)> = rows.pairs().map(|(i, j)| (i as u32, j as u32)).collect();
        assert_eq!(flat, pairs);
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
            rect(4.0, 4.0, 6.0, 6.0),       // corner contact with 0
            rect(0.0, 4.0, 4.0, 8.0),       // edge contact with 0
            rect(1.0, 1.0, 3.0, 1.001),     // sliver inside 0
            rect(-10.0, -10.0, 20.0, 20.0), // contains everything
            rect(30.0, 30.0, 31.0, 31.0),   // far away, decided vs most
        ];
        assert_join_matches_oracle(&regions);
    }

    #[test]
    fn interacting_pairs_empty_and_single() {
        let cache = RegionCache::build(std::iter::empty());
        assert_eq!(interacting_pairs(&cache), (Vec::new(), 0));
        let rows = interacting_rows(&cache).0;
        assert_eq!(
            rows,
            PairRows {
                offsets: vec![0],
                refs: Vec::new()
            }
        );
        assert_eq!(rows.pairs().len(), 0);
        let one = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&one);
        let (pairs, candidates) = interacting_pairs(&cache);
        assert!(pairs.is_empty(), "a single region has no ordered pairs");
        assert_eq!(
            candidates, 4,
            "the region still contacts its own four grid coordinates"
        );
        let rows = interacting_rows(&cache).0;
        assert_eq!(
            rows,
            PairRows {
                offsets: vec![0, 0],
                refs: Vec::new()
            }
        );
    }

    /// A box containing another reports the pair through all four of the
    /// inner box's grid coordinates; the row holds it once. The inner box
    /// touches none of the outer one's coordinates, so its own row is
    /// empty, and the rows still flatten primary-major.
    #[test]
    fn a_pair_every_contact_reports_appears_once() {
        let regions = vec![
            rect(2.0, 2.0, 8.0, 8.0),
            rect(0.0, 0.0, 10.0, 10.0),
            rect(20.0, 20.0, 21.0, 21.0),
        ];
        let cache = RegionCache::build(&regions);
        assert_eq!(
            contact_oracle(&cache),
            3 * 4 + 4,
            "self-contacts plus four for (1, 0)"
        );
        let (rows, candidates) = interacting_rows(&cache);
        assert_eq!(candidates, 16);
        assert_eq!(
            rows,
            PairRows {
                offsets: vec![0, 0, 1, 1],
                refs: vec![0]
            }
        );
        assert_eq!(interacting_pairs(&cache).0, vec![(1, 0)]);
        assert_join_matches_oracle(&regions);
    }

    /// Region 0 touches both x coordinates of region 1 and one y
    /// coordinate of the last region, and nothing else: its row holds
    /// three contacts for two references many words of indices apart, so
    /// it takes the sort path, not the bitmap, and must still dedup.
    #[test]
    fn a_row_spread_over_many_words_is_sorted() {
        let n = 1000;
        let mut regions = vec![rect(9.5, 9989.5, 11.5, 9990.5)];
        regions.extend((1..n).map(|k| {
            let c = 10.0 * k as f64;
            rect(c, c, c + 1.0, c + 1.0)
        }));
        let cache = RegionCache::build(&regions);
        let rows = interacting_rows(&cache).0;
        assert_eq!(
            &rows.refs[rows.offsets[0]..rows.offsets[1]],
            &[1, (n - 1) as u32]
        );
        assert_join_matches_oracle(&regions);
    }

    fn map_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0));
        cardir_workloads::random_map(&mut rng, n, extent)
            .into_iter()
            .map(|m| m.region)
            .collect()
    }

    #[test]
    fn materialized_join_matches_the_exact_path_on_every_pair() {
        let regions = map_regions(11, 30);
        let cache = RegionCache::build(&regions);
        let every: Vec<(usize, usize)> = (0..30)
            .flat_map(|i| (0..30).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let engine = BatchEngine::new().with_mode(mode).with_threads(2);
            let exact = engine
                .run_pairs(&cache, &every, &RunPolicy::default())
                .unwrap();
            let joined = engine
                .run_join(&cache, &RunPolicy::default())
                .materialize(&cache);
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
            let stats = &joined.stats;
            assert_eq!(stats.fused_pairs, kernel.len());
            assert_eq!(
                stats.edges_scanned,
                kernel
                    .iter()
                    .map(|p| cache.edge_count(p.primary))
                    .sum::<usize>()
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
            let outcome = BatchEngine::new()
                .with_mode(mode)
                .with_threads(2)
                .run_join(&cache, &RunPolicy::default());
            assert_eq!(outcome.total(), total);
            assert_eq!(outcome.succeeded + outcome.failed + outcome.skipped, total);
            assert_eq!(outcome.status, CompletionStatus::Complete);
            // Every interacting outcome really is an undecided pair.
            for p in &outcome.interacting {
                let (i, j) = p.indices();
                assert_eq!(
                    decided_tile(cache.mbb(i), cache.mbb(j)),
                    None,
                    "pair ({i}, {j})"
                );
            }
            let compact = outcome.stats.clone();
            assert_eq!(compact.mask_emitted + compact.exact_pairs, compact.pairs);
            assert_eq!(compact.exact_pairs, interacting.len());
            assert_eq!(outcome.interacting.len(), interacting.len());
            assert_eq!(compact.candidates, candidates);
            assert!(
                compact.mask_emitted > compact.exact_pairs,
                "a scattered map is mostly mask-emitted: {compact:?}"
            );
            let full = outcome.materialize(&cache).stats;
            assert_eq!(
                (
                    full.pairs,
                    full.mask_emitted,
                    full.exact_pairs,
                    full.candidates
                ),
                (
                    compact.pairs,
                    compact.mask_emitted,
                    compact.exact_pairs,
                    compact.candidates
                ),
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
        assert_eq!(outcome.stats.mask_emitted + outcome.stats.exact_pairs, 0);
        let materialized = outcome.materialize(&cache);
        assert!(materialized.pairs.is_empty());
        assert_eq!(materialized.status, CompletionStatus::Complete);
    }
}
