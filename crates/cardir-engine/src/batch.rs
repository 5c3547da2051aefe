//! The batch engine: chunked, multi-threaded pair computation with
//! deterministic assembly.
//!
//! Every batch run is one pipeline — **cache → sweep → exact pass**:
//!
//! 1. **Cache** — the caller builds a [`RegionCache`] (MBBs, edge
//!    counts, SoA edge store) once per map.
//! 2. **Sweep** — for a whole map, [`BatchEngine::run_join`] discovers
//!    the interacting pairs with two MBB plane sweeps; every other pair
//!    is decided by the boxes and emitted without edge work. An explicit
//!    pair list ([`BatchEngine::run_pairs`]) skips this stage: its pairs
//!    are the work items as given.
//! 3. **Exact pass** — the work items are cut into fixed chunks; scoped
//!    worker threads pull chunk indices from an atomic counter, compute
//!    each pair with the fused SoA kernels, and push their chunk back
//!    tagged with its index. Sorting the finished chunks by index
//!    restores exact input order, so the output is bit-identical no
//!    matter how many workers ran or how the scheduler interleaved them.
//!
//! Every run executes under a [`RunPolicy`]: each pair attempt is wrapped
//! in `catch_unwind` (so one poisoned pair becomes a
//! [`PairOutcome::Failed`] instead of aborting the batch), transient
//! failures retry with bounded deterministic backoff, and deadline /
//! cancellation checks run cooperatively between chunks; the returned
//! [`BatchOutcome`] reports every pair's fate. Fault injection for tests
//! rides on `cardir-faults` failpoints (`engine.pair.compute`,
//! `engine.chunk.claim`, `engine.cache.insert`), which compile to a
//! single relaxed atomic load when unarmed.

use crate::cache::RegionCache;
use crate::metrics::EngineMetrics;
use crate::policy::{
    BatchOutcome, CompletionStatus, FaultTally, PairError, PairFailure, PairOutcome, RunPolicy,
};
use cardir_core::{
    areas_from_soa, cdr_areas_from_soa, cdr_from_soa, CardinalRelation, PercentageMatrix, Tile,
};
use cardir_faults::{sites, FaultAction};
use cardir_telemetry::trace::phases;
use cardir_telemetry::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What the engine computes per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Qualitative relations only (`Compute-CDR`).
    Qualitative,
    /// Qualitative relations plus percentage matrices (`Compute-CDR%`).
    Quantitative,
}

/// One computed ordered pair: `primary R reference`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRelation {
    /// Index of the primary region in the cache.
    pub primary: usize,
    /// Index of the reference region in the cache.
    pub reference: usize,
    /// The qualitative relation — bit-identical to
    /// `compute_cdr(primary, reference)`.
    pub relation: CardinalRelation,
    /// The percentage matrix — bit-identical to
    /// `compute_cdr_pct(primary, reference)`. `None` in
    /// [`EngineMode::Qualitative`].
    pub percentages: Option<PercentageMatrix>,
    /// `true` when the boxes decided the whole pair without any edge
    /// work: a mask-emitted pair whose primary MBB lies strictly inside
    /// one tile, except a quantitative tile-`N` pair, whose matrix takes
    /// the kernel (see [`BatchStats::edges_scanned`]).
    pub via_prefilter: bool,
}

/// The counter record of one batch run. Collecting it costs a handful
/// of adds per chunk, so there is no off switch; stage timings live in
/// [`EngineMetrics`], which carries this record.
///
/// The pair space is partitioned, never double-counted:
/// `mask_emitted + exact_pairs == pairs` holds on every outcome — the
/// compact [`JoinOutcome`](crate::JoinOutcome) and its materialized
/// [`BatchOutcome`] report the same three numbers. How the exact pairs
/// ended (succeeded, failed, skipped) is the outcome's accounting, not
/// the partition's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Ordered pairs covered by the run: `N·(N−1)` for a join, the list
    /// length for [`BatchEngine::run_pairs`].
    pub pairs: usize,
    /// Pairs the sweep left to the boxes: decided by
    /// [`decided_tile`](crate::decided_tile), never work items. Always 0
    /// for an explicit pair list.
    pub mask_emitted: usize,
    /// Pairs routed to the exact pipeline as work items — the `K`
    /// interacting pairs of a join, every pair of an explicit list.
    pub exact_pairs: usize,
    /// Interval/grid-coordinate contacts the two sweeps visited
    /// (self-contacts included); 0 for an explicit pair list.
    pub candidates: usize,
    /// Primary-region edges scanned by kernel computations — the paper's
    /// `Σ k_a` cost term. Each edge counts once per computed pair in both
    /// modes (the fused quantitative kernel computes relation and areas
    /// in one sweep). Besides the exact pairs this includes the
    /// quantitative tile-`N` fallback: a mask-emitted pair strictly
    /// inside `N` takes its matrix from the kernel, because the `B`
    /// area is derived from the `N` accumulator and can keep last-ulp
    /// residue. The fallback runs when mask-emitted pairs are produced,
    /// so on a compact join outcome it is not yet included.
    pub edges_scanned: usize,
    /// Kernel computations behind [`BatchStats::edges_scanned`]: every
    /// one runs over the cache's struct-of-arrays store.
    pub fused_pairs: usize,
    /// Worker threads used for the exact pass.
    pub threads: usize,
}

/// The batch pairwise-relation engine.
///
/// ```
/// use cardir_engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
/// use cardir_geometry::Region;
///
/// let regions = vec![
///     Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap(),
///     Region::from_coords([(1.0, 6.0), (3.0, 6.0), (3.0, 8.0), (1.0, 8.0)]).unwrap(),
/// ];
/// let cache = RegionCache::build(&regions);
/// let engine = BatchEngine::new().with_mode(EngineMode::Qualitative).with_threads(2);
/// let result = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
/// let pairs: Vec<_> = result.relations().collect();
/// assert_eq!(pairs.len(), 2);
/// assert_eq!((pairs[0].primary, pairs[0].reference), (0, 1));
/// // Region 0 is south of region 1 but wider, so it spans three tiles.
/// assert_eq!(pairs[0].relation.to_string(), "S:SW:SE");
/// // Region 1 sits strictly inside N(0): the boxes decide it.
/// assert_eq!(pairs[1].relation.to_string(), "N");
/// assert!(pairs[1].via_prefilter);
/// ```
#[derive(Debug, Clone)]
pub struct BatchEngine {
    threads: usize,
    mode: EngineMode,
    tracer: Tracer,
}

/// Errors from the engine's fallible entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A requested pair referenced a region index outside the cache.
    PairOutOfBounds {
        /// The offending `(primary, reference)` pair.
        pair: (usize, usize),
        /// Number of regions in the cache.
        len: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::PairOutOfBounds { pair: (i, j), len } => write!(
                f,
                "pair ({i}, {j}) index out of bounds for a cache of {len} regions"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine::new()
    }
}

/// Chunk size of the work queue: big enough to amortise the atomic
/// fetch and the per-chunk allocation, small enough to load-balance maps
/// where a few regions carry most edges.
const CHUNK: usize = 256;

impl BatchEngine {
    /// An engine using every available core, in qualitative mode.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        BatchEngine { threads, mode: EngineMode::Qualitative, tracer: Tracer::disabled() }
    }

    /// Sets the number of worker threads (clamped to at least 1). The
    /// output is identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets what to compute per pair.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an execution [`Tracer`]: every stage of the pipeline —
    /// sweep discovery, per-worker queue-wait and chunk compute, join
    /// materialisation — records timeline spans into it, tagged with
    /// thread and chunk ids, ready for
    /// [`ChromeTrace`](cardir_telemetry::ChromeTrace) export. The default
    /// is [`Tracer::disabled`], which costs one branch per would-be span
    /// and allocates nothing; computed pairs are bit-identical either way
    /// — tracing only observes.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless [`BatchEngine::with_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The configured mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Computes an explicit list of ordered pairs (e.g. the pairs an
    /// incremental edit invalidated) under `policy`, preserving list
    /// order: one [`PairOutcome`] per pair plus the completion status.
    /// Every pair is an exact work item — there is no sweep to decide
    /// any from boxes — and self-pairs are allowed.
    ///
    /// Returns [`EngineError::PairOutOfBounds`] instead of panicking when
    /// a pair indexes outside the cache, so one malformed request cannot
    /// take down a batch service.
    pub fn run_pairs(
        &self,
        cache: &RegionCache<'_>,
        pairs: &[(usize, usize)],
        policy: &RunPolicy,
    ) -> Result<BatchOutcome, EngineError> {
        let n = cache.len();
        if let Some(&pair) = pairs.iter().find(|&&(i, j)| i >= n || j >= n) {
            return Err(EngineError::PairOutOfBounds { pair, len: n });
        }
        Ok(self.run(cache, pairs.len(), |k| pairs[k], policy))
    }

    /// The chunked parallel driver behind both entry points: computes
    /// `total` work items, item `k` being the pair `pair_at(k)`, all on
    /// the exact path.
    ///
    /// Workers re-check the cancel token and the deadline before claiming
    /// each chunk; chunks never claimed are assembled as
    /// [`PairOutcome::Skipped`] in their input-order slots, so the output
    /// vector always has one entry per work item.
    pub(crate) fn run<F>(
        &self,
        cache: &RegionCache<'_>,
        total: usize,
        pair_at: F,
        policy: &RunPolicy,
    ) -> BatchOutcome
    where
        F: Fn(usize) -> (usize, usize) + Sync,
    {
        let n_chunks = total.div_ceil(CHUNK).max(1);
        let workers = self.threads.min(n_chunks);
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Vec<PairOutcome>, Tally)>> =
            Mutex::new(Vec::with_capacity(n_chunks));
        let per_thread: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        let mode = self.mode;
        let deadline_hits = AtomicUsize::new(0);
        let cancel_hits = AtomicUsize::new(0);

        let exact_start = Instant::now();
        let deadline_at = policy.deadline.and_then(|d| exact_start.checked_add(d));
        {
            let next = &next;
            let done = &done;
            let per_thread = &per_thread[..];
            let pair_at = &pair_at;
            let deadline_hits = &deadline_hits;
            let cancel_hits = &cancel_hits;
            let tracer = &self.tracer;
            std::thread::scope(|s| {
                for (slot, my_pairs) in per_thread.iter().enumerate() {
                    s.spawn(move || {
                        // Worker tids are 1-based; MAIN_TID is the
                        // coordinator. The buffer merges on drop, once.
                        let mut trace = tracer.thread(slot as u32 + 1);
                        let mut worker_pairs = 0usize;
                        loop {
                            // A queue_wait span covers everything between
                            // chunks: the stop checks, the atomic claim,
                            // and any injected claim stall.
                            let wait_start = trace.begin();
                            // Cooperative stop checks, between chunks only
                            // — claimed chunks always run to completion.
                            if let Some(token) = &policy.cancel {
                                if token.is_cancelled() {
                                    cancel_hits.fetch_add(1, Ordering::Relaxed);
                                    trace.end(wait_start, phases::QUEUE_WAIT, None);
                                    break;
                                }
                            }
                            if let Some(t) = deadline_at {
                                if Instant::now() >= t {
                                    deadline_hits.fetch_add(1, Ordering::Relaxed);
                                    trace.end(wait_start, phases::QUEUE_WAIT, None);
                                    break;
                                }
                            }
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                trace.end(wait_start, phases::QUEUE_WAIT, None);
                                break;
                            }
                            // Failpoint: a slow tenant stalling a worker.
                            if let Some(FaultAction::Delay(d)) =
                                cardir_faults::hit(sites::ENGINE_CHUNK_CLAIM)
                            {
                                std::thread::sleep(d);
                            }
                            trace.end(wait_start, phases::QUEUE_WAIT, Some(c as u64));
                            let compute_start = trace.begin();
                            let start = c * CHUNK;
                            let end = (start + CHUNK).min(total);
                            let mut local = Vec::with_capacity(end - start);
                            let mut tally = Tally::default();
                            for k in start..end {
                                let (i, j) = pair_at(k);
                                local.push(run_pair(cache, i, j, mode, policy, &mut tally));
                            }
                            worker_pairs += end - start;
                            // With panic isolation off, an unwinding
                            // worker can poison this lock; recover the
                            // data rather than cascading the panic.
                            done.lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((c, local, tally));
                            trace.end(compute_start, phases::CHUNK_COMPUTE, Some(c as u64));
                        }
                        my_pairs.store(worker_pairs, Ordering::Relaxed);
                    });
                }
            });
        }
        let exact_pass = exact_start.elapsed();

        // Assemble in input order, filling never-claimed chunks with
        // `Skipped` slots.
        let mut slots: Vec<Option<Vec<PairOutcome>>> = (0..n_chunks).map(|_| None).collect();
        let mut totals = Tally::default();
        for (c, local, tally) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
            slots[c] = Some(local);
            totals.merge(&tally);
        }
        let mut pairs = Vec::with_capacity(total);
        let mut skipped = 0usize;
        for (c, slot) in slots.iter_mut().enumerate() {
            match slot.take() {
                Some(local) => pairs.extend(local),
                None => {
                    let start = c * CHUNK;
                    let end = (start + CHUNK).min(total);
                    for k in start..end {
                        let (i, j) = pair_at(k);
                        pairs.push(PairOutcome::Skipped { primary: i, reference: j });
                    }
                    skipped += end - start;
                }
            }
        }
        let failed = totals.faults.failed_pairs;
        let succeeded = total - failed - skipped;
        totals.faults.skipped_pairs = skipped;
        totals.faults.deadline_hits = deadline_hits.load(Ordering::Relaxed);
        totals.faults.cancel_hits = cancel_hits.load(Ordering::Relaxed);

        let status = if skipped > 0 {
            if totals.faults.cancel_hits > 0 {
                CompletionStatus::Cancelled
            } else {
                CompletionStatus::DeadlineExceeded
            }
        } else if failed > 0 {
            CompletionStatus::PartialPanics
        } else {
            CompletionStatus::Complete
        };

        let metrics = EngineMetrics {
            stats: BatchStats {
                pairs: total,
                exact_pairs: total,
                edges_scanned: totals.edges_scanned,
                fused_pairs: totals.fused,
                threads: workers,
                ..BatchStats::default()
            },
            cache_build: cache.build_time(),
            discover: Duration::ZERO,
            exact_pass,
            per_thread_pairs: per_thread.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
            faults: totals.faults,
        };
        BatchOutcome { pairs, status, succeeded, failed, skipped, metrics }
    }
}

/// Runs one pair under the policy: failpoint injection, panic isolation,
/// and the bounded retry loop. Never panics while isolation is on.
fn run_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    policy: &RunPolicy,
    tally: &mut Tally,
) -> PairOutcome {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = if policy.panic_isolation {
            match catch_unwind(AssertUnwindSafe(|| attempt_pair(cache, i, j, mode, tally))) {
                Ok(r) => r,
                Err(payload) => {
                    tally.faults.panics_caught += 1;
                    Err(PairFailure::Panicked(cardir_faults::panic_message(payload)))
                }
            }
        } else {
            attempt_pair(cache, i, j, mode, tally)
        };
        match result {
            Ok(pr) => return PairOutcome::Ok(pr),
            Err(failure) => {
                if matches!(failure, PairFailure::Injected(_)) {
                    tally.faults.injected_failures += 1;
                }
                if attempt <= policy.retries {
                    tally.faults.retries += 1;
                    let delay = policy.backoff_delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                } else {
                    tally.faults.failed_pairs += 1;
                    return PairOutcome::Failed(PairError {
                        primary: i,
                        reference: j,
                        failure,
                        attempts: attempt,
                    });
                }
            }
        }
    }
}

/// One pair attempt: the `engine.pair.compute` failpoint, then the real
/// computation. Runs inside the isolation boundary, so an injected panic
/// behaves exactly like a real one.
fn attempt_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> Result<PairRelation, PairFailure> {
    match cardir_faults::hit(sites::ENGINE_PAIR_COMPUTE) {
        Some(FaultAction::Panic(msg)) => {
            panic!("injected panic at {}: {msg}", sites::ENGINE_PAIR_COMPUTE)
        }
        Some(FaultAction::Error(msg)) | Some(FaultAction::IoError(msg)) => {
            return Err(PairFailure::Injected(msg))
        }
        Some(FaultAction::TornWrite(_)) => {
            return Err(PairFailure::Injected("torn write at a compute site".into()))
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    Ok(compute_pair(cache, i, j, mode, tally))
}

/// Per-chunk counter block carried back with each finished chunk.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Primary edges scanned by kernel computations.
    pub(crate) edges_scanned: usize,
    /// Kernel computations (all over the fused SoA kernels).
    pub(crate) fused: usize,
    /// Fault events observed while computing this chunk.
    pub(crate) faults: FaultTally,
}

impl Tally {
    pub(crate) fn merge(&mut self, other: &Tally) {
        self.edges_scanned += other.edges_scanned;
        self.fused += other.fused;
        self.faults.merge(&other.faults);
    }
}

/// Computes one ordered pair on the exact path with the fused SoA
/// kernels, tallying the edge scan into `tally`.
fn compute_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let mbb = cache.mbb(j);
    tally.edges_scanned += cache.edge_count(i);
    tally.fused += 1;
    let soa = cache.soa(i);
    let (relation, percentages) = match mode {
        EngineMode::Qualitative => (cdr_from_soa(&soa, mbb), None),
        EngineMode::Quantitative => {
            // One fused sweep computes the relation and the areas
            // together.
            let (relation, areas) = cdr_areas_from_soa(&soa, mbb);
            (relation, Some(areas.percentages()))
        }
    };
    PairRelation { primary: i, reference: j, relation, percentages, via_prefilter: false }
}

/// Emits the relation for a pair the boxes alone decide: the primary's
/// MBB lies strictly inside `tile` of the reference's grid. Shared by the
/// spatial join's materialisation and the incremental engine's reads, so
/// both produce the same bits for every decided pair by construction.
pub(crate) fn emit_decided(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    tile: Tile,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let relation = CardinalRelation::single(tile);
    match mode {
        EngineMode::Qualitative => {
            PairRelation { primary: i, reference: j, relation, percentages: None, via_prefilter: true }
        }
        EngineMode::Quantitative => {
            if tile != Tile::N {
                // A primary strictly inside one tile puts 100 % there.
                // `PercentageMatrix::from_areas` normalises x/x to exactly
                // 100.0, so the single-tile matrix has the same bits as
                // the full accumulation.
                PairRelation {
                    primary: i,
                    reference: j,
                    relation,
                    percentages: Some(PercentageMatrix::single_tile(tile)),
                    via_prefilter: true,
                }
            } else {
                // The B tile's area is derived from the N accumulator
                // (area(B) = |a_{B+N}| − |a_N|), so an all-N primary
                // can leave last-ulp residue in B. Take the exact path
                // for the matrix to stay bit-identical; the relation
                // is still the boxes'.
                tally.edges_scanned += cache.edge_count(i);
                tally.fused += 1;
                let m = areas_from_soa(&cache.soa(i), cache.mbb(j)).percentages();
                PairRelation {
                    primary: i,
                    reference: j,
                    relation,
                    percentages: Some(m),
                    via_prefilter: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::{compute_cdr, compute_cdr_pct};
    use cardir_geometry::Region;
    use cardir_telemetry::trace::MAIN_TID;
    use cardir_workloads::SplitMix64;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    fn naive_all(regions: &[Region], quantitative: bool) -> Vec<(usize, usize, CardinalRelation, Option<PercentageMatrix>)> {
        let mut out = Vec::new();
        for (i, a) in regions.iter().enumerate() {
            for (j, b) in regions.iter().enumerate() {
                if i != j {
                    out.push((i, j, compute_cdr(a, b), quantitative.then(|| compute_cdr_pct(a, b))));
                }
            }
        }
        out
    }

    /// Every ordered pair `(i, j)`, `i ≠ j`, in primary-major order.
    fn all_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect()
    }

    fn relations(outcome: &BatchOutcome) -> Vec<PairRelation> {
        outcome.pairs.iter().map(|p| p.ok().expect("clean run").clone()).collect()
    }

    fn random_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let extent = cardir_geometry::BoundingBox::new(
            cardir_geometry::Point::new(0.0, 0.0),
            cardir_geometry::Point::new(500.0, 400.0),
        );
        cardir_workloads::random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect()
    }

    #[test]
    fn materialized_order_is_primary_major() {
        let regions =
            vec![rect(0.0, 0.0, 1.0, 1.0), rect(3.0, 0.0, 4.0, 1.0), rect(0.0, 3.0, 1.0, 4.0)];
        let cache = RegionCache::build(&regions);
        let result =
            BatchEngine::new().with_threads(1).run_join(&cache, &RunPolicy::default()).materialize(&cache);
        let order: Vec<(usize, usize)> = result.pairs.iter().map(PairOutcome::indices).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }

    #[test]
    fn matches_naive_on_random_map_both_modes() {
        let regions = random_regions(7, 25);
        let cache = RegionCache::build(&regions);
        for quantitative in [false, true] {
            let mode =
                if quantitative { EngineMode::Quantitative } else { EngineMode::Qualitative };
            let naive = naive_all(&regions, quantitative);
            for threads in [1, 2, 4] {
                let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
                let joined =
                    relations(&engine.run_join(&cache, &RunPolicy::default()).materialize(&cache));
                let listed = relations(
                    &engine.run_pairs(&cache, &all_pairs(regions.len()), &RunPolicy::default()).unwrap(),
                );
                assert_eq!(joined.len(), naive.len());
                assert_eq!(listed.len(), naive.len());
                for ((got, exact), (i, j, rel, pct)) in joined.iter().zip(&listed).zip(&naive) {
                    for pr in [got, exact] {
                        assert_eq!((pr.primary, pr.reference), (*i, *j));
                        assert_eq!(pr.relation, *rel, "pair ({i}, {j})");
                        assert_eq!(pr.percentages, *pct, "pair ({i}, {j}): bit-identical matrices");
                    }
                    assert!(!exact.via_prefilter, "an explicit list is all exact work");
                }
            }
        }
    }

    #[test]
    fn scattered_map_is_entirely_mask_emitted() {
        // Widely scattered small boxes: every pair is MBB-decided.
        let regions: Vec<Region> = (0..6)
            .map(|i| {
                let x = (i as f64) * 100.0;
                rect(x, x, x + 1.0, x + 1.0)
            })
            .collect();
        let cache = RegionCache::build(&regions);
        let result =
            BatchEngine::new().with_threads(2).run_join(&cache, &RunPolicy::default()).materialize(&cache);
        let stats = result.metrics.stats;
        assert_eq!((stats.pairs, stats.mask_emitted, stats.exact_pairs), (30, 30, 0));
        assert_eq!((stats.edges_scanned, stats.fused_pairs), (0, 0), "no kernel work");
        for p in result.relations() {
            assert!(p.via_prefilter);
            let expect = if p.primary < p.reference { "SW" } else { "NE" };
            assert_eq!(p.relation.to_string(), expect);
        }
    }

    #[test]
    fn explicit_pairs_preserve_order_and_allow_self() {
        let regions = vec![rect(0.0, 0.0, 4.0, 4.0), rect(1.0, 6.0, 3.0, 8.0)];
        let cache = RegionCache::build(&regions);
        let wanted = [(1usize, 0usize), (0, 1), (0, 0), (1, 0)];
        let result =
            BatchEngine::new().with_threads(4).run_pairs(&cache, &wanted, &RunPolicy::default()).unwrap();
        let pairs = relations(&result);
        let order: Vec<(usize, usize)> = pairs.iter().map(|p| (p.primary, p.reference)).collect();
        assert_eq!(order, wanted);
        assert_eq!(pairs[0].relation.to_string(), "N");
        assert_eq!(pairs[1].relation.to_string(), "S:SW:SE", "wider primary spans 3 tiles");
        assert_eq!(pairs[2].relation.to_string(), "B", "self pair");
        assert_eq!(pairs[3], pairs[0]);
        let stats = result.metrics.stats;
        assert_eq!((stats.pairs, stats.mask_emitted, stats.exact_pairs), (4, 0, 4));
    }

    #[test]
    fn empty_and_single_region_maps() {
        let policy = RunPolicy::default();
        let cache = RegionCache::build(std::iter::empty());
        assert!(BatchEngine::new().run_join(&cache, &policy).materialize(&cache).pairs.is_empty());
        let one = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&one);
        assert!(BatchEngine::new().run_join(&cache, &policy).materialize(&cache).pairs.is_empty());
        let listed = BatchEngine::new().run_pairs(&cache, &[], &policy).unwrap();
        assert!(listed.pairs.is_empty());
        assert_eq!(listed.status, CompletionStatus::Complete);
    }

    #[test]
    fn run_pairs_reports_out_of_bounds() {
        let regions = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&regions);
        let policy = RunPolicy::default();
        let err = BatchEngine::new().run_pairs(&cache, &[(0, 0), (0, 1)], &policy).unwrap_err();
        assert_eq!(err, EngineError::PairOutOfBounds { pair: (0, 1), len: 1 });
        assert!(err.to_string().contains("out of bounds"));
        let ok = BatchEngine::new().run_pairs(&cache, &[(0, 0)], &policy).unwrap();
        assert_eq!(ok.pairs.len(), 1);
    }

    #[test]
    fn traced_run_is_bit_identical_and_covers_every_chunk() {
        let regions = random_regions(13, 20);
        let cache = RegionCache::build(&regions);
        let pairs = all_pairs(regions.len());
        let policy = RunPolicy::default();
        let plain = BatchEngine::new().with_threads(2).run_pairs(&cache, &pairs, &policy).unwrap();
        let tracer = Tracer::enabled();
        let traced = BatchEngine::new()
            .with_threads(2)
            .with_tracer(tracer.clone())
            .run_pairs(&cache, &pairs, &policy)
            .unwrap();
        assert_eq!(plain.pairs, traced.pairs, "tracing must only observe");

        let events = tracer.drain();
        // Every chunk appears exactly once as a compute span, attributed
        // to a worker tid, and every worker also records queue waits.
        let n_chunks = pairs.len().div_ceil(CHUNK);
        let mut chunks: Vec<u64> = events
            .iter()
            .filter(|e| e.name == phases::CHUNK_COMPUTE)
            .map(|e| {
                assert!((1..=2).contains(&e.tid), "compute on worker tids only: {e:?}");
                e.chunk.expect("compute spans carry their chunk id")
            })
            .collect();
        chunks.sort_unstable();
        assert_eq!(chunks, (0..n_chunks as u64).collect::<Vec<_>>());
        assert!(
            events.iter().any(|e| e.name == phases::QUEUE_WAIT),
            "workers record time between chunks"
        );
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn traced_join_records_sweep_and_materialize() {
        let regions = random_regions(29, 25);
        let cache = RegionCache::build(&regions);
        let tracer = Tracer::enabled();
        let policy = RunPolicy::default();
        let plain = BatchEngine::new().with_threads(2).run_join(&cache, &policy).materialize(&cache);
        let traced = BatchEngine::new()
            .with_threads(2)
            .with_tracer(tracer.clone())
            .run_join(&cache, &policy)
            .materialize(&cache);
        assert_eq!(plain.pairs, traced.pairs);
        let events = tracer.drain();
        for phase in [phases::SWEEP_PARTITION, phases::MATERIALIZE] {
            let spans: Vec<_> = events.iter().filter(|e| e.name == phase).collect();
            assert_eq!(spans.len(), 1, "exactly one {phase} span");
            assert_eq!(spans[0].tid, MAIN_TID, "{phase} runs on the coordinator");
        }
    }

    /// Pins the worker_balance investigation's no-reuse half: the
    /// per-thread pair counts are rebuilt from fresh atomics on every
    /// run — one slot per worker, summing to the full pair total — so
    /// identical summaries across thread counts can only be summary
    /// collisions (see `EngineMetrics::worker_balance`).
    #[test]
    fn per_thread_pairs_is_fresh_per_run_and_sums_to_total() {
        // 47 regions → 2162 ordered pairs → 9 chunks, enough for 8 workers.
        let regions = random_regions(3, 47);
        let cache = RegionCache::build(&regions);
        let pairs = all_pairs(47);
        let policy = RunPolicy::default();
        for threads in [4usize, 8] {
            let engine = BatchEngine::new().with_threads(threads);
            let result = engine.run_pairs(&cache, &pairs, &policy).unwrap();
            assert_eq!(
                result.metrics.per_thread_pairs.len(),
                threads,
                "one slot per worker at {threads} threads"
            );
            assert_eq!(
                result.metrics.per_thread_pairs.iter().sum::<usize>(),
                pairs.len(),
                "claimed pairs account for the whole batch"
            );
            // A second run on the same engine starts from zeroed slots.
            let again = engine.run_pairs(&cache, &pairs, &policy).unwrap();
            assert_eq!(again.metrics.per_thread_pairs.iter().sum::<usize>(), pairs.len());
        }
    }

    #[test]
    fn quantitative_emission_is_bit_identical_including_n_tile() {
        // A primary strictly inside each of the nine tiles of the
        // reference; N exercises the kernel fallback for percentages.
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let primaries = [
            rect(1.7, 1.2, 2.5, 2.8),    // B
            rect(1.0, -3.0, 3.0, -1.0),  // S
            rect(-3.0, -3.0, -1.0, -1.0),// SW
            rect(-3.0, 1.0, -1.0, 3.0),  // W
            rect(-3.0, 5.0, -1.0, 7.0),  // NW
            rect(1.3, 5.0, 2.9, 7.0),    // N
            rect(5.0, 5.0, 7.0, 7.0),    // NE
            rect(5.0, 1.0, 7.0, 3.0),    // E
            rect(5.0, -3.0, 7.0, -1.0),  // SE
        ];
        let mut regions = vec![b];
        regions.extend(primaries);
        let cache = RegionCache::build(&regions);
        let result = BatchEngine::new()
            .with_mode(EngineMode::Quantitative)
            .with_threads(1)
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);
        for p in result.relations().filter(|p| p.reference == 0) {
            let naive = compute_cdr_pct(&regions[p.primary], &regions[0]);
            assert_eq!(p.percentages, Some(naive), "primary {}", p.primary);
            assert_eq!(p.relation, compute_cdr(&regions[p.primary], &regions[0]));
            // Only the tile-N primary (index 6) falls back to the kernel.
            assert_eq!(p.via_prefilter, p.primary != 6, "primary {}", p.primary);
        }
    }
}
