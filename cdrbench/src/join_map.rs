//! `join-map`: a fresh N = 10 000 map through `RegionCache::build` +
//! `BatchEngine::run_join` (quantitative, one engine thread), pass
//! after pass. Between passes, an N = 1 000 map — the interactive size,
//! whose join state fits in cache where the large map's does not — takes
//! the same path (the second path). Nearly all the work sits in the
//! kernel, the MBB sweep and the cache; none in the journal, session or
//! HTTP layers.

use crate::common::{ms_since, peak_rss_mb, seeded_map, WorkDir};
use crate::layers::batch_suite;
use crate::stats::{median, quantile, Tally};
use crate::{read_query, tracing_overhead, Args, LoopFigures, Metrics, Outcome};
use cardir_core::{compute_cdr, compute_cdr_pct, PercentageMatrix, Tile};
use cardir_engine::{
    BatchEngine, CompletionStatus, EngineMode, JoinOutcome, PairRelation, RegionCache, RunPolicy,
};
use cardir_geometry::{Band, BoundingBox, Region};
use cardir_telemetry::Tracer;
use cardir_workloads::SplitMix64;
use std::time::Instant;

pub const N: usize = 10_000;
const SALT: u64 = 1;
/// The small map of the second path, and its passes per large pass.
const N_SMALL: usize = 1_000;
const SALT_SMALL: u64 = 4;
const SMALL_PER_LARGE: usize = 8;
/// Pairs checked per pass: drawn from the interacting (exact) set, and
/// drawn uniformly from all ordered pairs (≈ 98 % mask-emitted).
const EXACT_SAMPLES: usize = 300;
const RANDOM_SAMPLES: usize = 300;

fn engine() -> BatchEngine {
    BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(1)
}

/// Pass times in milliseconds, per map, and the part of each large
/// pass spent in `RegionCache::build` — the set-up a join needs before it
/// can answer anything.
#[derive(Default)]
struct Passes {
    large: Vec<f64>,
    small: Vec<f64>,
    large_build: Vec<f64>,
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut named = Metrics::default();
    let map = |salt, n| -> Vec<Region> {
        seeded_map(args.seed, salt, n)
            .into_iter()
            .map(|m| m.region)
            .collect()
    };
    let (large, small) = (map(SALT, N), map(SALT_SMALL, N_SMALL));
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x5EED);

    if !args.trace {
        let [p, _] = passes(
            &large,
            &small,
            args.seconds,
            &Tracer::disabled(),
            false,
            &mut rng,
            &mut tally,
        );
        let f = figures(&p.large);
        let small_ms = median(&p.small);
        let mut m = Metrics::default();
        m.push("setup_s", median(&p.large_build) / 1e3, "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m.push("latency_ms_p50", f.p50_ms, "ms");
        m.push("latency_ms_tail", f.tail_ms, "ms");
        m.push("throughput_per_s", f.per_s, "1/s");
        m.push("second_path_ms", small_ms, "ms");
        named.push("join_s", f.p50_ms / 1e3, "s");
        named.push("join_s_max", f.tail_ms / 1e3, "s");
        named.push("join_1k_ms", small_ms, "ms");
        named.push("relations_per_s", f.per_s, "1/s");
        named.push("passes", p.large.len() as f64, "count");
        return Ok(Outcome {
            tally,
            metrics: m,
            named,
        });
    }

    let [untraced, traced] = passes(
        &large,
        &small,
        args.seconds,
        tracer,
        true,
        &mut rng,
        &mut tally,
    );
    let mut m = tracing_overhead(&figures(&untraced.large), &figures(&traced.large));
    m.extend(batch_suite(&large, tracer, &mut tally));
    // The session, journal, HTTP and query layers are not driven by this
    // workload; their per-layer figures come from the read/query probe.
    let mut work = WorkDir::new()?;
    m.extend(read_query::probe(
        args.seed, &mut work, tracer, &mut tally, true,
    )?);
    Ok(Outcome {
        tally,
        metrics: m,
        named,
    })
}

/// Loop figures of the large-map pass times: the median pass, the
/// slowest pass (fewer than ten passes fit a run, so no percentile above
/// the median has ten samples beyond it), and ordered pairs resolved per
/// second at the median.
fn figures(pass_ms: &[f64]) -> LoopFigures {
    let pairs = (N * (N - 1)) as f64;
    let p50 = median(pass_ms);
    LoopFigures {
        p50_ms: p50,
        tail_ms: quantile(pass_ms, 1.0),
        per_s: pairs / (p50 / 1e3),
    }
}

/// Join passes for `seconds`, in groups of one large pass followed by
/// `SMALL_PER_LARGE` small ones, every pass checked after its clock
/// stops. With `alternate`, every other group is recorded under spans
/// (at least two groups of each kind); the pass times come back split
/// by kind, `[untraced, traced]`.
fn passes(
    large: &[Region],
    small: &[Region],
    seconds: f64,
    tracer: &Tracer,
    alternate: bool,
    rng: &mut SplitMix64,
    tally: &mut Tally,
) -> [Passes; 2] {
    let engine = engine();
    let policy = RunPolicy::default();
    let mut trace = tracer.thread(1);
    let start = Instant::now();
    let mut p = [Passes::default(), Passes::default()];
    let min_groups = if alternate { 4 } else { 2 };
    for group in 0.. {
        if group >= min_groups && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = alternate && group % 2 == 1;
        let kind = &mut p[usize::from(traced)];
        for k in 0..=SMALL_PER_LARGE {
            let (regions, times, span) = if k == 0 {
                (large, &mut kind.large, "join.pass.10k")
            } else {
                (small, &mut kind.small, "join.pass.1k")
            };
            let begin = traced.then(|| trace.begin()).flatten();
            let t = Instant::now();
            let cache = RegionCache::build(regions);
            if k == 0 {
                kind.large_build.push(ms_since(t));
            }
            let outcome = engine.run_join(&cache, &policy);
            times.push(ms_since(t));
            trace.end(begin, span, Some(times.len() as u64));
            check_pass(regions, &cache, &outcome, rng, tally);
        }
    }
    p
}

/// Checks one pass: the partition covers every ordered pair with no
/// failures, and sampled exact pairs equal the naive `compute_cdr` /
/// `compute_cdr_pct` bit for bit. `run_join` gives no per-pair answer for
/// a pair outside its interacting set: it claims the two boxes decide
/// it. For uniformly drawn pairs that claim is checked by
/// [`check_box_decided`].
fn check_pass(
    regions: &[Region],
    cache: &RegionCache<'_>,
    outcome: &JoinOutcome,
    rng: &mut SplitMix64,
    tally: &mut Tally,
) {
    let n = regions.len();
    tally.check(
        outcome.status == CompletionStatus::Complete
            && outcome.failed == 0
            && outcome.skipped == 0
            && outcome.succeeded == n * (n - 1),
        || {
            format!(
                "pass incomplete: {:?}, {} succeeded of {}, {} failed",
                outcome.status,
                outcome.succeeded,
                n * (n - 1),
                outcome.failed
            )
        },
    );
    let exact = &outcome.interacting;
    let check_exact = |k: usize, tally: &mut Tally| {
        let (i, j) = exact[k].indices();
        match exact[k].ok() {
            Some(pr) => check_pair(&regions[i], &regions[j], pr, tally),
            None => tally.check(false, || format!("exact pair ({i},{j}) failed")),
        }
    };
    for _ in 0..EXACT_SAMPLES.min(exact.len()) {
        check_exact(rng.random_range(0..exact.len()), tally);
    }
    for _ in 0..RANDOM_SAMPLES {
        let i = rng.random_range(0..n);
        let j = (i + rng.random_range(1..n)) % n;
        match exact.binary_search_by(|o| o.indices().cmp(&(i, j))) {
            Ok(k) => check_exact(k, tally),
            Err(_) => check_box_decided(cache, i, j, &regions[i], &regions[j], tally),
        }
    }
}

/// Compares one engine answer with the naive `compute_cdr` and
/// `compute_cdr_pct`, bit for bit.
fn check_pair(a: &Region, b: &Region, pr: &PairRelation, tally: &mut Tally) {
    let (relation, pct) = (compute_cdr(a, b), compute_cdr_pct(a, b));
    tally.check(
        pr.relation == relation && pr.percentages == Some(pct),
        || {
            format!(
                "pair ({},{}): engine {} / {:?}, naive {relation} / {pct:?}",
                pr.primary, pr.reference, pr.relation, pr.percentages
            )
        },
    );
}

/// The tile of `reference`'s grid that holds the centre of `primary`.
fn box_tile(primary: BoundingBox, reference: BoundingBox) -> Tile {
    let band = |c: f64, lo: f64, hi: f64| {
        if c < lo {
            Band::Lower
        } else if c > hi {
            Band::Upper
        } else {
            Band::Middle
        }
    };
    let (cx, cy) = (
        (primary.min.x + primary.max.x) / 2.0,
        (primary.min.y + primary.max.y) / 2.0,
    );
    Tile::from_bands(
        band(cx, reference.min.x, reference.max.x),
        band(cy, reference.min.y, reference.max.y),
    )
}

/// A box-decided pair's naive relation must be the single tile the
/// boxes give. The join reports such a pair's percentages as exactly
/// 100 % in that tile — except for tile N, whose matrix it computes with
/// the kernel, because the naive B-tile area can keep a last-ulp residue
/// — so outside N the naive percentages must be that matrix bit for bit.
fn check_box_decided(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    a: &Region,
    b: &Region,
    tally: &mut Tally,
) {
    let tile = box_tile(cache.mbb(i), cache.mbb(j));
    let (relation, pct) = (compute_cdr(a, b), compute_cdr_pct(a, b));
    tally.check(
        relation.tiles().eq([tile])
            && (tile == Tile::N || pct == PercentageMatrix::single_tile(tile)),
        || format!("pair ({i},{j}) left to the boxes ({tile:?}), naive {relation} / {pct:?}"),
    );
}
