//! The differential checks: every one compares two independent
//! computations of the same fact and reports any disagreement.

use crate::{gen, legacy};
use cardir_cardirect::{evaluate, from_xml, parse_query, to_xml, Configuration};
use cardir_core::{
    clipping_cdr, compute_cdr, compute_cdr_with_mbb, tile_areas, tile_areas_with_mbb,
    CardinalRelation, NoopHook, PercentageMatrix, Tile, ALL_TILES,
};
use cardir_engine::{
    decided_tile, interacting_pairs, BatchEngine, BatchOutcome, EngineMode, RegionCache, RunPolicy,
};
use cardir_geometry::robust::{on_segment, orient2d_sign, Sign};
use cardir_geometry::{to_wkt, Point, Polygon, Region, Segment};
use cardir_workloads::SplitMix64;

/// One failed check.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Stable check name (`cdr-vs-clipping`, `engine-vs-naive`, …).
    pub check: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

fn fail(check: &'static str, detail: String) -> Option<Failure> {
    Some(Failure { check, detail })
}

/// Absolute tolerance for area comparisons between the linear algorithm
/// and the clipping baseline. Scales with the coordinate magnitude of
/// both operands (round-off in either algorithm is proportional to the
/// squared magnitude), so the same generator runs unchanged at `2^±40`.
fn area_tolerance(a: &Region, b: &Region) -> f64 {
    1e-9 * (a.area() + a.mbb().area() + b.mbb().area()).max(f64::MIN_POSITIVE)
}

/// Checks one ordered pair: `compute_cdr` vs the clipping baseline,
/// `tile_areas` vs the clipped areas and the region's own area, and the
/// fallible entry point against the infallible one.
pub fn check_pair(a: &Region, b: &Region) -> Option<Failure> {
    let fast = compute_cdr(a, b);
    let clipped = clipping_cdr(a, b);
    if fast != clipped.relation {
        return fail(
            "cdr-vs-clipping",
            format!(
                "compute_cdr = {fast}, clipping baseline = {}",
                clipped.relation
            ),
        );
    }

    let areas = tile_areas(a, b);
    let tol = area_tolerance(a, b);
    for t in ALL_TILES {
        let fast_area = areas.get(t);
        let clip_area = clipped.areas.get(t);
        if (fast_area - clip_area).abs() > tol {
            return fail(
                "areas-vs-clipping",
                format!("tile {t}: tile_areas = {fast_area}, clipped = {clip_area}, tol = {tol}"),
            );
        }
    }
    if (areas.total() - a.area()).abs() > tol {
        return fail(
            "areas-vs-total",
            format!(
                "tile areas sum to {}, region area is {}, tol = {tol}",
                areas.total(),
                a.area()
            ),
        );
    }

    None
}

/// The naive per-pair ground truth of a map: `compute_cdr_with_mbb` and
/// `tile_areas_with_mbb` against the cached reference box, straight from
/// the geometry, in primary-major order.
pub(crate) struct Naive {
    pub(crate) pairs: Vec<(usize, usize, CardinalRelation, PercentageMatrix)>,
}

impl Naive {
    pub(crate) fn new(regions: &[Region], cache: &RegionCache<'_>) -> Naive {
        let n = regions.len();
        let mut pairs = Vec::new();
        for (i, a) in regions.iter().enumerate() {
            for j in (0..n).filter(|&j| j != i) {
                let mbb = cache.mbb(j);
                pairs.push((
                    i,
                    j,
                    compute_cdr_with_mbb(a, mbb, &mut NoopHook),
                    tile_areas_with_mbb(a, mbb, &mut NoopHook).percentages(),
                ));
            }
        }
        Naive { pairs }
    }

    /// Compares `outcome` (one slot per ordered pair, primary-major) with
    /// the naive results bit for bit. With `decided` set — the outcome is
    /// a materialized join — each pair's `via_prefilter` must also be
    /// what `decided_tile` implies: set exactly for box-decided pairs,
    /// except quantitative tile-`N` pairs, whose matrix takes the kernel.
    fn compare(
        &self,
        check: &'static str,
        label: &str,
        outcome: &BatchOutcome,
        mode: EngineMode,
        decided: Option<&RegionCache<'_>>,
    ) -> Option<Failure> {
        if outcome.pairs.len() != self.pairs.len() {
            return fail(
                check,
                format!(
                    "{label}: {} pairs, naive has {}",
                    outcome.pairs.len(),
                    self.pairs.len()
                ),
            );
        }
        let quantitative = mode == EngineMode::Quantitative;
        for (got, (i, j, rel, pct)) in outcome.pairs.iter().zip(&self.pairs) {
            let Some(pr) = got.ok() else {
                return fail(
                    check,
                    format!("{label} pair ({i}, {j}): not computed: {got:?}"),
                );
            };
            let want_pct = quantitative.then_some(pct);
            if (pr.primary, pr.reference) != (*i, *j)
                || pr.relation != *rel
                || pr.percentages.as_ref() != want_pct
            {
                return fail(
                    check,
                    format!(
                        "{label} pair ({i}, {j}): engine ({}, {}) {} / {:?}, naive {rel} / {want_pct:?}",
                        pr.primary, pr.reference, pr.relation, pr.percentages
                    ),
                );
            }
            let via_boxes = match decided {
                Some(cache) => match decided_tile(cache.mbb(*i), cache.mbb(*j)) {
                    Some(tile) => !(quantitative && tile == Tile::N),
                    None => false,
                },
                None => false,
            };
            if pr.via_prefilter != via_boxes {
                return fail(
                    check,
                    format!(
                        "{label} pair ({i}, {j}): via_prefilter = {}, decided_tile implies {via_boxes}",
                        pr.via_prefilter
                    ),
                );
            }
        }
        None
    }
}

/// Checks the batch engine's two entry points against the naive per-pair
/// loop at every thread count, bit for bit and in the same order: the
/// materialized join, and the exact pass over an explicit list of every
/// ordered pair (which sends all of them through the kernels).
pub fn check_engine(regions: &[Region]) -> Option<Failure> {
    let cache = RegionCache::build(regions);
    let naive = Naive::new(regions, &cache);
    let every: Vec<(usize, usize)> = naive.pairs.iter().map(|&(i, j, _, _)| (i, j)).collect();
    let mode = EngineMode::Quantitative;
    for threads in [1usize, 2, 4] {
        let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
        let joined = engine
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);
        let label = format!("threads={threads} join");
        if let Some(f) = naive.compare("engine-vs-naive", &label, &joined, mode, Some(&cache)) {
            return Some(f);
        }
        let listed = match engine.run_pairs(&cache, &every, &RunPolicy::default()) {
            Ok(o) => o,
            Err(e) => return fail("engine-vs-naive", format!("threads={threads}: {e}")),
        };
        let label = format!("threads={threads} every pair exact");
        if let Some(f) = naive.compare("engine-vs-naive", &label, &listed, mode, None) {
            return Some(f);
        }
    }
    None
}

/// Checks the spatial-join path on the scenario:
///
/// 1. **Partition oracle** — the sweep's interacting set equals the set
///    of ordered pairs `decided_tile` cannot decide, and the sweep's
///    contact count equals a direct count of grid-line contacts.
/// 2. **Mask ground truth** — every pair the join would emit straight
///    from the boxes carries the single-tile relation `compute_cdr`
///    computes from the actual geometry.
/// 3. **Join vs naive** — the materialized join is bit-identical to the
///    naive per-pair results (relations *and* percentage matrices) at
///    every thread count × mode, `via_prefilter` agrees with
///    `decided_tile`, and the partition counters close over the whole
///    pair space, unchanged by materializing.
pub fn check_join(regions: &[Region]) -> Option<Failure> {
    let cache = RegionCache::build(regions);
    let n = regions.len();
    let total = if n < 2 { 0 } else { n * (n - 1) };

    let (interacting, candidates) = interacting_pairs(&cache);
    let mut oracle = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && decided_tile(cache.mbb(i), cache.mbb(j)).is_none() {
                oracle.push((i as u32, j as u32));
            }
        }
    }
    if interacting != oracle {
        return fail(
            "join-partition",
            format!(
                "sweep found {} interacting pairs, the decided_tile oracle {}: \
                 sweep {interacting:?}\n oracle {oracle:?}",
                interacting.len(),
                oracle.len()
            ),
        );
    }
    // One contact per (box, grid coordinate) pair where the box's closed
    // interval on that axis contains the coordinate.
    let within = |lo: f64, hi: f64, c: f64| usize::from(lo <= c && c <= hi);
    let mut contacts = 0;
    for j in 0..n {
        let b = cache.mbb(j);
        for i in 0..n {
            let a = cache.mbb(i);
            contacts += within(a.min.x, a.max.x, b.min.x)
                + within(a.min.x, a.max.x, b.max.x)
                + within(a.min.y, a.max.y, b.min.y)
                + within(a.min.y, a.max.y, b.max.y);
        }
    }
    if candidates != contacts {
        return fail(
            "join-partition",
            format!("sweep contact count {candidates} != direct contact count {contacts}"),
        );
    }

    // The relation the mask would emit for each decided pair, vs the
    // full geometric computation — the ground truth behind emitting
    // `N·(N−1) − K` relations without ever touching an edge.
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if let Some(tile) = decided_tile(cache.mbb(i), cache.mbb(j)) {
                let truth = compute_cdr(&regions[i], &regions[j]);
                let emitted = CardinalRelation::single(tile);
                if emitted != truth {
                    return fail(
                        "join-mask-vs-cdr",
                        format!(
                            "pair ({i}, {j}): boxes decide {emitted}, compute_cdr says {truth}"
                        ),
                    );
                }
            }
        }
    }

    let naive = Naive::new(regions, &cache);
    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        for threads in [1usize, 2] {
            let label = format!("{mode:?} threads={threads}");
            let joined = BatchEngine::new()
                .with_mode(mode)
                .with_threads(threads)
                .run_join(&cache, &RunPolicy::default());
            let stats = joined.stats.clone();
            if stats.pairs != total
                || stats.mask_emitted + stats.exact_pairs != total
                || stats.exact_pairs != interacting.len()
                || joined.succeeded + joined.failed + joined.skipped != total
            {
                return fail(
                    "join-accounting",
                    format!(
                        "{label}: {stats:?} does not close over {total} pairs \
                         ({} interacting; {} + {} + {})",
                        interacting.len(),
                        joined.succeeded,
                        joined.failed,
                        joined.skipped
                    ),
                );
            }
            let out = joined.materialize(&cache);
            let after = &out.stats;
            if (
                after.pairs,
                after.mask_emitted,
                after.exact_pairs,
                after.candidates,
            ) != (
                stats.pairs,
                stats.mask_emitted,
                stats.exact_pairs,
                stats.candidates,
            ) {
                return fail(
                    "join-accounting",
                    format!("{label}: materializing moved the partition: {stats:?} -> {after:?}"),
                );
            }
            if let Some(f) = naive.compare("join-vs-naive", &label, &out, mode, Some(&cache)) {
                return Some(f);
            }
        }
    }
    None
}

/// Attribute value with every character class the escaper must survive.
const HOSTILE_ATTRIBUTE: &str = "line1\nline2\ttab\rret \"quoted\" <tag> & 'apos' Αττική 北海道";

/// Checks the persistence and query layers on a configuration built from
/// the scenario: XML must round-trip bit-exactly (coordinates included)
/// and stay stable under a second serialisation; a query derived from a
/// computed relation must parse, display-round-trip, and evaluate to a
/// binding containing the originating pair.
pub fn check_config(regions: &[Region]) -> Option<Failure> {
    let mut config = Configuration::new("fuzz κόσμος", "fuzz.png");
    for (i, r) in regions.iter().enumerate() {
        if let Err(e) = config.add_region(
            format!("r{i}"),
            format!("Περιοχή 北海道 {i}"),
            "blue",
            r.clone(),
        ) {
            return fail("config-build", format!("add_region r{i}: {e}"));
        }
    }
    if let Err(e) = config.set_attribute("r0", "note", HOSTILE_ATTRIBUTE) {
        return fail("config-build", format!("set_attribute: {e}"));
    }

    let xml = to_xml(&config);
    let back = match from_xml(&xml) {
        Ok(c) => c,
        Err(e) => return fail("xml-round-trip", format!("re-parse failed: {e}")),
    };
    if back.len() != config.len() {
        return fail(
            "xml-round-trip",
            format!("{} regions became {}", config.len(), back.len()),
        );
    }
    for (orig, re) in config.regions().iter().zip(back.regions()) {
        if orig.id != re.id || orig.name != re.name || orig.attributes != re.attributes {
            return fail(
                "xml-round-trip",
                format!("metadata of {:?} changed across the round trip", orig.id),
            );
        }
        if orig.region != re.region {
            return fail(
                "xml-round-trip",
                format!(
                    "geometry of {:?} changed across the round trip:\n  before: {}\n  after:  {}",
                    orig.id,
                    to_wkt(&orig.region),
                    to_wkt(&re.region)
                ),
            );
        }
    }
    let xml2 = to_xml(&back);
    if xml2 != xml {
        return fail(
            "xml-round-trip",
            "serialisation is not a fixpoint".to_string(),
        );
    }

    if regions.len() >= 2 {
        let rel = compute_cdr(&regions[0], &regions[1]);
        let text = format!("{{(x, y) | x {rel} y}}");
        let query = match parse_query(&text) {
            Ok(q) => q,
            Err(e) => return fail("query-round-trip", format!("{text:?} failed to parse: {e}")),
        };
        match parse_query(&query.to_string()) {
            Ok(q) if q == query => {}
            Ok(_) => {
                return fail(
                    "query-round-trip",
                    format!(
                        "display form {:?} parses to a different query",
                        query.to_string()
                    ),
                )
            }
            Err(e) => {
                return fail(
                    "query-round-trip",
                    format!("display form {:?} failed to parse: {e}", query.to_string()),
                )
            }
        }
        match evaluate(&query, &config) {
            Ok(bindings) => {
                let expected = vec!["r0".to_string(), "r1".to_string()];
                if !bindings.iter().any(|b| b.values == expected) {
                    return fail(
                        "query-eval",
                        format!("evaluating {text:?} lost the originating pair (r0, r1)"),
                    );
                }
            }
            Err(e) => return fail("query-eval", format!("evaluating {text:?} failed: {e}")),
        }
    }

    None
}

/// Outcome of the predicate-level ulp audit for one seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct UlpAudit {
    /// Ground-truth cases evaluated.
    pub cases: u64,
    /// Cases where the retired epsilon predicates disagree with the
    /// exact ones — the bug class the robust rewrite removed.
    /// Informational: only an *exact-path* error is a failure.
    pub legacy_mismatches: u64,
}

/// Exact power-of-two scales the audit runs at, covering the magnitudes
/// where the retired tolerances were alternately too tight and too loose.
const AUDIT_SCALES: [i32; 5] = [-40, -20, 0, 20, 40];

/// Predicate-level differential audit: constructs points whose
/// on/off-segment and in/out-of-polygon status is known *by
/// construction* (exact lattice geometry, then 1–4 ulp perpendicular
/// nudges), asserts the exact predicates reproduce the ground truth, and
/// counts where the retired epsilon predicates disagree.
///
/// Ground-truth argument for the nudges: the constructed on-point `p`
/// satisfies `(b − a) × (p − a) = 0` in the reals (every coordinate is
/// an exact multiple of `s/8` with a small numerator, so no rounding
/// occurred anywhere). Stepping one coordinate by `δ ≠ 0` changes that
/// cross product by exactly `±δ·(b − a)` in the other coordinate, which
/// is non-zero whenever the segment is not parallel to the stepped axis
/// — so the nudged point is off the carrier line as a fact of real
/// arithmetic, not a tolerance judgement.
pub fn check_ulp_predicates(seed: u64) -> (UlpAudit, Option<Failure>) {
    let rng = &mut SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut audit = UlpAudit::default();

    for round in 0..12 {
        let s = 2f64.powi(AUDIT_SCALES[rng.random_range(0..AUDIT_SCALES.len())]);

        // --- Segment cases -------------------------------------------------
        let (a, b) = loop {
            let a = Point::new(gen::half(rng) * s, gen::half(rng) * s);
            let b = Point::new(gen::half(rng) * s, gen::half(rng) * s);
            if a != b {
                break (a, b);
            }
        };
        let seg = Segment::new(a, b);
        let t = rng.random_range(0i64..=4) as f64 * 0.25;
        let p = Point::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);

        audit.cases += 1;
        if !on_segment(a, b, p) || orient2d_sign(a, b, p) != Sign::Zero {
            return (
                audit,
                fail(
                    "ulp-exact-on-segment",
                    format!("round {round}: constructed on-point {p} rejected for {seg}"),
                ),
            );
        }

        // Perpendicular nudge: step an axis the segment is not parallel
        // to (zero coordinates are skipped — stepping 0.0 manufactures a
        // subnormal, outside the predicates' no-underflow domain).
        let step_x = if a.y == b.y {
            false
        } else if a.x == b.x {
            true
        } else {
            rng.random_bool(0.5)
        };
        let k = rng.random_range(1i64..=4);
        let k = if rng.random_bool(0.5) { k } else { -k };
        let coord = if step_x { p.x } else { p.y };
        if coord != 0.0 {
            let stepped = gen::ulp_step(coord, k);
            let delta_sign = if k > 0 { 1.0 } else { -1.0 };
            let (q, expected) = if step_x {
                (
                    Point::new(stepped, p.y),
                    Sign::of(-(b.y - a.y) * delta_sign),
                )
            } else {
                (Point::new(p.x, stepped), Sign::of((b.x - a.x) * delta_sign))
            };
            audit.cases += 1;
            if on_segment(a, b, q) || orient2d_sign(a, b, q) != expected {
                return (
                    audit,
                    fail(
                        "ulp-exact-off-segment",
                        format!(
                            "round {round}: {q} is {k} ulps off {seg} but on_segment = {}, \
                             orient = {:?} (expected {expected:?})",
                            on_segment(a, b, q),
                            orient2d_sign(a, b, q)
                        ),
                    ),
                );
            }
            // The retired predicate judged the same question through a
            // length-scaled tolerance band.
            let eps = 1e-12 * (b - a).norm();
            if legacy::segment_contains_point(seg, q, eps) {
                audit.legacy_mismatches += 1;
            }
        }

        // --- Polygon cases -------------------------------------------------
        let bx = gen::lattice_box(rng);
        let poly = Polygon::from_coords([
            (bx[0] * s, bx[1] * s),
            (bx[2] * s, bx[1] * s),
            (bx[2] * s, bx[3] * s),
            (bx[0] * s, bx[3] * s),
        ])
        .expect("lattice box");
        let ym = (bx[1] + bx[3]) / 2.0 * s; // exact: quarter-lattice midpoint
        let on_east = Point::new(bx[2] * s, ym);

        audit.cases += 1;
        if !poly.contains(on_east) || !poly.on_boundary(on_east) {
            return (
                audit,
                fail(
                    "ulp-exact-boundary",
                    format!("round {round}: {on_east} on the east edge of {poly} rejected"),
                ),
            );
        }
        if on_east.x != 0.0 {
            let out = Point::new(gen::ulp_step(on_east.x, rng.random_range(1i64..=4)), ym);
            let inside = Point::new(gen::ulp_step(on_east.x, -rng.random_range(1i64..=4)), ym);
            audit.cases += 2;
            if poly.contains(out) || poly.on_boundary(out) {
                return (
                    audit,
                    fail(
                        "ulp-exact-outside",
                        format!("round {round}: {out} is ulps east of {poly} but contained"),
                    ),
                );
            }
            if !poly.contains(inside) || poly.on_boundary(inside) {
                return (
                    audit,
                    fail(
                        "ulp-exact-inside",
                        format!("round {round}: {inside} is ulps inside {poly} but rejected"),
                    ),
                );
            }
            if legacy::contains(&poly, out) || legacy::on_boundary(&poly, out) {
                audit.legacy_mismatches += 1;
            }
        }

        // --- Shared-vertex parity case ------------------------------------
        // A zig-zag with three vertices on the query row: interpolated
        // ray-casting can round the two crossings incident to a shared
        // vertex to different sides of the query and flip parity twice.
        let zig = Polygon::from_coords(
            [
                (0.0, 0.0),
                (8.0, 0.0),
                (8.0, 2.0),
                (6.0, 4.0),
                (4.0, 2.0),
                (2.0, 4.0),
                (0.0, 2.0),
            ]
            .map(|(x, y)| (x * s, y * s)),
        )
        .expect("zig-zag lattice polygon");
        for (q, truth) in [
            (Point::new(s, 2.0 * s), true),
            (Point::new(5.0 * s, 2.0 * s), true),
            (Point::new(4.0 * s, 2.0 * s), true), // the shared vertex itself
            (Point::new(-s, 2.0 * s), false),
            (Point::new(9.0 * s, 2.0 * s), false),
        ] {
            audit.cases += 1;
            if zig.contains(q) != truth {
                return (
                    audit,
                    fail(
                        "ulp-exact-parity",
                        format!(
                            "round {round}: contains({q}) != {truth} on the zig-zag at scale {s:e}"
                        ),
                    ),
                );
            }
            if legacy::contains(&zig, q) != truth {
                audit.legacy_mismatches += 1;
            }
        }
    }
    (audit, None)
}

/// Shrinks a failing pair by dropping member polygons while the failure
/// persists; returns the smallest reproduction found.
pub fn minimize_pair(a: &Region, b: &Region) -> (Region, Region) {
    fn without(r: &Region, idx: usize) -> Option<Region> {
        if r.polygons().len() <= 1 {
            return None;
        }
        let polys = r
            .polygons()
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != idx)
            .map(|(_, p)| p.clone());
        Region::new(polys).ok()
    }

    let (mut a, mut b) = (a.clone(), b.clone());
    loop {
        let mut reduced = false;
        for idx in 0..a.polygons().len() {
            if let Some(candidate) = without(&a, idx) {
                if check_pair(&candidate, &b).is_some() {
                    a = candidate;
                    reduced = true;
                    break;
                }
            }
        }
        for idx in 0..b.polygons().len() {
            if let Some(candidate) = without(&b, idx) {
                if check_pair(&a, &candidate).is_some() {
                    b = candidate;
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            return (a, b);
        }
    }
}
