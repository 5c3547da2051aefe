//! Adversarial scenario generation on an exact half-integer lattice.
//!
//! Every coordinate is `k/2` for an integer `k` in `[-128, 128]`,
//! optionally scaled by an exact power of two (`2^±40`). On this lattice
//! every vertex, every MBB grid line, and every edge/grid-line crossing
//! parameter is an exact ratio of exactly-represented doubles, so two
//! algorithms that are mathematically equal stay *bit*-comparable: any
//! disagreement the differential checks see is a genuine divergence, not
//! round-off noise. The lattice also bounds areas away from zero (a
//! lattice triangle has area ≥ 1/8), keeping the clipping baseline's
//! area threshold far from every real tile.
//!
//! The families deliberately concentrate on the degenerate contact cases
//! the paper's algorithms must get right: primaries anchored to the
//! reference's own grid lines (shared edges, touching corners, exact
//! tile fills), needle polygons, rectilinear outlines with collinear
//! consecutive edges lying on grid lines, multi-polygon regions
//! straddling tiles, diagonals passing exactly through grid corners, and
//! all of the above at extreme magnitudes.

use cardir_geometry::{Point, Polygon, Region};
use cardir_workloads::SplitMix64;

/// One generated scenario: a named family plus its regions. The last
/// region is the designated reference of the family's construction, but
/// the checks run over *all* ordered pairs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Family name, for divergence reports.
    pub family: &'static str,
    /// The generated regions (at least two).
    pub regions: Vec<Region>,
}

/// Half-units: coordinates are `k/2` with `k ∈ [-EXTENT, EXTENT]`.
const EXTENT: i64 = 128;

pub(crate) fn half(rng: &mut SplitMix64) -> f64 {
    rng.random_range(-EXTENT..=EXTENT) as f64 / 2.0
}

/// A lattice coordinate that, half the time, *exactly* reuses one of the
/// reference coordinates in `lines` — the engine of shared-line /
/// touching-corner contact.
fn anchored(rng: &mut SplitMix64, lines: &[f64]) -> f64 {
    if !lines.is_empty() && rng.random_bool(0.5) {
        lines[rng.random_range(0..lines.len())]
    } else {
        half(rng)
    }
}

/// `[x0, y0, x1, y1]` with `x0 < x1`, `y0 < y1`.
pub(crate) fn lattice_box(rng: &mut SplitMix64) -> [f64; 4] {
    loop {
        let (x0, x1) = (half(rng), half(rng));
        let (y0, y1) = (half(rng), half(rng));
        if x0 < x1 && y0 < y1 {
            return [x0, y0, x1, y1];
        }
    }
}

/// A box whose edges are drawn from the anchor sets (terminates almost
/// surely: `anchored` falls back to fresh lattice draws).
fn anchored_box(rng: &mut SplitMix64, xs: &[f64], ys: &[f64]) -> [f64; 4] {
    loop {
        let (x0, x1) = (anchored(rng, xs), anchored(rng, xs));
        let (y0, y1) = (anchored(rng, ys), anchored(rng, ys));
        if x0 < x1 && y0 < y1 {
            return [x0, y0, x1, y1];
        }
    }
}

fn rect_poly(b: [f64; 4]) -> Polygon {
    Polygon::from_coords([(b[0], b[1]), (b[2], b[1]), (b[2], b[3]), (b[0], b[3])])
        .expect("a proper lattice box is a valid polygon")
}

fn rect_region(b: [f64; 4]) -> Region {
    Region::single(rect_poly(b))
}

/// Do the *interiors* of two boxes overlap? (Shared edges and corners
/// are fine — `REG*` only requires disjoint interiors.)
fn interiors_overlap(a: [f64; 4], b: [f64; 4]) -> bool {
    a[0] < b[2] && b[0] < a[2] && a[1] < b[3] && b[1] < a[3]
}

/// A composite region of up to `count` anchored rectangles with pairwise
/// disjoint interiors; boundary contact (shared edges, corners) between
/// the member polygons is allowed and common.
fn multi_rect_region(rng: &mut SplitMix64, count: usize, xs: &[f64], ys: &[f64]) -> Region {
    let mut boxes = vec![anchored_box(rng, xs, ys)];
    for _ in 1..count {
        for _ in 0..8 {
            let c = anchored_box(rng, xs, ys);
            if !boxes.iter().any(|&b| interiors_overlap(b, c)) {
                boxes.push(c);
                break;
            }
        }
    }
    Region::new(boxes.into_iter().map(rect_poly)).expect("at least one box")
}

/// A rectangle outline with extra vertices inserted on its straight
/// edges: consecutive collinear edges, some landing exactly on the
/// reference's grid lines. Exercises the corner-merge and snapping logic
/// of edge division where a vertex sits *on* a crossing.
fn subdivided_rect(b: [f64; 4], xcuts: &[f64], ycuts: &[f64]) -> Polygon {
    let mut xs: Vec<f64> = xcuts
        .iter()
        .copied()
        .filter(|&x| x > b[0] && x < b[2])
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut ys: Vec<f64> = ycuts
        .iter()
        .copied()
        .filter(|&y| y > b[1] && y < b[3])
        .collect();
    ys.sort_by(f64::total_cmp);
    ys.dedup();

    let mut pts = Vec::new();
    pts.push((b[0], b[1]));
    pts.extend(xs.iter().map(|&x| (x, b[1]))); // south edge, west → east
    pts.push((b[2], b[1]));
    pts.extend(ys.iter().map(|&y| (b[2], y))); // east edge, south → north
    pts.push((b[2], b[3]));
    pts.extend(xs.iter().rev().map(|&x| (x, b[3]))); // north edge, east → west
    pts.push((b[0], b[3]));
    pts.extend(ys.iter().rev().map(|&y| (b[0], y))); // west edge, north → south
    Polygon::from_coords(pts).expect("a subdivided proper box is a valid polygon")
}

/// A needle: a triangle half a lattice unit tall over a long base,
/// optionally pinned exactly onto a reference line.
fn needle_region(rng: &mut SplitMix64, xs: &[f64], ys: &[f64]) -> Region {
    let y = anchored(rng, ys);
    let (x0, x1) = loop {
        let (a, b) = (anchored(rng, xs), anchored(rng, xs));
        if a < b {
            break (a, b);
        }
    };
    let apex_x = anchored(rng, xs).clamp(x0, x1);
    let dir = if rng.random_bool(0.5) { 0.5 } else { -0.5 };
    // Vertical needles too: transpose half the time.
    if rng.random_bool(0.5) {
        Region::from_coords([(x0, y), (x1, y), (apex_x, y + dir)])
            .expect("a needle has positive area")
    } else {
        Region::from_coords([(y, x0), (y, x1), (y + dir, apex_x)])
            .expect("a needle has positive area")
    }
}

/// Scales every coordinate by an exact power of two.
fn scaled(region: &Region, s: f64) -> Region {
    Region::new(region.polygons().iter().map(|p| {
        Polygon::new(p.vertices().iter().map(|v| Point::new(v.x * s, v.y * s)))
            .expect("pow-of-two scaling preserves validity")
    }))
    .expect("non-empty")
}

/// The four grid coordinates of a box: `[x-lines], [y-lines]`.
fn grid_lines(b: [f64; 4]) -> ([f64; 2], [f64; 2]) {
    ([b[0], b[2]], [b[1], b[3]])
}

// ---------------------------------------------------------------------------
// The ulp-adversarial family
// ---------------------------------------------------------------------------

/// Stream separator for the ulp generator's RNG, so the family draws
/// from a different sequence than the classic families at the same seed.
const ULP_STREAM: u64 = 0x5bd1_e995_u64;

/// Steps `v` by `|k|` ulps (`k < 0` steps towards `-∞`).
pub(crate) fn ulp_step(mut v: f64, k: i64) -> f64 {
    for _ in 0..k.abs() {
        v = if k > 0 { v.next_up() } else { v.next_down() };
    }
    v
}

/// `v` exactly (one time in three), otherwise `v` nudged 1–4 ulps in a
/// random direction — the contact adversary of the ulp family. Zero is
/// returned unchanged: stepping it would manufacture a subnormal, which
/// is a different (and meaningless) notion of "one ulp off a grid line".
fn ulp_near(rng: &mut SplitMix64, v: f64) -> f64 {
    if v == 0.0 || rng.random_bool(1.0 / 3.0) {
        return v;
    }
    let k = rng.random_range(1i64..=4);
    ulp_step(v, if rng.random_bool(0.5) { k } else { -k })
}

/// A quarter-lattice margin: `0.25 + j/2` for `j ∈ 0..=4`. Quarter
/// values are exact and never collide with the half-integer lattice, so
/// a coordinate offset by one is at least `0.25` from every grid line.
fn quarter(rng: &mut SplitMix64) -> f64 {
    0.25 + rng.random_range(0i64..=4) as f64 * 0.5
}

/// A quarter-lattice point strictly between `v0` and `v1` (which are
/// half-integer lattice values with `v1 - v0 >= 0.5`).
fn inside_quarter(rng: &mut SplitMix64, v0: f64, v1: f64) -> f64 {
    let steps = ((v1 - v0) * 4.0) as i64; // exact: the gap is a multiple of 1/4
    v0 + 0.25 * rng.random_range(1..steps) as f64
}

/// A rectilinear region that *broadly straddles* both crossing lines
/// `[u0, u1]` of the reference (by at least a quarter unit on each
/// side), with extra vertices inserted on its two straddling edges at
/// the line coordinates nudged 0–4 ulps.
///
/// The nudged vertices force edge division and band classification to
/// make sign decisions at 1-ulp separations — the static filter fails
/// there and the exact fallback decides. Because the bulk extends at
/// least a quarter unit past every line it flirts with, the *tile set*
/// is invariant under the nudges: a 1-ulp strip is always a sliver of a
/// tile the region occupies broadly, so the clipping baseline (which
/// thresholds tiny clip areas away) must still agree exactly with
/// `compute_cdr`. The region's own extremes sit on quarter-lattice
/// values, off every half-integer grid line, so in the reversed pair the
/// other regions never graze *its* mbb lines either.
fn ulp_straddler(rng: &mut SplitMix64, reference: [f64; 4]) -> Region {
    // Work in (u, v): u is the crossing axis, v the band axis.
    let transpose = rng.random_bool(0.5);
    let ([u0, u1], [v0, v1]) = if transpose {
        ([reference[1], reference[3]], [reference[0], reference[2]])
    } else {
        ([reference[0], reference[2]], [reference[1], reference[3]])
    };
    let big_u0 = u0 - quarter(rng);
    let big_u1 = u1 + quarter(rng);
    let (band_lo, band_hi) = match rng.random_range(0u32..4) {
        0 => (v0 - quarter(rng), v1 + quarter(rng)),
        1 => (v0 - quarter(rng), inside_quarter(rng, v0, v1)),
        2 => (inside_quarter(rng, v0, v1), v1 + quarter(rng)),
        _ => {
            let steps = ((v1 - v0) * 4.0) as i64;
            if steps >= 3 {
                let a = rng.random_range(1..steps - 1);
                let b = rng.random_range(a + 1..steps);
                (v0 + 0.25 * a as f64, v0 + 0.25 * b as f64)
            } else {
                (v0 - quarter(rng), v1 + quarter(rng))
            }
        }
    };
    // Independent nudges on the low and high straddling edges: the same
    // grid line can be approached from below on one edge and from above
    // on the other.
    let pts_uv = [
        (big_u0, band_lo),
        (ulp_near(rng, u0), band_lo),
        (ulp_near(rng, u1), band_lo),
        (big_u1, band_lo),
        (big_u1, band_hi),
        (ulp_near(rng, u1), band_hi),
        (ulp_near(rng, u0), band_hi),
        (big_u0, band_hi),
    ];
    let coords = pts_uv.map(|(u, v)| if transpose { (v, u) } else { (u, v) });
    Region::from_coords(coords).expect("a straddler outline is a valid polygon")
}

/// The ulp-adversarial scenario for `seed`: one or two straddlers plus
/// the exact reference, optionally at `2^±40` magnitude (power-of-two
/// scaling preserves every ulp relationship exactly).
pub fn generate_ulp(seed: u64) -> Scenario {
    let rng = &mut SplitMix64::seed_from_u64(seed ^ ULP_STREAM);
    let reference = lattice_box(rng);
    let n = rng.random_range(1usize..=2);
    let mut regions: Vec<Region> = (0..n).map(|_| ulp_straddler(rng, reference)).collect();
    regions.push(rect_region(reference));
    match rng.random_range(0u32..8) {
        0 => regions = regions.iter().map(|r| scaled(r, 2f64.powi(40))).collect(),
        1 => regions = regions.iter().map(|r| scaled(r, 2f64.powi(-40))).collect(),
        _ => {}
    }
    Scenario {
        family: "ulp-adversarial",
        regions,
    }
}

// ---------------------------------------------------------------------------
// The join-clusters family
// ---------------------------------------------------------------------------

/// Stream separator for the join generator's RNG (distinct from
/// [`ULP_STREAM`] and the classic stream), so `--family join` draws a
/// different sequence than the other families at the same seed.
const JOIN_STREAM: u64 = 0xff51_afd7_u64;

/// The spatial-join adversarial scenario for `seed`: a heavy MBB overlap
/// cluster around the reference — boxes anchored to the reference's own
/// grid lines (shared lines, touching corners), multi-rect members, and
/// thin slivers pinned onto a grid line — plus one or two far satellites
/// whose boxes are strictly separated, so every seed exercises *both*
/// sides of the join's partition: mask emission and the exact pipeline.
/// A quarter of seeds run at `2^±40` magnitude.
pub fn generate_join(seed: u64) -> Scenario {
    let rng = &mut SplitMix64::seed_from_u64(seed ^ JOIN_STREAM);
    let reference = lattice_box(rng);
    let (xs, ys) = grid_lines(reference);

    let cluster = rng.random_range(3usize..=6);
    let mut regions: Vec<Region> = (0..cluster)
        .map(|_| match rng.random_range(0u32..4) {
            0 | 1 => rect_region(anchored_box(rng, &xs, &ys)),
            2 => {
                let members = rng.random_range(2usize..=3);
                multi_rect_region(rng, members, &xs, &ys)
            }
            _ => {
                // A sliver half a unit tall pinned onto a grid line:
                // a degenerate-MBB member of the overlap cluster.
                let y = anchored(rng, &ys);
                rect_region([xs[0], y, xs[1], y + 0.5])
            }
        })
        .collect();
    // Far satellites: translated whole lattice units beyond the lattice
    // extent, so their boxes are strictly inside one outer tile of every
    // cluster member (`k/2 ± 200` stays exact in f64).
    for _ in 0..rng.random_range(1usize..=2) {
        let b = lattice_box(rng);
        let dx = if rng.random_bool(0.5) { 200.0 } else { -200.0 };
        let dy = if rng.random_bool(0.5) { 200.0 } else { -200.0 };
        regions.push(rect_region([b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy]));
    }
    regions.push(rect_region(reference));

    match rng.random_range(0u32..8) {
        0 => regions = regions.iter().map(|r| scaled(r, 2f64.powi(40))).collect(),
        1 => regions = regions.iter().map(|r| scaled(r, 2f64.powi(-40))).collect(),
        _ => {}
    }
    Scenario {
        family: "join-clusters",
        regions,
    }
}

/// Deterministically generates the scenario for `seed`.
///
/// One seed in five goes to the ulp-adversarial family through its own
/// RNG stream; the remaining seeds keep the exact historical seed →
/// scenario mapping of the six classic families, so pinned regression
/// seeds (e.g. 57) still replay their original geometry. (The
/// join-clusters family is reachable only through `--family join` /
/// [`generate_join`], keeping this mapping frozen.)
pub fn generate(seed: u64) -> Scenario {
    if seed.is_multiple_of(5) {
        return generate_ulp(seed);
    }
    let rng = &mut SplitMix64::seed_from_u64(seed);
    let reference = lattice_box(rng);
    let (xs, ys) = grid_lines(reference);

    let family_idx = rng.random_range(0u32..6);
    let (family, mut regions) = match family_idx {
        0 => {
            // Rectangles anchored to the reference grid: shared lines,
            // touching corners, exact tile fills, straddles.
            let primaries = rng.random_range(1usize..=3);
            let mut rs: Vec<Region> = (0..primaries)
                .map(|_| rect_region(anchored_box(rng, &xs, &ys)))
                .collect();
            rs.push(rect_region(reference));
            ("anchored-rects", rs)
        }
        1 => {
            // Multi-polygon regions straddling tiles, members touching
            // along edges and corners.
            let a_count = rng.random_range(2usize..=4);
            let a = multi_rect_region(rng, a_count, &xs, &ys);
            let b_count = rng.random_range(1usize..=2);
            let b = multi_rect_region(rng, b_count, &xs, &ys);
            ("archipelago", vec![a, b, rect_region(reference)])
        }
        2 => {
            // Needles: near-degenerate triangles lying on or crossing
            // grid lines.
            let n = rng.random_range(1usize..=2);
            let mut rs: Vec<Region> = (0..n).map(|_| needle_region(rng, &xs, &ys)).collect();
            rs.push(rect_region(reference));
            ("needles", rs)
        }
        3 => {
            // Rectilinear outlines with collinear consecutive edges; the
            // cut positions include the reference's own grid lines, so
            // vertices land exactly on crossings.
            let outline = anchored_box(rng, &xs, &ys);
            let mut xcuts = xs.to_vec();
            let mut ycuts = ys.to_vec();
            for _ in 0..rng.random_range(0usize..=3) {
                xcuts.push(half(rng));
                ycuts.push(half(rng));
            }
            let a = Region::single(subdivided_rect(outline, &xcuts, &ycuts));
            ("collinear-staircase", vec![a, rect_region(reference)])
        }
        4 => {
            // A square reference plus a triangle whose hypotenuse passes
            // exactly through two opposite grid corners.
            let side = rng.random_range(1i64..=60) as f64;
            let sq = [
                reference[0],
                reference[1],
                reference[0] + side,
                reference[1] + side,
            ];
            let s = rng.random_range(1i64..=20) as f64 / 2.0;
            let tri = Region::from_coords([
                (sq[0] - s, sq[1] - s),
                (sq[2] + s, sq[3] + s),
                (sq[2] + s, sq[1] - s),
            ])
            .expect("diagonal triangle has positive area");
            ("corner-diagonal", vec![tri, rect_region(sq)])
        }
        _ => {
            // Degenerate-MBB neighbours: primaries collapsed to a single
            // row/column of the lattice (thin slivers half a unit wide)
            // sharing lines with the reference.
            let y = anchored(rng, &ys);
            let sliver = [xs[0], y, xs[1], y + 0.5];
            let mut rs = vec![rect_region(sliver)];
            rs.push(rect_region(anchored_box(rng, &xs, &ys)));
            rs.push(rect_region(reference));
            ("slivers", rs)
        }
    };

    // A quarter of scenarios run at extreme magnitudes; powers of two
    // keep every coordinate exact.
    match rng.random_range(0u32..8) {
        0 => {
            let s = 2f64.powi(40);
            regions = regions.iter().map(|r| scaled(r, s)).collect();
        }
        1 => {
            let s = 2f64.powi(-40);
            regions = regions.iter().map(|r| scaled(r, s)).collect();
        }
        _ => {}
    }

    Scenario { family, regions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.family, b.family);
            assert_eq!(a.regions, b.regions);
        }
    }

    #[test]
    fn every_family_appears_and_regions_are_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let s = generate(seed);
            seen.insert(s.family);
            assert!(s.regions.len() >= 2, "seed {seed}");
            for r in &s.regions {
                assert!(r.area() > 0.0, "seed {seed}");
                for p in r.polygons() {
                    assert!(p.is_simple(), "seed {seed}: non-simple polygon");
                }
            }
        }
        assert_eq!(seen.len(), 7, "families seen: {seen:?}");
    }

    #[test]
    fn classic_seed_mapping_is_preserved() {
        // The ulp family must not have re-mapped historical seeds: the
        // pinned regression seed 57 still generates its original
        // micro-scale needles scenario.
        assert_eq!(generate(57).family, "needles");
    }

    /// The join family must feed both sides of the partition: on (almost)
    /// every seed some ordered pair is box-decided (mask-emitted) *and*
    /// some pair is undecided (routed to the exact pipeline) — otherwise
    /// the `--family join` sweep would not actually exercise the join.
    #[test]
    fn join_family_exercises_both_partition_sides() {
        use cardir_engine::{decided_tile, RegionCache};
        let (mut with_decided, mut with_undecided, mut scaled_seeds) = (0u32, 0u32, 0u32);
        for seed in 0..200u64 {
            let s = generate_join(seed);
            assert_eq!(s.family, "join-clusters");
            assert_eq!(
                s.regions,
                generate_join(seed).regions,
                "seed {seed}: non-deterministic"
            );
            assert!(s.regions.len() >= 5, "seed {seed}");
            for r in &s.regions {
                assert!(r.area() > 0.0, "seed {seed}");
                for p in r.polygons() {
                    assert!(p.is_simple(), "seed {seed}: non-simple polygon");
                }
            }
            if s.regions.iter().any(|r| r.mbb().max.x.abs() > 1_000.0) {
                scaled_seeds += 1;
            }
            let cache = RegionCache::build(&s.regions);
            let (mut any_decided, mut any_undecided) = (false, false);
            for i in 0..cache.len() {
                for j in 0..cache.len() {
                    if i != j {
                        match decided_tile(cache.mbb(i), cache.mbb(j)) {
                            Some(_) => any_decided = true,
                            None => any_undecided = true,
                        }
                    }
                }
            }
            with_decided += any_decided as u32;
            with_undecided += any_undecided as u32;
        }
        assert!(
            with_decided >= 195,
            "only {with_decided} / 200 seeds had mask-emitted pairs"
        );
        assert!(
            with_undecided >= 195,
            "only {with_undecided} / 200 seeds had exact pairs"
        );
        assert!(
            scaled_seeds > 20,
            "only {scaled_seeds} / 200 seeds ran at 2^±40"
        );
    }

    #[test]
    fn ulp_family_straddles_and_stays_valid() {
        let mut nudged_seeds = 0;
        for seed in 0..200u64 {
            let s = generate_ulp(seed);
            assert_eq!(s.family, "ulp-adversarial");
            assert!(s.regions.len() >= 2, "seed {seed}");
            let reference = s.regions.last().unwrap().mbb();
            let mut nudged = false;
            for r in &s.regions {
                assert!(r.area() > 0.0, "seed {seed}");
                for p in r.polygons() {
                    assert!(p.is_simple(), "seed {seed}: non-simple polygon");
                    for v in p.vertices() {
                        // Any vertex within 4 ulps of a reference grid
                        // line is either exactly on it or a nudge.
                        for (c, line) in [
                            (v.x, reference.min.x),
                            (v.x, reference.max.x),
                            (v.y, reference.min.y),
                            (v.y, reference.max.y),
                        ] {
                            if c != line
                                && (c - line).abs() <= 4.0 * (line.abs() * f64::EPSILON)
                                && line != 0.0
                            {
                                nudged = true;
                            }
                        }
                    }
                }
            }
            if nudged {
                nudged_seeds += 1;
            }
        }
        // The whole point of the family: most seeds carry real 1–4 ulp
        // contact geometry.
        assert!(
            nudged_seeds > 100,
            "only {nudged_seeds} / 200 seeds had ulp nudges"
        );
    }
}
