//! Cross-validation of the paper's algorithms (DESIGN.md §7): on
//! hundreds of seeded random regions, `Compute-CDR` / `Compute-CDR%`
//! must agree with the clipping baseline, and the percentage matrices
//! must satisfy their invariants. All cases derive from a fixed
//! [`SplitMix64`] stream, so failures reproduce exactly.

use cardir::core::{clipping_cdr, compute_cdr, tile_areas, ALL_TILES};
use cardir::geometry::{Point, Region};
use cardir::workloads::{comb_polygon, star_polygon, SplitMix64};

/// A star polygon with 3–40 vertices anywhere near the origin.
fn random_star(rng: &mut SplitMix64) -> Region {
    let n = rng.random_range(3usize..40);
    let cx = rng.random_range(-10.0..10.0);
    let cy = rng.random_range(-10.0..10.0);
    let r = rng.random_range(0.5..6.0);
    Region::single(star_polygon(rng, Point::new(cx, cy), r * 0.4, r, n))
}

/// A composite region of 1–4 stars spread out on a grid.
fn random_composite(rng: &mut SplitMix64) -> Region {
    let k = rng.random_range(1usize..=4);
    let n = rng.random_range(4usize..16);
    let polys = (0..k)
        .map(|i| {
            let c = Point::new(i as f64 * 14.0 - 10.0, (i % 2) as f64 * 12.0 - 5.0);
            star_polygon(rng, c, 2.0, 5.0, n)
        })
        .collect::<Vec<_>>();
    Region::new(polys).unwrap()
}

/// The qualitative relation from edge division equals the one from
/// clipping, for random simple primaries over random references.
#[test]
fn qualitative_agrees_with_clipping() {
    let mut rng = SplitMix64::seed_from_u64(101);
    for case in 0..128 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let fast = compute_cdr(&a, &b);
        let baseline = clipping_cdr(&a, &b);
        assert_eq!(fast, baseline.relation, "case {case}: a={a} b={b}");
    }
}

/// Same for composite (REG*) primaries.
#[test]
fn composite_qualitative_agrees_with_clipping() {
    let mut rng = SplitMix64::seed_from_u64(102);
    for case in 0..128 {
        let a = random_composite(&mut rng);
        let b = random_star(&mut rng);
        let fast = compute_cdr(&a, &b);
        let baseline = clipping_cdr(&a, &b);
        assert_eq!(fast, baseline.relation, "case {case}");
    }
}

/// Per-tile areas agree with the clipping baseline within round-off.
#[test]
fn areas_agree_with_clipping() {
    let mut rng = SplitMix64::seed_from_u64(103);
    for case in 0..128 {
        let a = random_composite(&mut rng);
        let b = random_star(&mut rng);
        let fast = tile_areas(&a, &b);
        let baseline = clipping_cdr(&a, &b);
        let tol = 1e-9 * a.area().max(1.0);
        for t in ALL_TILES {
            assert!(
                (fast.get(t) - baseline.areas.get(t)).abs() < tol,
                "case {case}, tile {t}: {} vs {}",
                fast.get(t),
                baseline.areas.get(t)
            );
        }
    }
}

/// Tile areas are non-negative, sum to the primary's area, and their
/// positive support equals the qualitative relation (connecting
/// Theorems 1 and 2).
#[test]
fn percentage_invariants() {
    let mut rng = SplitMix64::seed_from_u64(104);
    for case in 0..128 {
        let a = random_composite(&mut rng);
        let b = random_star(&mut rng);
        let areas = tile_areas(&a, &b);
        let mut total = 0.0;
        for t in ALL_TILES {
            assert!(areas.get(t) >= 0.0, "case {case}, tile {t}");
            total += areas.get(t);
        }
        assert!((total - a.area()).abs() < 1e-9 * a.area().max(1.0), "case {case}");

        let matrix = areas.percentages();
        assert!((matrix.sum() - 100.0).abs() < 1e-9, "case {case}");

        let from_areas = areas.relation(1e-9 * a.area().max(1.0)).unwrap();
        let qualitative = compute_cdr(&a, &b);
        assert_eq!(from_areas, qualitative, "case {case}");
    }
}

/// Edge division introduces at most 4 extra edges per input edge (one
/// per grid line) and never loses edges.
#[test]
fn division_bounds() {
    let mut rng = SplitMix64::seed_from_u64(105);
    for case in 0..128 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let mut counts = cardir::core::CountingHook::new();
        cardir::core::compute_cdr_with_mbb(&a, b.mbb(), &mut counts);
        assert!(counts.sub_edges >= counts.edges_scanned, "case {case}");
        assert!(counts.sub_edges <= 5 * counts.edges_scanned, "case {case}");
    }
}

/// Translating both regions together never changes the relation.
#[test]
fn translation_invariance() {
    let mut rng = SplitMix64::seed_from_u64(106);
    for case in 0..128 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let dx = rng.random_range(-50.0..50.0);
        let dy = rng.random_range(-50.0..50.0);
        let before = compute_cdr(&a, &b);
        let after = compute_cdr(&a.translated(dx, dy), &b.translated(dx, dy));
        assert_eq!(before, after, "case {case}: dx={dx} dy={dy}");
    }
}

/// The observed pair (a R1 b, b R2 a) is always predicted realizable by
/// the reasoning layer's exact pair table.
#[test]
fn observed_pairs_are_realizable() {
    let mut rng = SplitMix64::seed_from_u64(107);
    for case in 0..128 {
        let a = random_composite(&mut rng);
        let b = random_composite(&mut rng);
        let r_ab = compute_cdr(&a, &b);
        let r_ba = compute_cdr(&b, &a);
        assert!(
            cardir::reasoning::pair_realizable(r_ab, r_ba),
            "case {case}: pair ({r_ab}, {r_ba}) not in table"
        );
    }
}

/// Adversarial comb shapes: many grid-line crossings, exact agreement
/// still required.
#[test]
fn comb_primary_agrees_with_clipping() {
    let b = Region::from_coords([(0.0, 0.0), (40.0, 0.0), (40.0, 3.0), (0.0, 3.0)]).unwrap();
    for teeth in [1, 3, 10, 25] {
        let comb = Region::single(comb_polygon(-5.0, 1.0, 6.0, 1.0, teeth));
        let fast = compute_cdr(&comb, &b);
        let baseline = clipping_cdr(&comb, &b);
        assert_eq!(fast, baseline.relation, "teeth = {teeth}");
        let fast_areas = tile_areas(&comb, &b);
        for t in ALL_TILES {
            assert!(
                (fast_areas.get(t) - baseline.areas.get(t)).abs() < 1e-9 * comb.area(),
                "teeth {teeth}, tile {t}"
            );
        }
    }
}

/// Degenerate-adjacent cases: regions sharing boundary lines with the
/// reference mbb.
#[test]
fn shared_boundary_cases_agree() {
    let b = Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
    let cases = [
        Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap(), // identical
        Region::from_coords([(0.0, -4.0), (4.0, -4.0), (4.0, 0.0), (0.0, 0.0)]).unwrap(), // touches south
        Region::from_coords([(4.0, 4.0), (8.0, 4.0), (8.0, 8.0), (4.0, 8.0)]).unwrap(), // corner touch
        Region::from_coords([(-4.0, -4.0), (8.0, -4.0), (8.0, 8.0), (-4.0, 8.0)]).unwrap(), // superset
        Region::from_coords([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]).unwrap(), // inside
    ];
    for a in cases {
        assert_eq!(compute_cdr(&a, &b), clipping_cdr(&a, &b).relation, "a = {a}");
    }
}
