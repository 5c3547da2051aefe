//! Cross-layer regression suite for the robust predicate rewrite:
//! orientation, containment, and crossing decisions must stay exact at
//! 1–4 ulp separations all the way up the stack — `compute_cdr` tile
//! assignment, the B-tile containment test, the batch engine, and the
//! clipping baseline must all agree on geometry nudged by single ulps
//! around shared lines and vertices.

use cardir_core::{clipping_cdr, compute_cdr};
use cardir_geometry::robust::on_segment;
use cardir_geometry::{orient2d_sign, Point, Region, Sign};

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// The reference box `[0, 4]²` used throughout.
fn b() -> Region {
    rect(0.0, 0.0, 4.0, 4.0)
}

/// The deterministic seeded ulp-adversarial sweep, cross-validated
/// against the clipping baseline (and the engine, the area matrix, and
/// the persistence layer) by the differential fuzz harness. CI runs the
/// same family for ≥ 200 seeds; this pins a block of it into `cargo
/// test`.
#[test]
fn ulp_adversarial_sweep_agrees_with_clipping_baseline() {
    let report = cardir_fuzz::run_ulp(1, 120);
    assert_eq!(report.iterations, 120);
    assert!(
        report.divergences.is_empty(),
        "ulp sweep diverged:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Tile assignment discriminates single ulps around a grid line: a
/// primary whose west edge sits one ulp west of the reference's east
/// line occupies the same tiles as one clearly straddling it; one ulp
/// east, the same tiles as one clearly beyond it; exactly on the line,
/// contact only (no `B`).
#[test]
fn tile_assignment_is_sharp_to_one_ulp_at_a_grid_line() {
    let reference = b();
    let straddling = compute_cdr(&rect(3.5, 1.0, 6.0, 3.0), &reference);
    let beyond = compute_cdr(&rect(4.5, 1.0, 6.0, 3.0), &reference);
    assert_ne!(straddling, beyond);

    let just_west = compute_cdr(&rect(4.0f64.next_down(), 1.0, 6.0, 3.0), &reference);
    assert_eq!(
        just_west, straddling,
        "1 ulp west of the line must straddle"
    );
    let just_east = compute_cdr(&rect(4.0f64.next_up(), 1.0, 6.0, 3.0), &reference);
    assert_eq!(
        just_east, beyond,
        "1 ulp east of the line must not straddle"
    );
    let exactly_on = compute_cdr(&rect(4.0, 1.0, 6.0, 3.0), &reference);
    assert_eq!(
        exactly_on, beyond,
        "edge contact with the line adds no tile"
    );
}

/// The same discrimination at `2^±40` magnitudes: scaling by exact
/// powers of two preserves every ulp relationship, and no tolerance may
/// reappear at either extreme.
#[test]
fn tile_assignment_stays_sharp_at_extreme_magnitudes() {
    for exp in [-40, 40] {
        let s = 2f64.powi(exp);
        let reference = rect(0.0, 0.0, 4.0 * s, 4.0 * s);
        let line = 4.0 * s;
        let straddling = compute_cdr(&rect(3.5 * s, s, 6.0 * s, 3.0 * s), &reference);
        let beyond = compute_cdr(&rect(4.5 * s, s, 6.0 * s, 3.0 * s), &reference);
        assert_ne!(straddling, beyond);
        assert_eq!(
            compute_cdr(&rect(line.next_down(), s, 6.0 * s, 3.0 * s), &reference),
            straddling,
            "exp = {exp}"
        );
        assert_eq!(
            compute_cdr(&rect(line.next_up(), s, 6.0 * s, 3.0 * s), &reference),
            beyond,
            "exp = {exp}"
        );
    }
}

/// The `B`-tile containment test (Fig. 5's "center of mbb(b) in p")
/// goes through the exact parity predicate: a primary covering the
/// whole central tile reports `B` even though none of its edges enter
/// the tile, at every magnitude.
#[test]
fn b_center_containment_is_exact_across_magnitudes() {
    for exp in [-40, 0, 40] {
        let s = 2f64.powi(exp);
        let reference = rect(0.0, 0.0, 4.0 * s, 4.0 * s);
        let cover = rect(-s, -s, 5.0 * s, 5.0 * s);
        let relation = compute_cdr(&cover, &reference);
        let clipped = clipping_cdr(&cover, &reference);
        assert_eq!(relation, clipped.relation, "exp = {exp}");
        assert_eq!(
            relation.to_string().matches('B').count(),
            1,
            "exp = {exp}: {relation}"
        );
    }
}

/// Orientation decisions survive coordinates a single ulp apart on a
/// huge-magnitude diagonal — the regime where the naive determinant
/// rounds to zero or the wrong sign and the exact fallback must decide.
#[test]
fn orientation_is_exact_across_magnitudes() {
    for exp in [-40, 0, 17, 40] {
        let s = 2f64.powi(exp);
        let a = Point::new(0.0, 0.0);
        let c = Point::new(3.0 * s, 3.0 * s);
        let mid = Point::new(1.5 * s, 1.5 * s);
        assert_eq!(orient2d_sign(a, c, mid), Sign::Zero, "exp = {exp}");
        assert_eq!(
            orient2d_sign(a, c, Point::new(mid.x, mid.y.next_up())),
            Sign::Positive,
            "exp = {exp}"
        );
        assert_eq!(
            orient2d_sign(a, c, Point::new(mid.x, mid.y.next_down())),
            Sign::Negative,
            "exp = {exp}"
        );
        assert!(on_segment(a, c, mid));
        assert!(!on_segment(a, c, Point::new(mid.x, mid.y.next_up())));
    }
}
