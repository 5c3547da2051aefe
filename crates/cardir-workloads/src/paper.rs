//! The exact geometries behind the paper's worked examples and figures.
//!
//! Coordinates are reconstructions: the paper's figures are drawings, so we
//! choose coordinates that reproduce every *stated* property — the
//! relations of Example 1, the 50 %/50 % percentage matrix of Fig. 1c, and
//! the edge-division counts of Fig. 3 and Example 3. Tests in
//! `cardir-core` and the experiment binaries in `cardir-bench` assert all
//! of these.

use cardir_geometry::{Polygon, Region};

/// The reference region `b` used throughout the figures: a square whose
/// `mbb` is `[0,4] × [0,4]` (lines `m1=0, m2=4, l1=0, l2=4`).
pub fn reference_b() -> Region {
    Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).expect("static geometry")
}

/// Fig. 1b: region `a` with `a S b`.
pub fn fig1_a_south() -> Region {
    Region::from_coords([(1.0, -3.0), (3.0, -3.0), (3.0, -1.0), (1.0, -1.0)])
        .expect("static geometry")
}

/// Fig. 1c: region `c` with `c NE:E b`, 50 % in each tile.
pub fn fig1_c_northeast_east() -> Region {
    Region::from_coords([(5.0, 2.0), (7.0, 2.0), (7.0, 6.0), (5.0, 6.0)]).expect("static geometry")
}

/// Fig. 1d: the composite region `d = d1 ∪ … ∪ d8` (disconnected, with a
/// hole) satisfying `d B:S:SW:W:NW:N:E:SE b` — every tile except `NE`.
pub fn fig1_d_composite() -> Region {
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Polygon::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).expect("static geometry")
    };
    Region::new([
        rect(1.0, 1.0, 3.0, 3.0),     // d1 in B
        rect(1.0, -3.0, 3.0, -1.0),   // d2 in S
        rect(-3.0, -3.0, -1.0, -1.0), // d3 in SW
        rect(-3.0, 1.0, -1.0, 3.0),   // d4 in W
        rect(-3.0, 5.0, -1.0, 7.0),   // d5 in NW
        rect(1.0, 5.0, 3.0, 7.0),     // d6 in N
        rect(5.0, -3.0, 7.0, -1.0),   // d7 in SE
        rect(5.0, 1.0, 7.0, 3.0),     // d8 in E
    ])
    .expect("static geometry")
}

/// Fig. 3b: a quadrangle centred on a corner of `mbb(b)`. Edge division
/// yields 8 edges; clipping yields 4 quadrangles (16 edges).
pub fn fig3b_quadrangle() -> Region {
    Region::from_coords([(-1.0, 3.0), (1.0, 3.0), (1.0, 5.0), (-1.0, 5.0)])
        .expect("static geometry")
}

/// Fig. 3c: the worst case — a triangle covering all nine tiles. Edge
/// division yields 11 edges; clipping yields 9 polygons (~35 edges, "2
/// triangles, 6 quadrangles and 1 pentagon").
pub fn fig3c_triangle() -> Region {
    Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).expect("static geometry")
}

/// Examples 2 and 3 (Fig. 4): the quadrangle `(N1 N2 N3 N4)` whose
/// vertices lie in `W, NW, NW, NE` but whose relation is
/// `B:W:NW:N:NE:E`. Edge division produces 9 edges
/// (`N1N2 → 2, N2N3 → 1, N3N4 → 3, N4N1 → 3`).
pub fn example3_quadrangle() -> Region {
    Region::from_coords([(-2.0, 2.0), (-3.0, 5.0), (-1.0, 6.0), (5.0, 4.0)])
        .expect("static geometry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::{compute_cdr, compute_cdr_pct, Tile};

    #[test]
    fn example_1_relations_hold() {
        let b = reference_b();
        assert_eq!(compute_cdr(&fig1_a_south(), &b).to_string(), "S");
        assert_eq!(
            compute_cdr(&fig1_c_northeast_east(), &b).to_string(),
            "NE:E"
        );
        assert_eq!(
            compute_cdr(&fig1_d_composite(), &b).to_string(),
            "B:S:SW:W:NW:N:E:SE"
        );
    }

    #[test]
    fn fig_1c_percentages_are_half_and_half() {
        let b = reference_b();
        let m = compute_cdr_pct(&fig1_c_northeast_east(), &b);
        assert!((m.get(Tile::NE) - 50.0).abs() < 1e-9);
        assert!((m.get(Tile::E) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn shapes_are_valid() {
        for r in [
            reference_b(),
            fig1_a_south(),
            fig1_c_northeast_east(),
            fig1_d_composite(),
            fig3b_quadrangle(),
            fig3c_triangle(),
            example3_quadrangle(),
        ] {
            assert!(r.area() > 0.0);
            for p in r.polygons() {
                assert!(p.is_simple());
            }
        }
    }
}
