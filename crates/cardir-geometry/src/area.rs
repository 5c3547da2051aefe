//! The signed area expressions of Definition 4.
//!
//! For an edge `AB` and a horizontal line `y = l` that does not cross it,
//! the paper defines
//!
//! ```text
//! E_l(AB)  = (x_B − x_A)(y_A + y_B − 2l) / 2
//! E'_m(AB) = (y_B − y_A)(x_A + x_B − 2m) / 2
//! ```
//!
//! whose absolute values are the trapezoid areas between the edge and the
//! line (`(A B L_B L_A)` and `(A M_A M_B B)` respectively). Note the paper's
//! printed formula for `E'_m` repeats `2l`; the correct reference coordinate
//! is `2m` (it is the distance to the *vertical* line `x = m`), which is
//! what this module implements and what makes the worked examples of
//! Section 3.2 come out right.
//!
//! Summed over the (directed, clockwise) edges of a polygon the expressions
//! telescope into the polygon area — with the crucial property, exploited by
//! `Compute-CDR%`, that edges lying *on* the reference line, or
//! perpendicular segments connecting to it, contribute exactly zero. That
//! is why per-tile areas can be accumulated from divided edges alone,
//! without ever materialising the clipped polygons.

use crate::line::Line;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::segment::Segment;

/// `E_l(AB)`: signed area between edge `AB` and the horizontal line `y = l`.
///
/// Antisymmetric: `e_l(l, BA) = −e_l(l, AB)`. Zero for vertical edges and
/// for edges lying on the line.
#[inline]
pub fn e_l(l: f64, ab: Segment) -> f64 {
    (ab.b.x - ab.a.x) * (ab.a.y + ab.b.y - 2.0 * l) / 2.0
}

/// `E'_m(AB)`: signed area between edge `AB` and the vertical line `x = m`.
///
/// Antisymmetric: `e_m(m, BA) = −e_m(m, AB)`. Zero for horizontal edges and
/// for edges lying on the line.
#[inline]
pub fn e_m(m: f64, ab: Segment) -> f64 {
    (ab.b.y - ab.a.y) * (ab.a.x + ab.b.x - 2.0 * m) / 2.0
}

/// The signed expression for an arbitrary axis-parallel reference line:
/// `E_l` for horizontal lines, `E'_m` for vertical ones.
#[inline]
pub fn signed_area_to_line(line: Line, ab: Segment) -> f64 {
    match line {
        Line::Horizontal(l) => e_l(l, ab),
        Line::Vertical(m) => e_m(m, ab),
    }
}

/// Unsigned trapezoid area between an edge and a non-crossing line
/// (`area((A B L_B L_A))` in the paper).
#[inline]
pub fn area_between(line: Line, ab: Segment) -> f64 {
    signed_area_to_line(line, ab).abs()
}

/// Polygon area computed against a reference line per Section 3.2:
/// `area(p) = |E_l(N1 N2) + … + E_l(Nk N1)|`.
///
/// Valid for any reference line, including ones crossing the polygon — the
/// expressions still telescope because the vertex list is closed — but the
/// paper states it for non-crossing lines, which is also the only situation
/// `Compute-CDR%` needs.
pub fn polygon_area_via_line(line: Line, p: &Polygon) -> f64 {
    p.edges()
        .map(|e| signed_area_to_line(line, e))
        .sum::<f64>()
        .abs()
}

/// The projections `L_A`/`L_B` (or `M_A`/`M_B`) of Definition 4: the feet
/// of the perpendiculars from the edge endpoints to the line.
pub fn projection_trapezoid(line: Line, ab: Segment) -> [Point; 4] {
    [ab.a, ab.b, line.project(ab.b), line.project(ab.a)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use crate::segment::seg;

    #[test]
    fn e_l_matches_trapezoid_area() {
        // Edge from (0,2) to (4,4) over line y = 1: a trapezoid with
        // parallel sides 1 and 3 and width 4 → area (1+3)/2 · 4 = 8.
        let ab = seg(0.0, 2.0, 4.0, 4.0);
        assert_eq!(e_l(1.0, ab), 8.0);
        assert_eq!(area_between(Line::Horizontal(1.0), ab), 8.0);
    }

    #[test]
    fn e_m_matches_trapezoid_area() {
        // Edge from (2,0) to (4,4) against line x = 1: sides 1 and 3,
        // height 4 → area 8. Direction makes the sign positive here.
        let ab = seg(2.0, 0.0, 4.0, 4.0);
        assert_eq!(e_m(1.0, ab), 8.0);
        assert_eq!(area_between(Line::Vertical(1.0), ab), 8.0);
    }

    #[test]
    fn antisymmetry() {
        let ab = seg(0.5, 2.5, 3.0, 4.0);
        assert_eq!(e_l(1.0, ab), -e_l(1.0, ab.reversed()));
        assert_eq!(e_m(-2.0, ab), -e_m(-2.0, ab.reversed()));
    }

    #[test]
    fn zero_contributions() {
        // An edge lying on the reference line contributes zero…
        assert_eq!(e_l(1.0, seg(0.0, 1.0, 5.0, 1.0)), 0.0);
        assert_eq!(e_m(2.0, seg(2.0, 0.0, 2.0, 9.0)), 0.0);
        // …and so does an edge perpendicular to it (vertical for E_l).
        assert_eq!(e_l(0.0, seg(3.0, 1.0, 3.0, 7.0)), 0.0);
        assert_eq!(e_m(0.0, seg(1.0, 3.0, 7.0, 3.0)), 0.0);
    }

    #[test]
    fn polygon_area_via_any_line_matches_shoelace() {
        let p = Polygon::from_coords([(0.0, 2.0), (1.0, 5.0), (4.0, 4.0), (3.0, 1.0)]).unwrap();
        let shoelace = p.area();
        for line in [
            Line::Horizontal(0.0),
            Line::Horizontal(-3.5),
            Line::Vertical(0.0),
            Line::Vertical(10.0),
            // Even a line crossing the polygon works (telescoping).
            Line::Horizontal(3.0),
        ] {
            let via_line = polygon_area_via_line(line, &p);
            assert!(
                (via_line - shoelace).abs() < 1e-12,
                "line {line}: {via_line} vs {shoelace}"
            );
        }
    }

    #[test]
    fn example_4_running_sums() {
        // Example 4 of the paper sums E_l over the edges of a quadrangle
        // against a line below it; the final absolute value is the area.
        // Reconstruct a quadrangle in that spirit.
        let p = Polygon::from_coords([(1.0, 2.0), (2.0, 5.0), (6.0, 4.0), (5.0, 1.0)]).unwrap();
        let l = 0.0;
        let total: f64 = p.edges().map(|e| e_l(l, e)).sum();
        assert!((total.abs() - p.area()).abs() < 1e-12);
        // Intermediate partial sums (the grey areas of Fig. 8) are
        // generally NOT the polygon area, confirming the telescoping only
        // completes on the closed loop.
        let partial: f64 = p.edges().take(2).map(|e| e_l(l, e)).sum();
        assert!((partial.abs() - p.area()).abs() > 1e-9);
    }

    #[test]
    fn projection_trapezoid_feet_lie_on_line() {
        let ab = seg(1.0, 2.0, 3.0, 4.0);
        let quad = projection_trapezoid(Line::Horizontal(0.0), ab);
        assert_eq!(quad[2], pt(3.0, 0.0));
        assert_eq!(quad[3], pt(1.0, 0.0));
        let quad_v = projection_trapezoid(Line::Vertical(5.0), ab);
        assert_eq!(quad_v[2], pt(5.0, 4.0));
        assert_eq!(quad_v[3], pt(5.0, 2.0));
    }
}
