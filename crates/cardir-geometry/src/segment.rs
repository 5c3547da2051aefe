//! Directed line segments (polygon edges).

use crate::line::Line;
use crate::point::Point;
use crate::robust::{on_segment, orient2d_sign, Sign};
use std::fmt;

/// A directed segment from `a` to `b` — an edge `AB` in the paper's
/// terminology.
///
/// Direction matters: polygons are clockwise, so for every edge the polygon
/// interior lies to the *right* of the direction vector (see
/// [`Segment::right_normal`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point `A`.
    pub a: Point,
    /// End point `B`.
    pub b: Point,
}

impl Segment {
    /// Creates a directed segment `A → B`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// The direction vector `B − A`.
    #[inline]
    pub fn direction(self) -> Point {
        self.b - self.a
    }

    /// The midpoint of the segment — the representative point used by
    /// `Compute-CDR` to classify a divided edge into a tile.
    #[inline]
    pub fn midpoint(self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        self.direction().norm()
    }

    /// The reversed segment `B → A`.
    #[inline]
    pub fn reversed(self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Returns `true` when the segment is degenerate (`A == B`).
    #[inline]
    pub fn is_degenerate(self) -> bool {
        self.a == self.b
    }

    /// The normal pointing to the right of the direction vector.
    ///
    /// For edges of a *clockwise* polygon this points into the polygon
    /// interior; the cardinal-direction algorithms use it to attribute edges
    /// lying exactly on an `mbb` grid line to the tile containing the
    /// adjacent interior, with no epsilon.
    #[inline]
    pub fn right_normal(self) -> Point {
        let d = self.direction();
        Point::new(d.y, -d.x)
    }

    /// Definition 3 of the paper: the line `e` *does not cross* `AB` iff
    /// (a) they do not intersect, (b) they intersect only at `A` or `B`, or
    /// (c) `AB` lies entirely on `e`.
    ///
    /// Equivalently: the two endpoints do not lie strictly on opposite sides
    /// of the line.
    ///
    /// This classification is **exact**: the lines are axis-parallel, so
    /// [`Line::offset`] is a single IEEE subtraction, and the sign of a
    /// correctly rounded difference of two `f64`s is always the sign of the
    /// exact difference (the rounding of a non-zero real cannot reach zero
    /// or cross it). No epsilon, no robust fallback needed.
    #[inline]
    pub fn not_crossed_by(self, line: Line) -> bool {
        let oa = line.offset(self.a);
        let ob = line.offset(self.b);
        oa * ob >= 0.0 || oa == 0.0 || ob == 0.0
    }

    /// Returns `true` when `line` crosses the *interior* of the segment
    /// (endpoints strictly on opposite sides). Exact — see
    /// [`Segment::not_crossed_by`].
    #[inline]
    pub fn crossed_by(self, line: Line) -> bool {
        let oa = line.offset(self.a);
        let ob = line.offset(self.b);
        (oa < 0.0 && ob > 0.0) || (oa > 0.0 && ob < 0.0)
    }

    /// The interior intersection point with an axis-parallel line, if the
    /// line crosses the open segment.
    ///
    /// The constant coordinate of the result is *exactly* the line
    /// coordinate (no round-off), so downstream band classification of the
    /// sub-edges produced by edge division is exact.
    pub fn crossing_point(self, line: Line) -> Option<Point> {
        if !self.crossed_by(line) {
            return None;
        }
        let oa = line.offset(self.a);
        let ob = line.offset(self.b);
        // oa and ob have strictly opposite signs, so oa - ob != 0.
        let t = oa / (oa - ob);
        let p = self.a.lerp(self.b, t);
        Some(match line {
            Line::Vertical(m) => Point::new(m, p.y),
            Line::Horizontal(l) => Point::new(p.x, l),
        })
    }

    /// Parameter of the interior crossing with `line` along the segment
    /// (`0 < t < 1`), if any.
    ///
    /// The returned parameter is clamped to `[0, 1]`. For correctly rounded
    /// IEEE arithmetic `oa / (oa − ob)` already lands in `[0, 1]` (the
    /// offsets have strictly opposite signs, so the rounded denominator's
    /// magnitude is at least each numerator's), but the clamp makes the
    /// contract independent of that analysis: a division point handed to
    /// `divide.rs` can never lie outside the edge.
    pub fn crossing_parameter(self, line: Line) -> Option<f64> {
        if !self.crossed_by(line) {
            return None;
        }
        let oa = line.offset(self.a);
        let ob = line.offset(self.b);
        Some((oa / (oa - ob)).clamp(0.0, 1.0))
    }

    /// Returns `true` when the whole segment lies on `line`.
    #[inline]
    pub fn lies_on(self, line: Line) -> bool {
        line.contains(self.a) && line.contains(self.b)
    }

    /// Returns `true` when `p` lies on the closed segment — **exactly**.
    ///
    /// Collinearity is decided by the exact orientation predicate
    /// ([`crate::robust::orient2d_sign`]); the along-the-segment range
    /// check is a pair of coordinate comparisons. There is no tolerance:
    /// a point one ulp off the carrier line is off the segment, and a
    /// micro-scale segment is never swallowed by an epsilon floor.
    pub fn contains_point(self, p: Point) -> bool {
        on_segment(self.a, self.b, p)
    }
}

/// Closed-segment intersection test: shared endpoints, collinear overlap
/// and interior crossings all count. Exact: every sign comes from the
/// robust orientation predicate.
pub fn segments_intersect(s: Segment, t: Segment) -> bool {
    let d1 = orient2d_sign(t.a, t.b, s.a);
    let d2 = orient2d_sign(t.a, t.b, s.b);
    let d3 = orient2d_sign(s.a, s.b, t.a);
    let d4 = orient2d_sign(s.a, s.b, t.b);
    if !d1.is_zero() && d2 == d1.flipped() && !d3.is_zero() && d4 == d3.flipped() {
        return true;
    }
    let on = |d: Sign, seg: Segment, p: Point| d.is_zero() && seg.contains_point(p);
    on(d1, t, s.a) || on(d2, t, s.b) || on(d3, s, t.a) || on(d4, s, t.b)
}

/// Proper-crossing test: the *interiors* of both segments cross (touches
/// at endpoints and collinear overlaps do not count). Exact — same sign
/// source as [`segments_intersect`].
pub fn segments_cross_properly(s: Segment, t: Segment) -> bool {
    let d1 = orient2d_sign(t.a, t.b, s.a);
    let d2 = orient2d_sign(t.a, t.b, s.b);
    let d3 = orient2d_sign(s.a, s.b, t.a);
    let d4 = orient2d_sign(s.a, s.b, t.b);
    !d1.is_zero() && d2 == d1.flipped() && !d3.is_zero() && d4 == d3.flipped()
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.a, self.b)
    }
}

/// Shorthand constructor for tests and examples.
#[inline]
pub fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
    Segment::new(Point::new(ax, ay), Point::new(bx, by))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn basic_accessors() {
        let s = seg(0.0, 0.0, 4.0, 2.0);
        assert_eq!(s.direction(), pt(4.0, 2.0));
        assert_eq!(s.midpoint(), pt(2.0, 1.0));
        assert_eq!(s.reversed(), seg(4.0, 2.0, 0.0, 0.0));
        assert!(!s.is_degenerate());
        assert!(seg(1.0, 1.0, 1.0, 1.0).is_degenerate());
    }

    #[test]
    fn right_normal_points_into_clockwise_interior() {
        // Top edge of a clockwise unit square: NW (0,1) → NE (1,1).
        // Interior is below, so the right normal must point south.
        let top = seg(0.0, 1.0, 1.0, 1.0);
        assert_eq!(top.right_normal(), pt(0.0, -1.0));
        // East edge NE (1,1) → SE (1,0): interior to the west.
        let east = seg(1.0, 1.0, 1.0, 0.0);
        assert_eq!(east.right_normal(), pt(-1.0, 0.0));
    }

    #[test]
    fn definition_3_not_crossed() {
        let s = seg(0.0, 0.0, 2.0, 2.0);
        // (a) no intersection
        assert!(s.not_crossed_by(Line::Vertical(5.0)));
        // (b) intersects only at an endpoint
        assert!(s.not_crossed_by(Line::Vertical(0.0)));
        assert!(s.not_crossed_by(Line::Horizontal(2.0)));
        // (c) lies on the line
        let flat = seg(0.0, 1.0, 3.0, 1.0);
        assert!(flat.not_crossed_by(Line::Horizontal(1.0)));
        assert!(flat.lies_on(Line::Horizontal(1.0)));
        // a genuine crossing
        assert!(!s.not_crossed_by(Line::Vertical(1.0)));
        assert!(s.crossed_by(Line::Vertical(1.0)));
    }

    #[test]
    fn crossing_point_is_exact_on_line() {
        let s = seg(0.0, 0.0, 3.0, 1.0);
        let p = s.crossing_point(Line::Vertical(1.0)).unwrap();
        assert_eq!(p.x, 1.0); // exactly on the line
        assert!((p.y - 1.0 / 3.0).abs() < 1e-15);

        let q = s.crossing_point(Line::Horizontal(0.5)).unwrap();
        assert_eq!(q.y, 0.5);
        assert_eq!(q.x, 1.5);
    }

    #[test]
    fn crossing_point_absent_for_touching_or_disjoint() {
        let s = seg(0.0, 0.0, 2.0, 2.0);
        assert!(s.crossing_point(Line::Vertical(0.0)).is_none()); // endpoint touch
        assert!(s.crossing_point(Line::Vertical(3.0)).is_none()); // disjoint
        let flat = seg(0.0, 1.0, 3.0, 1.0);
        assert!(flat.crossing_point(Line::Horizontal(1.0)).is_none()); // collinear
    }

    #[test]
    fn crossing_parameter_matches_point() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        // Shifted so that the line crosses the interior.
        let s = Segment::new(s.a, pt(4.0, 4.0));
        let t = s.crossing_parameter(Line::Horizontal(1.0)).unwrap();
        assert!((t - 0.25).abs() < 1e-15);
        assert_eq!(
            s.crossing_point(Line::Horizontal(1.0)).unwrap(),
            s.a.lerp(s.b, t).into_exact_y(1.0)
        );
    }

    trait IntoExactY {
        fn into_exact_y(self, y: f64) -> Point;
    }
    impl IntoExactY for Point {
        fn into_exact_y(self, y: f64) -> Point {
            pt(self.x, y)
        }
    }

    #[test]
    fn intersection_predicates() {
        let s = seg(0.0, 0.0, 4.0, 4.0);
        let crossing = seg(0.0, 4.0, 4.0, 0.0);
        assert!(segments_intersect(s, crossing));
        assert!(segments_cross_properly(s, crossing));
        // Endpoint touch: intersects but not properly.
        let touch = seg(4.0, 4.0, 8.0, 0.0);
        assert!(segments_intersect(s, touch));
        assert!(!segments_cross_properly(s, touch));
        // Collinear overlap: intersects but not properly.
        let overlap = seg(2.0, 2.0, 6.0, 6.0);
        assert!(segments_intersect(s, overlap));
        assert!(!segments_cross_properly(s, overlap));
        // T-contact (endpoint on interior): intersects, not proper.
        let tee = seg(2.0, 2.0, 2.0, 8.0);
        assert!(segments_intersect(s, tee));
        assert!(!segments_cross_properly(s, tee));
        // Disjoint.
        let far = seg(10.0, 10.0, 11.0, 11.0);
        assert!(!segments_intersect(s, far));
    }

    #[test]
    fn contains_point_on_segment() {
        let s = seg(0.0, 0.0, 4.0, 2.0);
        assert!(s.contains_point(pt(2.0, 1.0)));
        assert!(s.contains_point(pt(0.0, 0.0)));
        assert!(s.contains_point(pt(4.0, 2.0)));
        assert!(!s.contains_point(pt(2.0, 1.1)));
        assert!(!s.contains_point(pt(5.0, 2.5))); // collinear but beyond B
                                                  // Exact: one ulp off the carrier line is off the segment.
        assert!(!s.contains_point(pt(2.0, 1.0f64.next_up())));
        assert!(!s.contains_point(pt(2.0, 1.0f64.next_down())));
    }

    /// Regression for the `crossing_parameter` contract: the parameter is
    /// clamped to `[0, 1]`, so the division points that `divide.rs` lerps
    /// from it can never land outside the edge — including at `2^±40`
    /// magnitudes where the offsets round hardest.
    #[test]
    fn crossing_parameter_stays_in_unit_interval_at_extreme_magnitudes() {
        for exp in [-40, 0, 40] {
            let s = 2f64.powi(exp);
            // Segments barely poking across a line: the crossing sits a
            // hair inside an endpoint, where rounding pressure on
            // oa / (oa - ob) is worst.
            for (a, b, line) in [
                (
                    pt(-3.0 * s, s),
                    pt(s * 1e-9, s + s * 1e-9),
                    Line::Vertical(0.0),
                ),
                (
                    pt(-(s * 1e-9), s),
                    pt(3.0 * s, 2.0 * s),
                    Line::Vertical(0.0),
                ),
                (
                    pt(s, -(s * 1e-9)),
                    pt(2.0 * s, 3.0 * s),
                    Line::Horizontal(0.0),
                ),
            ] {
                let edge = Segment::new(a, b);
                let t = edge.crossing_parameter(line).expect("genuine crossing");
                assert!((0.0..=1.0).contains(&t), "exp {exp}: t = {t}");
                // The lerped division point must lie within the edge's box.
                let p = a.lerp(b, t);
                assert!(p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x), "exp {exp}");
                assert!(p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y), "exp {exp}");
            }
        }
    }
}
