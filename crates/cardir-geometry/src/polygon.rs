//! Simple polygons with the paper's clockwise-edge convention.

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::robust::{orient2d_sign, Sign};
use crate::segment::{segments_intersect, Segment};
use std::fmt;

/// Errors raised when constructing a [`Polygon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three distinct vertices after normalisation.
    TooFewVertices,
    /// A vertex coordinate is NaN or infinite.
    NonFiniteCoordinate,
    /// The vertices are collinear / the polygon has zero area.
    ZeroArea,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 distinct vertices"),
            PolygonError::NonFiniteCoordinate => {
                write!(f, "polygon vertex has a NaN or infinite coordinate")
            }
            PolygonError::ZeroArea => write!(f, "polygon has zero area (collinear vertices)"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// A simple polygon stored as a clockwise vertex list.
///
/// Matches the paper's representation of regions: "the edges of polygons are
/// taken in a clockwise order" (Section 3). Construction normalises the
/// input — a closing duplicate of the first vertex and exact consecutive
/// duplicates are dropped, and counter-clockwise input is reversed — and
/// validates that the result has at least three vertices, finite
/// coordinates, and non-zero area.
///
/// Simplicity (no self-intersection) is a documented precondition of the
/// algorithms rather than a construction-time check (it costs `O(n²)`);
/// [`Polygon::is_simple`] performs the check on demand and the test suites
/// apply it to generated workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from a vertex list, normalising to clockwise order.
    pub fn new<I>(vertices: I) -> Result<Self, PolygonError>
    where
        I: IntoIterator<Item = Point>,
    {
        let mut vs: Vec<Point> = vertices.into_iter().collect();
        if vs.iter().any(|p| !p.is_finite()) {
            return Err(PolygonError::NonFiniteCoordinate);
        }
        // Drop a closing duplicate (common in GIS interchange formats).
        while vs.len() > 1 && vs.first() == vs.last() {
            vs.pop();
        }
        // Drop exact consecutive duplicates.
        vs.dedup();
        if vs.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let signed = shoelace(&vs);
        if signed == 0.0 {
            return Err(PolygonError::ZeroArea);
        }
        // Shoelace is positive for counter-clockwise vertex order; the paper
        // (and this crate) use clockwise.
        if signed > 0.0 {
            vs.reverse();
        }
        Ok(Polygon { vertices: vs })
    }

    /// Convenience constructor from `(x, y)` tuples.
    pub fn from_coords<I>(coords: I) -> Result<Self, PolygonError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        Polygon::new(coords.into_iter().map(Point::from))
    }

    /// The axis-aligned rectangle covering `bb`, as a clockwise polygon.
    pub fn rectangle(bb: BoundingBox) -> Result<Self, PolygonError> {
        Polygon::new(bb.corners_clockwise())
    }

    /// The clockwise vertex list.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (equivalently, edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: polygons have at least three vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the directed edges `v_i → v_{i+1}` (wrapping).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        crate::flatten::record();
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Polygon area (always positive).
    pub fn area(&self) -> f64 {
        shoelace(&self.vertices).abs()
    }

    /// Signed shoelace sum: negative for this crate's clockwise storage.
    pub fn signed_area(&self) -> f64 {
        shoelace(&self.vertices)
    }

    /// Total edge length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(Segment::length).sum()
    }

    /// The minimum bounding box of the vertices.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::from_points(self.vertices.iter().copied())
            .expect("polygon has at least 3 vertices")
    }

    /// The centroid (area-weighted).
    ///
    /// When the shoelace sum cancels to exactly zero — possible for a
    /// perfectly valid polygon once round-off eats the area, e.g. a unit
    /// square translated to coordinates around `2^52` — the area-weighted
    /// formula would divide by zero and return NaN; this falls back to
    /// the vertex average, which is the exact centroid in the limit the
    /// cancellation represents (vanishing relative extent).
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        if a == 0.0 {
            let sum = self.vertices.iter().fold(Point::ORIGIN, |acc, &v| acc + v);
            return sum / n as f64;
        }
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Returns `true` when `p` lies inside the polygon or on its boundary.
    ///
    /// Regions are closed point sets in the paper's model, so boundary
    /// points count as contained. Both the boundary test and the interior
    /// parity test are **exact** — every sign decision goes through the
    /// robust predicates in [`crate::robust`], so the answer never flips
    /// on near-degenerate input and there is no tolerance to tune.
    pub fn contains(&self, p: Point) -> bool {
        if self.on_boundary(p) {
            return true;
        }
        self.contains_interior_crossing(p)
    }

    /// Returns `true` when `p` lies exactly on the polygon boundary.
    ///
    /// Exact: a point one ulp off an edge's carrier line is *not* on the
    /// boundary. (The retired implementation used a tolerance scaled to
    /// the polygon extent, which both misclassified near-boundary points
    /// as boundary and — before the relative rescale — swallowed whole
    /// micro-scale polygons.)
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|e| e.contains_point(p))
    }

    /// Exact crossing-parity interior test (points exactly on the
    /// boundary give an arbitrary but deterministic answer; use
    /// [`Polygon::contains`] for closed-set semantics).
    ///
    /// The ray is horizontal towards +x. Edges are taken half-open in `y`
    /// (`(a.y > p.y) != (b.y > p.y)`), so a ray passing exactly through a
    /// vertex counts the two incident edges consistently. Whether the
    /// crossing lies strictly east of `p` is read off the exact
    /// orientation sign instead of an interpolated `x` — interpolation
    /// rounds, and at a shared vertex the two incident edges could round
    /// their crossing to different sides of `p`, flipping parity twice.
    fn contains_interior_crossing(&self, p: Point) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                // Upward edge: the crossing is east of `p` iff `p` is
                // strictly left of a → b; downward: strictly right.
                let crossing_east = if b.y > a.y {
                    orient2d_sign(a, b, p) == Sign::Positive
                } else {
                    orient2d_sign(a, b, p) == Sign::Negative
                };
                if crossing_east {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Returns `true` when no two non-adjacent edges intersect. `O(n²)`.
    pub fn is_simple(&self) -> bool {
        let n = self.vertices.len();
        let edges: Vec<Segment> = self.edges().collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                if segments_intersect(edges[i], edges[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when the polygon is convex. Exact: turn directions
    /// come from the robust orientation predicate.
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = Sign::Zero;
        for i in 0..n {
            let o = orient2d_sign(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            );
            if !o.is_zero() {
                if !sign.is_zero() && o != sign {
                    return false;
                }
                sign = o;
            }
        }
        true
    }

    /// Returns the polygon translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Polygon {
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        }
    }

    /// Returns the polygon scaled by `factor` about `origin`.
    pub fn scaled(&self, factor: f64, origin: Point) -> Result<Polygon, PolygonError> {
        Polygon::new(
            self.vertices
                .iter()
                .map(|p| origin + (*p - origin) * factor),
        )
    }
}

/// Signed shoelace sum: positive for counter-clockwise vertex order.
fn shoelace(vs: &[Point]) -> f64 {
    let n = vs.len();
    let mut s = 0.0;
    for i in 0..n {
        s += vs[i].cross(vs[(i + 1) % n]);
    }
    s / 2.0
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn unit_square() -> Polygon {
        Polygon::from_coords([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]).unwrap()
    }

    #[test]
    fn construction_normalises_to_clockwise() {
        // Counter-clockwise input…
        let p = Polygon::from_coords([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap();
        // …is stored clockwise: signed shoelace must be negative.
        assert!(p.signed_area() < 0.0);
        assert_eq!(p.area(), 1.0);
        // Clockwise input stays clockwise.
        let q = unit_square();
        assert!(q.signed_area() < 0.0);
    }

    #[test]
    fn construction_drops_duplicates_and_closing_vertex() {
        let p = Polygon::from_coords([
            (0.0, 0.0),
            (0.0, 1.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0, 0.0),
            (0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn construction_rejects_bad_input() {
        assert_eq!(
            Polygon::from_coords([(0.0, 0.0), (1.0, 1.0)]).unwrap_err(),
            PolygonError::TooFewVertices
        );
        assert_eq!(
            Polygon::from_coords([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]).unwrap_err(),
            PolygonError::ZeroArea
        );
        assert_eq!(
            Polygon::from_coords([(0.0, 0.0), (f64::NAN, 1.0), (2.0, 0.0)]).unwrap_err(),
            PolygonError::NonFiniteCoordinate
        );
    }

    #[test]
    fn areas_and_perimeter() {
        let p = unit_square();
        assert_eq!(p.area(), 1.0);
        assert_eq!(p.perimeter(), 4.0);
        let tri = Polygon::from_coords([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]).unwrap();
        assert_eq!(tri.area(), 6.0);
        assert_eq!(tri.perimeter(), 12.0);
    }

    #[test]
    fn bounding_box_and_centroid() {
        let p = unit_square().translated(2.0, 3.0);
        let bb = p.bounding_box();
        assert_eq!(bb.min, pt(2.0, 3.0));
        assert_eq!(bb.max, pt(3.0, 4.0));
        let c = p.centroid();
        assert!((c.x - 2.5).abs() < 1e-12 && (c.y - 3.5).abs() < 1e-12);
    }

    #[test]
    fn containment_includes_boundary() {
        let p = unit_square();
        assert!(p.contains(pt(0.5, 0.5)));
        assert!(p.contains(pt(0.0, 0.0))); // corner
        assert!(p.contains(pt(0.5, 0.0))); // edge
        assert!(p.contains(pt(1.0, 0.5))); // edge
        assert!(!p.contains(pt(1.5, 0.5)));
        assert!(!p.contains(pt(-0.0001, 0.5)));
    }

    #[test]
    fn containment_concave() {
        // A "U" shape (concave): the notch is not contained.
        let u = Polygon::from_coords([
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 3.0),
            (2.0, 3.0),
            (2.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ])
        .unwrap();
        assert!(u.contains(pt(0.5, 2.0))); // left prong
        assert!(u.contains(pt(2.5, 2.0))); // right prong
        assert!(!u.contains(pt(1.5, 2.0))); // the notch
        assert!(u.contains(pt(1.5, 0.5))); // the base
    }

    #[test]
    fn simplicity_and_convexity() {
        assert!(unit_square().is_simple());
        assert!(unit_square().is_convex());
        // Asymmetric bow-tie: self-intersecting but with non-zero shoelace
        // area, so construction succeeds and simplicity must catch it.
        let bow = Polygon::from_coords([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 2.0)]).unwrap();
        assert!(!bow.is_simple());
        let tri = Polygon::from_coords([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]).unwrap();
        assert!(tri.is_convex());
        let u = Polygon::from_coords([
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 3.0),
            (2.0, 3.0),
            (2.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ])
        .unwrap();
        assert!(u.is_simple());
        assert!(!u.is_convex());
    }

    #[test]
    fn transformations() {
        let p = unit_square();
        let t = p.translated(5.0, -1.0);
        assert_eq!(t.area(), 1.0);
        assert_eq!(t.bounding_box().min, pt(5.0, -1.0));
        let s = p.scaled(2.0, Point::ORIGIN).unwrap();
        assert_eq!(s.area(), 4.0);
    }

    #[test]
    fn edges_wrap_around() {
        let p = unit_square();
        let edges: Vec<_> = p.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].b, edges[0].a);
        // Every edge's right normal points inward: the centroid is on that side.
        for e in &edges {
            let inward = e.right_normal();
            let towards_centroid = p.centroid() - e.midpoint();
            assert!(inward.dot(towards_centroid) > 0.0);
        }
    }

    #[test]
    fn rectangle_from_bbox() {
        let bb = BoundingBox::new(pt(1.0, 2.0), pt(4.0, 6.0));
        let r = Polygon::rectangle(bb).unwrap();
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.bounding_box(), bb);
    }

    /// Regression: the shoelace sum of a perfectly valid unit square
    /// cancels to exactly zero once translated to coordinates around
    /// `2^40` (every cross term rounds to the same value), so the
    /// area-weighted centroid used to divide by zero and return NaN.
    /// The vertex-average fallback must kick in and stay near the true
    /// centre.
    #[test]
    fn centroid_of_far_translated_square_is_finite() {
        let t = 2f64.powi(40);
        let p = unit_square().translated(t, t);
        assert_eq!(
            p.signed_area(),
            0.0,
            "premise: shoelace cancels at this offset"
        );
        let c = p.centroid();
        assert!(c.is_finite(), "centroid must not be NaN, got {c}");
        assert!((c.x - (t + 0.5)).abs() <= 1.0, "{c}");
        assert!((c.y - (t + 0.5)).abs() <= 1.0, "{c}");
        // Sanity: ordinary polygons keep the area-weighted formula. An
        // L-shape's centroid differs from its vertex average.
        let l = Polygon::from_coords([
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 4.0),
            (0.0, 4.0),
        ])
        .unwrap();
        let c = l.centroid();
        assert!((c.x - 9.5 / 7.0).abs() < 1e-12 && (c.y - 9.5 / 7.0).abs() < 1e-12);
    }

    /// Regression for ray-cast parity at shared vertices: with the old
    /// interpolated `x_int`, the two edges incident to a vertex whose
    /// `y` equals the query's could round their crossing to different
    /// sides of the query point, flipping parity twice (or zero times).
    /// The exact orientation-based parity classifies whole rows of
    /// lattice points through vertices correctly.
    #[test]
    fn parity_is_exact_through_shared_vertices() {
        // A zig-zag lattice polygon with several vertices at y = 2.
        let z = Polygon::from_coords([
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 2.0), // vertex at query row
            (6.0, 4.0),
            (4.0, 2.0), // vertex at query row (local minimum)
            (2.0, 4.0),
            (0.0, 2.0), // vertex at query row
        ])
        .unwrap();
        // Row y = 2 passes through three vertices. Inside spans: x in
        // (0, 4) ∪ (4, 8) — the notch at (4, 2) is a boundary point.
        assert!(z.contains(pt(1.0, 2.0)));
        assert!(z.contains(pt(5.0, 2.0)));
        assert!(z.contains(pt(4.0, 2.0))); // the vertex itself: boundary
        assert!(!z.contains(pt(-1.0, 2.0)));
        assert!(!z.contains(pt(9.0, 2.0)));
        // Rows through the apexes (y = 4): only boundary points remain.
        assert!(z.contains(pt(2.0, 4.0)));
        assert!(!z.contains(pt(3.0, 4.0)));
        // And the same polygon at 2^40 magnitude, where the interpolated
        // x_int of the old test rounds: parity must not flip.
        let s = 2f64.powi(40);
        let zs = z.scaled(s, Point::ORIGIN).unwrap();
        assert!(zs.contains(pt(1.0 * s, 2.0 * s)));
        assert!(zs.contains(pt(5.0 * s, 2.0 * s)));
        assert!(!zs.contains(pt(-s, 2.0 * s)));
        assert!(!zs.contains(pt(9.0 * s, 2.0 * s)));
    }

    /// The exact boundary test has no tolerance: points one ulp off an
    /// edge are cleanly inside or outside, never "boundary".
    #[test]
    fn boundary_is_sharp_to_one_ulp() {
        let p = unit_square();
        let on = pt(0.5, 1.0);
        assert!(p.on_boundary(on));
        assert!(!p.on_boundary(pt(0.5, 1.0f64.next_up())));
        assert!(!p.contains(pt(0.5, 1.0f64.next_up())));
        assert!(!p.on_boundary(pt(0.5, 1.0f64.next_down())));
        assert!(p.contains(pt(0.5, 1.0f64.next_down()))); // interior
    }

    /// Fuzzer-found (cardir-fuzz seed 57): the boundary tolerance was
    /// floored at an absolute constant, so for polygons smaller than
    /// that floor every nearby point — including ones many polygon
    /// diameters away — counted as "on the boundary".
    #[test]
    fn containment_stays_sharp_at_microscale() {
        let s = 2f64.powi(-40);
        let p = Polygon::from_coords([
            (-31.0 * s, -64.0 * s),
            (-31.0 * s, -63.5 * s),
            (-30.5 * s, -64.0 * s),
        ])
        .unwrap();
        let far = pt(14.25 * s, 32.25 * s); // way outside, still ~1e-11
        assert!(!p.contains(far));
        assert!(!p.on_boundary(far));
        // The closed-set semantics survive: vertices and edge midpoints
        // are inside, and so is the interior.
        assert!(p.contains(pt(-31.0 * s, -64.0 * s)));
        assert!(p.contains(pt(-30.75 * s, -64.0 * s)));
        assert!(p.contains(pt(-30.9 * s, -63.9 * s)));
    }
}
