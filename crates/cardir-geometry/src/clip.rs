//! Polygon clipping against half-planes and tile boxes.
//!
//! This is the *baseline* method the paper argues against (Section 3):
//! computing a cardinal direction relation by clipping the primary region
//! against each of the nine tiles of the reference bounding box. The paper
//! cites Liang–Barsky and Maillot for clipping against bounded boxes and
//! notes the extension to unbounded boxes; because every tile is an
//! intersection of at most four axis-parallel half-planes, a
//! Sutherland–Hodgman sweep per half-plane implements exactly that
//! (including unbounded tiles, which simply use fewer half-planes).
//!
//! The implementation deliberately mirrors the costs the paper attributes
//! to the clipping approach — one pass over the edges per tile (so nine
//! scans per relation) and newly introduced edges for every clip — and
//! instruments the number of edges produced so the Fig. 3 edge counts can
//! be reproduced.

use crate::line::Line;
use crate::point::{orient, Point};
use crate::polygon::Polygon;

/// An axis-parallel half-plane, e.g. `x ≤ m` or `y ≥ l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// The bounding line.
    pub line: Line,
    /// When `true` the half-plane keeps points with non-negative offset
    /// (east of a vertical line, north of a horizontal one).
    pub keep_positive: bool,
}

impl HalfPlane {
    /// `x ≤ m`: everything west of (and on) the vertical line.
    pub fn west_of(m: f64) -> Self {
        HalfPlane {
            line: Line::Vertical(m),
            keep_positive: false,
        }
    }

    /// `x ≥ m`: everything east of (and on) the vertical line.
    pub fn east_of(m: f64) -> Self {
        HalfPlane {
            line: Line::Vertical(m),
            keep_positive: true,
        }
    }

    /// `y ≤ l`: everything south of (and on) the horizontal line.
    pub fn south_of(l: f64) -> Self {
        HalfPlane {
            line: Line::Horizontal(l),
            keep_positive: false,
        }
    }

    /// `y ≥ l`: everything north of (and on) the horizontal line.
    pub fn north_of(l: f64) -> Self {
        HalfPlane {
            line: Line::Horizontal(l),
            keep_positive: true,
        }
    }

    /// Returns `true` when `p` lies in the closed half-plane.
    #[inline]
    pub fn contains(self, p: Point) -> bool {
        let off = self.line.offset(p);
        if self.keep_positive {
            off >= 0.0
        } else {
            off <= 0.0
        }
    }
}

/// Intersection of the segment `a → b` with the half-plane boundary.
///
/// Precondition: the endpoints lie strictly on opposite sides. The
/// constant coordinate of the result is exact.
fn boundary_crossing(line: Line, a: Point, b: Point) -> Point {
    let oa = line.offset(a);
    let ob = line.offset(b);
    let t = oa / (oa - ob);
    let p = a.lerp(b, t);
    match line {
        Line::Vertical(m) => Point::new(m, p.y),
        Line::Horizontal(l) => Point::new(p.x, l),
    }
}

/// One Sutherland–Hodgman pass: clips a vertex ring against a half-plane.
///
/// The input and output are raw rings (no polygon invariants): clipping a
/// valid polygon may yield a degenerate sliver or nothing at all, which the
/// caller inspects via [`ring_to_polygon`].
pub fn clip_polygon_half_plane(ring: &[Point], hp: HalfPlane) -> Vec<Point> {
    if ring.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(ring.len() + 2);
    let n = ring.len();
    for i in 0..n {
        let cur = ring[i];
        let prev = ring[(i + n - 1) % n];
        let cur_in = hp.contains(cur);
        let prev_in = hp.contains(prev);
        match (prev_in, cur_in) {
            (true, true) => out.push(cur),
            (true, false) => {
                if !hp.line.contains(prev) {
                    out.push(boundary_crossing(hp.line, prev, cur));
                }
            }
            (false, true) => {
                if !hp.line.contains(cur) {
                    out.push(boundary_crossing(hp.line, prev, cur));
                }
                out.push(cur);
            }
            (false, false) => {}
        }
    }
    out
}

/// Clips a vertex ring against the intersection of several half-planes —
/// a tile box, possibly unbounded (the paper's "unbounded boxes").
pub fn clip_polygon_tile(ring: &[Point], tile: &[HalfPlane]) -> Vec<Point> {
    let mut current: Vec<Point> = ring.to_vec();
    for hp in tile {
        if current.is_empty() {
            break;
        }
        current = clip_polygon_half_plane(&current, *hp);
    }
    current
}

/// Removes consecutive duplicates and collinear intermediate vertices from
/// a ring. The result has the minimal vertex count describing the same
/// boundary, which is the edge count the paper's Fig. 3 refers to.
pub fn simplify_ring(ring: &[Point]) -> Vec<Point> {
    let mut vs: Vec<Point> = Vec::with_capacity(ring.len());
    for &p in ring {
        if vs.last() != Some(&p) {
            vs.push(p);
        }
    }
    while vs.len() > 1 && vs.first() == vs.last() {
        vs.pop();
    }
    if vs.len() < 3 {
        return vs;
    }
    // Drop vertices collinear with their neighbours (several passes are
    // unnecessary: removing a vertex cannot make a kept vertex collinear
    // unless the ring was already degenerate, which the area check in
    // `ring_to_polygon` rejects).
    let n = vs.len();
    let mut keep: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let prev = vs[(i + n - 1) % n];
        let cur = vs[i];
        let next = vs[(i + 1) % n];
        if orient(prev, cur, next) != 0.0 {
            keep.push(cur);
        }
    }
    keep
}

/// Converts a clipped ring into a valid [`Polygon`], or `None` when the
/// clip result is empty or degenerate (zero area).
///
/// Simplification runs to a fixpoint: Sutherland–Hodgman output for concave
/// inputs may contain zero-width "bridge" excursions whose removal exposes
/// further duplicate or collinear vertices.
pub fn ring_to_polygon(ring: &[Point]) -> Option<Polygon> {
    let mut current = simplify_ring(ring);
    loop {
        let next = simplify_ring(&current);
        if next.len() == current.len() {
            break;
        }
        current = next;
    }
    Polygon::new(current).ok()
}

/// Signed shoelace area of a raw ring (no validity requirements).
pub fn ring_area(ring: &[Point]) -> f64 {
    let n = ring.len();
    if n < 3 {
        return 0.0;
    }
    let mut s = 0.0;
    for i in 0..n {
        s += ring[i].cross(ring[(i + 1) % n]);
    }
    (s / 2.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn square_ring(x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<Point> {
        vec![pt(x0, y1), pt(x1, y1), pt(x1, y0), pt(x0, y0)] // clockwise
    }

    #[test]
    fn half_plane_membership() {
        assert!(HalfPlane::west_of(2.0).contains(pt(1.0, 0.0)));
        assert!(HalfPlane::west_of(2.0).contains(pt(2.0, 0.0))); // closed
        assert!(!HalfPlane::west_of(2.0).contains(pt(3.0, 0.0)));
        assert!(HalfPlane::north_of(0.0).contains(pt(0.0, 0.0)));
        assert!(!HalfPlane::north_of(0.0).contains(pt(0.0, -0.1)));
    }

    #[test]
    fn clip_square_in_half() {
        let ring = square_ring(0.0, 0.0, 2.0, 2.0);
        let west = clip_polygon_half_plane(&ring, HalfPlane::west_of(1.0));
        assert_eq!(ring_area(&west), 2.0);
        let poly = ring_to_polygon(&west).unwrap();
        assert_eq!(poly.bounding_box().max.x, 1.0);
    }

    #[test]
    fn clip_fully_inside_and_outside() {
        let ring = square_ring(0.0, 0.0, 2.0, 2.0);
        let all = clip_polygon_half_plane(&ring, HalfPlane::west_of(10.0));
        assert_eq!(ring_area(&all), 4.0);
        let none = clip_polygon_half_plane(&ring, HalfPlane::east_of(10.0));
        assert!(ring_to_polygon(&none).is_none());
    }

    #[test]
    fn clip_touching_boundary_yields_degenerate() {
        let ring = square_ring(0.0, 0.0, 2.0, 2.0);
        // The square touches the half-plane x ≥ 2 only along its east edge.
        let sliver = clip_polygon_half_plane(&ring, HalfPlane::east_of(2.0));
        assert_eq!(ring_area(&sliver), 0.0);
        assert!(ring_to_polygon(&sliver).is_none());
    }

    #[test]
    fn clip_against_bounded_tile() {
        let ring = square_ring(0.0, 0.0, 4.0, 4.0);
        let tile = [
            HalfPlane::east_of(1.0),
            HalfPlane::west_of(3.0),
            HalfPlane::north_of(1.0),
            HalfPlane::south_of(3.0),
        ];
        let clipped = clip_polygon_tile(&ring, &tile);
        assert_eq!(ring_area(&clipped), 4.0);
        let poly = ring_to_polygon(&clipped).unwrap();
        assert_eq!(poly.len(), 4);
    }

    #[test]
    fn clip_against_unbounded_tile() {
        // The "north-west" quadrant of the point (2, 2): x ≤ 2, y ≥ 2.
        let ring = square_ring(0.0, 0.0, 4.0, 4.0);
        let tile = [HalfPlane::west_of(2.0), HalfPlane::north_of(2.0)];
        let clipped = clip_polygon_tile(&ring, &tile);
        assert_eq!(ring_area(&clipped), 4.0);
    }

    #[test]
    fn clip_concave_polygon() {
        // U-shape clipped by y ≤ 2 keeps the base plus two prong stumps —
        // Sutherland–Hodgman represents that as one ring with bridging
        // edges; its area is still correct (degenerate bridges cancel).
        let u = vec![
            pt(0.0, 0.0),
            pt(0.0, 3.0),
            pt(1.0, 3.0),
            pt(1.0, 1.0),
            pt(2.0, 1.0),
            pt(2.0, 3.0),
            pt(3.0, 3.0),
            pt(3.0, 0.0),
        ];
        let clipped = clip_polygon_half_plane(&u, HalfPlane::south_of(2.0));
        // Base [0,3]×[0,1] (area 3) + prongs [0,1]×[1,2] and [2,3]×[1,2]
        // (area 1 each) = 5.
        assert!((ring_area(&clipped) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn simplify_removes_collinear_and_duplicates() {
        let ring = vec![
            pt(0.0, 0.0),
            pt(0.0, 1.0),
            pt(0.0, 2.0), // collinear
            pt(2.0, 2.0),
            pt(2.0, 2.0), // duplicate
            pt(2.0, 0.0),
            pt(1.0, 0.0), // collinear
        ];
        let s = simplify_ring(&ring);
        assert_eq!(s.len(), 4);
        assert_eq!(ring_area(&s), 4.0);
    }

    #[test]
    fn fig3b_clipping_introduces_16_edges() {
        // Fig. 3 of the paper: a quadrangle centred on the crossing of two
        // grid lines is segmented by clipping into 4 quadrangles — 16 edges
        // from the original 4.
        let quad = square_ring(-1.0, -1.0, 1.0, 1.0);
        let quadrants: [[HalfPlane; 2]; 4] = [
            [HalfPlane::west_of(0.0), HalfPlane::north_of(0.0)],
            [HalfPlane::east_of(0.0), HalfPlane::north_of(0.0)],
            [HalfPlane::west_of(0.0), HalfPlane::south_of(0.0)],
            [HalfPlane::east_of(0.0), HalfPlane::south_of(0.0)],
        ];
        let mut total_edges = 0;
        for tile in &quadrants {
            let clipped = clip_polygon_tile(&quad, tile);
            let poly = ring_to_polygon(&clipped).unwrap();
            total_edges += poly.len();
        }
        assert_eq!(total_edges, 16);
    }
}
