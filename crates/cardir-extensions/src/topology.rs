//! Topological relations between composite regions.
//!
//! The relation set is the RCC-5 lattice plus the boundary-contact
//! distinction (Egenhofer's 4-intersection restricted to region pairs
//! whose members are valid `REG*` representations):
//!
//! | relation | meaning |
//! |----------|---------|
//! | `Disjoint`  | closures share no point |
//! | `Meets`     | boundaries touch, interiors disjoint |
//! | `Overlaps`  | interiors intersect, neither contains the other |
//! | `Equals`    | same point set |
//! | `Inside`    | `a`'s interior inside `b` (proper part) |
//! | `Contains`  | converse of `Inside` |
//!
//! The computation stays in the paper's spirit — no polygon clipping:
//! proper edge crossings decide `Overlaps`; in their absence each member
//! polygon lies entirely inside or outside the other region, so
//! representative interior points decide containment, and residual
//! boundary contact decides `Meets` vs `Disjoint`.
//!
//! Precision: every sign decision goes through the exact predicates in
//! `cardir_geometry::robust` (adaptive-precision `orient2d`), so the
//! lattice classification cannot flip on near-degenerate contact. A
//! vertex lying *exactly* on the other region's boundary with its
//! neighbours on strictly opposite sides is handled as a proper crossing
//! (transversal vertex contact); contacts of measure zero otherwise
//! count as touching.

use cardir_geometry::point::orient;
use cardir_geometry::robust::{orient2d_sign, Sign};
use cardir_geometry::{
    segments_cross_properly, segments_intersect, Point, Polygon, Region, Segment,
};
use std::fmt;

/// The topological relation between two regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologicalRelation {
    /// Closures share no point.
    Disjoint,
    /// Boundaries touch; interiors are disjoint.
    Meets,
    /// Interiors intersect and neither region contains the other.
    Overlaps,
    /// The regions are the same point set.
    Equals,
    /// `a` is a proper part of `b`.
    Inside,
    /// `b` is a proper part of `a`.
    Contains,
}

impl TopologicalRelation {
    /// The converse relation (swap of the arguments).
    pub fn converse(self) -> TopologicalRelation {
        match self {
            TopologicalRelation::Inside => TopologicalRelation::Contains,
            TopologicalRelation::Contains => TopologicalRelation::Inside,
            other => other,
        }
    }
}

impl fmt::Display for TopologicalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologicalRelation::Disjoint => "disjoint",
            TopologicalRelation::Meets => "meets",
            TopologicalRelation::Overlaps => "overlaps",
            TopologicalRelation::Equals => "equals",
            TopologicalRelation::Inside => "inside",
            TopologicalRelation::Contains => "contains",
        };
        f.write_str(s)
    }
}

/// Computes the topological relation between `a` and `b`.
pub fn topological_relation(a: &Region, b: &Region) -> TopologicalRelation {
    // Cheap reject: separated bounding boxes.
    if !a.mbb().intersects(b.mbb()) {
        return TopologicalRelation::Disjoint;
    }

    // 1. Any transversal boundary crossing ⇒ both regions have interior
    //    on both sides of the other ⇒ Overlaps.
    if boundaries_cross(a, b) {
        return TopologicalRelation::Overlaps;
    }

    // 2. No crossings: every pair of member polygons is either
    //    interior-disjoint or nested, so the pairwise overlap area is 0
    //    or the smaller polygon's area — summing gives the exact
    //    intersection area of the two regions, which decides the lattice.
    let area_a = a.area();
    let area_b = b.area();
    let mut intersection = 0.0;
    for p in a.polygons() {
        for q in b.polygons() {
            intersection += pair_overlap(p, q);
        }
    }
    let eps = 1e-9 * area_a.max(area_b);
    let a_in_b = (intersection - area_a).abs() <= eps;
    let b_in_a = (intersection - area_b).abs() <= eps;
    if intersection <= eps {
        if boundaries_touch(a, b) {
            TopologicalRelation::Meets
        } else {
            TopologicalRelation::Disjoint
        }
    } else if a_in_b && b_in_a {
        TopologicalRelation::Equals
    } else if a_in_b {
        TopologicalRelation::Inside
    } else if b_in_a {
        TopologicalRelation::Contains
    } else {
        TopologicalRelation::Overlaps
    }
}

/// Intersection area of two member polygons known not to cross: zero
/// when interior-disjoint, the smaller area when nested. Nesting is
/// detected by interior points — if `q ⊆ p` then `q`'s interior point is
/// in `p`, and symmetrically.
fn pair_overlap(p: &Polygon, q: &Polygon) -> f64 {
    if !p.bounding_box().intersects(q.bounding_box()) {
        return 0.0;
    }
    if q.contains(interior_point(p)) || p.contains(interior_point(q)) {
        p.area().min(q.area())
    } else {
        0.0
    }
}

/// A point strictly interior to a simple polygon.
///
/// Classic construction: take the vertex `v` extremal in `(x, y)` order
/// (a convex vertex); among the other vertices inside triangle
/// `(prev, v, next)` pick the one farthest from line `prev–next` and
/// return the midpoint of `v` and it; if none, the triangle centroid is
/// interior.
pub fn interior_point(p: &Polygon) -> Point {
    let vs = p.vertices();
    let n = vs.len();
    // Extremal (lowest x, then lowest y) vertex is convex.
    let (vi, _) = vs
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| (a.x, a.y).partial_cmp(&(b.x, b.y)).expect("finite coords"))
        .expect("polygons are non-empty");
    let prev = vs[(vi + n - 1) % n];
    let v = vs[vi];
    let next = vs[(vi + 1) % n];
    // Farthest other vertex strictly inside the triangle (prev, v, next).
    let mut best: Option<(f64, Point)> = None;
    for (i, &q) in vs.iter().enumerate() {
        if i == vi || i == (vi + n - 1) % n || i == (vi + 1) % n {
            continue;
        }
        if point_strictly_in_triangle(q, prev, v, next) {
            let d = orient(prev, next, q).abs();
            if best.as_ref().is_none_or(|(bd, _)| d > *bd) {
                best = Some((d, q));
            }
        }
    }
    match best {
        Some((_, q)) => v.midpoint(q),
        None => Point::new((prev.x + v.x + next.x) / 3.0, (prev.y + v.y + next.y) / 3.0),
    }
}

fn point_strictly_in_triangle(q: Point, a: Point, b: Point, c: Point) -> bool {
    let d1 = orient2d_sign(a, b, q);
    let d2 = orient2d_sign(b, c, q);
    let d3 = orient2d_sign(c, a, q);
    (d1 == Sign::Positive && d2 == Sign::Positive && d3 == Sign::Positive)
        || (d1 == Sign::Negative && d2 == Sign::Negative && d3 == Sign::Negative)
}

/// Detects a transversal crossing between the boundaries: a proper
/// edge-interior crossing, or a vertex of one boundary lying on the
/// other with its neighbours on strictly opposite sides.
fn boundaries_cross(a: &Region, b: &Region) -> bool {
    let a_edges: Vec<Segment> = a.edges().collect();
    let b_edges: Vec<Segment> = b.edges().collect();
    for ea in &a_edges {
        for eb in &b_edges {
            if segments_cross_properly(*ea, *eb) {
                return true;
            }
        }
    }
    transversal_vertex(a, b) || transversal_vertex(b, a)
}

/// A vertex of `a` lying exactly on an edge of `b`, with its two
/// neighbour vertices strictly on opposite sides of that edge's line —
/// the boundary of `a` passes through `b`'s boundary at the vertex.
fn transversal_vertex(a: &Region, b: &Region) -> bool {
    for poly in a.polygons() {
        let vs = poly.vertices();
        let n = vs.len();
        for i in 0..n {
            let prev = vs[(i + n - 1) % n];
            let v = vs[i];
            let next = vs[(i + 1) % n];
            for eb in b.edges() {
                if !eb.contains_point(v) {
                    continue;
                }
                let d_prev = orient2d_sign(eb.a, eb.b, prev);
                let d_next = orient2d_sign(eb.a, eb.b, next);
                if !d_prev.is_zero() && d_next == d_prev.flipped() {
                    return true;
                }
            }
        }
    }
    false
}

/// Boundaries share at least one point (any segment-pair contact,
/// including endpoint touches and collinear overlap).
fn boundaries_touch(a: &Region, b: &Region) -> bool {
    for ea in a.edges() {
        for eb in b.edges() {
            if segments_intersect(ea, eb) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    use TopologicalRelation::*;

    #[test]
    fn basic_relations() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(
            topological_relation(&a, &rect(5.0, 5.0, 6.0, 6.0)),
            Disjoint
        );
        assert_eq!(topological_relation(&a, &rect(2.0, 0.0, 4.0, 2.0)), Meets); // edge share
        assert_eq!(topological_relation(&a, &rect(2.0, 2.0, 4.0, 4.0)), Meets); // corner touch
        assert_eq!(
            topological_relation(&a, &rect(1.0, 1.0, 3.0, 3.0)),
            Overlaps
        );
        assert_eq!(topological_relation(&a, &rect(0.0, 0.0, 2.0, 2.0)), Equals);
        assert_eq!(
            topological_relation(&a, &rect(-1.0, -1.0, 3.0, 3.0)),
            Inside
        );
        assert_eq!(
            topological_relation(&a, &rect(0.5, 0.5, 1.5, 1.5)),
            Contains
        );
    }

    #[test]
    fn converse_consistency() {
        let shapes = [
            rect(0.0, 0.0, 2.0, 2.0),
            rect(1.0, 1.0, 3.0, 3.0),
            rect(0.5, 0.5, 1.5, 1.5),
            rect(2.0, 0.0, 4.0, 2.0),
            rect(9.0, 9.0, 10.0, 10.0),
        ];
        for a in &shapes {
            for b in &shapes {
                assert_eq!(
                    topological_relation(a, b).converse(),
                    topological_relation(b, a),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn inside_with_shared_boundary_is_inside() {
        // a occupies the west half of b (shares three walls): a proper
        // part with boundary contact — Egenhofer's "covered by", folded
        // into Inside in this 6-relation set.
        let a = rect(0.0, 0.0, 1.0, 2.0);
        let b = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(topological_relation(&a, &b), Inside);
    }

    #[test]
    fn region_with_hole_vs_island() {
        // A frame with a hole and an island inside the hole: disjoint,
        // even though the island is inside the frame's bounding box.
        let frame = Region::new(
            [
                Polygon::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (0.0, 1.0)]).unwrap(),
                Polygon::from_coords([(0.0, 3.0), (4.0, 3.0), (4.0, 4.0), (0.0, 4.0)]).unwrap(),
                Polygon::from_coords([(0.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]).unwrap(),
                Polygon::from_coords([(3.0, 1.0), (4.0, 1.0), (4.0, 3.0), (3.0, 3.0)]).unwrap(),
            ]
            .to_vec(),
        )
        .unwrap();
        let island = rect(1.5, 1.5, 2.5, 2.5);
        assert_eq!(topological_relation(&island, &frame), Disjoint);
        // Touching the hole wall: meets.
        let touching = rect(1.0, 1.5, 2.5, 2.5);
        assert_eq!(topological_relation(&touching, &frame), Meets);
        // Spanning the hole wall: overlaps.
        let spanning = rect(0.5, 1.5, 2.5, 2.5);
        assert_eq!(topological_relation(&spanning, &frame), Overlaps);
    }

    #[test]
    fn disconnected_partial_nesting_is_overlap() {
        // One island of a inside b, one outside: interiors intersect,
        // no containment.
        let a = Region::new(vec![
            Polygon::from_coords([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]).unwrap(),
            Polygon::from_coords([(10.0, 1.0), (11.0, 1.0), (11.0, 2.0), (10.0, 2.0)]).unwrap(),
        ])
        .unwrap();
        let b = rect(0.0, 0.0, 3.0, 3.0);
        assert_eq!(topological_relation(&a, &b), Overlaps);
    }

    #[test]
    fn transversal_vertex_contact_is_overlap() {
        // A diamond whose west vertex lies exactly on b's east wall and
        // pokes through: proper crossing through a vertex.
        let b = rect(0.0, 0.0, 2.0, 2.0);
        let diamond =
            Region::from_coords([(1.0, 1.0), (3.0, 0.0), (5.0, 1.0), (3.0, 2.0)]).unwrap();
        // The diamond's west vertex (1,1) is inside b; its edges cross
        // b's east wall transversally anyway — still Overlaps.
        assert_eq!(topological_relation(&diamond, &b), Overlaps);
        // Pure vertex-on-edge with both neighbours outside: only a touch.
        let kite = Region::from_coords([(2.0, 1.0), (4.0, 0.0), (6.0, 1.0), (4.0, 2.0)]).unwrap();
        assert_eq!(topological_relation(&kite, &b), Meets);
    }

    #[test]
    fn interior_points_are_interior() {
        let shapes = [
            Polygon::from_coords([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]).unwrap(),
            // Concave U.
            Polygon::from_coords([
                (0.0, 0.0),
                (3.0, 0.0),
                (3.0, 3.0),
                (2.0, 3.0),
                (2.0, 1.0),
                (1.0, 1.0),
                (1.0, 3.0),
                (0.0, 3.0),
            ])
            .unwrap(),
            Polygon::from_coords([(0.0, 0.0), (10.0, 0.1), (10.0, 0.2), (0.0, 0.15)]).unwrap(),
        ];
        for p in &shapes {
            let ip = interior_point(p);
            assert!(p.contains(ip), "{p}");
            assert!(!p.on_boundary(ip), "{p}: {ip} on boundary");
        }
    }
}
