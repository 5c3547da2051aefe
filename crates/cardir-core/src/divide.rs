//! Edge division against the reference bounding box — the core device of
//! both paper algorithms.
//!
//! Instead of clipping the primary region's polygons, `Compute-CDR` only
//! divides each polygon edge at its intersections with the four lines of
//! `mbb(b)`, producing sub-edges that each lie in exactly one tile
//! (Section 3.1). Dividing never changes the region and introduces far
//! fewer edges than clipping (paper Fig. 3: 8 vs 16 and 11 vs ~35).

use crate::tile::Tile;
use cardir_geometry::{band_of_hinted, BoundingBox, Line, Point, Segment};

/// Divides `edge` at its interior crossings with the four lines of `mbb`
/// and invokes `f` on each resulting sub-edge, in order from `A` to `B`.
///
/// Guarantees:
/// * the sub-edges concatenate exactly to `edge` (the region is unchanged);
/// * no sub-edge is crossed by any of the four lines (Definition 3), so
///   each lies in exactly one closed tile;
/// * division points have their on-line coordinate snapped exactly, so the
///   downstream band classification of sub-edge midpoints is exact;
/// * an edge passing exactly through a box corner produces a single
///   division point (the two line crossings coincide).
///
/// Crossing detection itself needs no robust fallback: the lines are
/// axis-parallel, so `Segment::crossing_parameter` decides "strictly on
/// opposite sides" from the signs of two single correctly-rounded
/// subtractions, which are exact for all finite `f64` input, and its
/// returned parameter is clamped to `[0, 1]`.
pub fn for_each_division<F: FnMut(Segment)>(edge: Segment, mbb: BoundingBox, f: F) {
    for_each_division_by(edge, &mbb.lines(), f);
}

/// [`for_each_division`] against a subset of the lines of `mbb`, given in
/// the order [`BoundingBox::lines`] lists them (at most four).
///
/// Dropping a line that crosses no edge of the polygon leaves the output
/// unchanged: crossings are collected per line and then stably sorted by
/// parameter, so the surviving crossings, their order and their corner
/// merges are exactly those of the full set. The fused kernel uses this
/// to skip lines outside a polygon's extent.
pub(crate) fn for_each_division_by<F: FnMut(Segment)>(edge: Segment, lines: &[Line], mut f: F) {
    debug_assert!(lines.len() <= 4, "a bounding box has four lines");
    // Interior crossing parameters with each line.
    let mut crossings: [(f64, Line); 4] = [(0.0, Line::Vertical(0.0)); 4];
    let mut n = 0;
    for &line in lines {
        if let Some(t) = edge.crossing_parameter(line) {
            crossings[n] = (t, line);
            n += 1;
        }
    }
    if n == 0 {
        f(edge);
        return;
    }
    // Tiny insertion sort (n ≤ 4).
    for i in 1..n {
        let mut j = i;
        while j > 0 && crossings[j - 1].0 > crossings[j].0 {
            crossings.swap(j - 1, j);
            j -= 1;
        }
    }
    let mut prev = edge.a;
    let mut i = 0;
    while i < n {
        let (t, line) = crossings[i];
        let mut p = edge.a.lerp(edge.b, t);
        // Snap the crossed coordinate exactly onto the line.
        p = snap(p, line);
        // A crossing through a box corner: two lines share the parameter.
        // Merge them into a single division point with both coordinates
        // snapped.
        while i + 1 < n && crossings[i + 1].0 == t {
            i += 1;
            p = snap(p, crossings[i].1);
        }
        if p != prev {
            f(Segment::new(prev, p));
            prev = p;
        }
        i += 1;
    }
    if prev != edge.b {
        f(Segment::new(prev, edge.b));
    }
}

#[inline]
fn snap(p: Point, line: Line) -> Point {
    match line {
        Line::Vertical(m) => Point::new(m, p.y),
        Line::Horizontal(l) => Point::new(p.x, l),
    }
}

/// Classifies a sub-edge (one not crossed by any `mbb` line) into the tile
/// containing it.
///
/// The representative point is the midpoint, as in the paper. When the
/// sub-edge lies exactly *on* a grid line — so the midpoint belongs to two
/// closed tiles — the tie is broken towards the side of the polygon
/// interior, read off the edge's right normal (polygons are clockwise).
/// This matches Definition 1: the parts `a_i` are `REG*` regions and must
/// have interior in their tile, so a mere boundary contact must not
/// contribute a tile.
pub fn classify_subedge(sub: Segment, mbb: BoundingBox) -> Tile {
    let mid = sub.midpoint();
    let hint = sub.right_normal();
    let xb = band_of_hinted(mid.x, mbb.min.x, mbb.max.x, hint.x);
    let yb = band_of_hinted(mid.y, mbb.min.y, mbb.max.y, hint.y);
    Tile::from_bands(xb, yb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::Point;

    fn mbb() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0))
    }

    fn divide(edge: Segment) -> Vec<Segment> {
        let mut out = Vec::new();
        for_each_division(edge, mbb(), |s| out.push(s));
        out
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn no_crossing_passes_through() {
        let e = seg(1.0, 1.0, 3.0, 2.0);
        assert_eq!(divide(e), vec![e]);
        // Touching a line at an endpoint is not a crossing (Definition 3).
        let touch = seg(0.0, 1.0, 3.0, 2.0);
        assert_eq!(divide(touch), vec![touch]);
    }

    #[test]
    fn single_crossing_divides_in_two() {
        let e = seg(-2.0, 1.0, 2.0, 3.0);
        let parts = divide(e);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].a, e.a);
        assert_eq!(parts[1].b, e.b);
        assert_eq!(parts[0].b, parts[1].a);
        assert_eq!(parts[0].b.x, 0.0); // exactly on the west line
        assert_eq!(parts[0].b.y, 2.0);
    }

    #[test]
    fn sub_edges_concatenate_to_original() {
        let e = seg(-3.0, -2.0, 7.0, 6.0);
        let parts = divide(e);
        assert!(parts.len() >= 2);
        assert_eq!(parts.first().unwrap().a, e.a);
        assert_eq!(parts.last().unwrap().b, e.b);
        for w in parts.windows(2) {
            assert_eq!(w[0].b, w[1].a);
        }
        // No sub-edge is crossed by any grid line (Definition 3).
        for p in &parts {
            for line in mbb().lines() {
                assert!(p.not_crossed_by(line), "{p} crossed by {line}");
            }
        }
    }

    #[test]
    fn crossing_through_corner_merges_division_points() {
        // The diagonal through the SW corner (0,0): both the west and the
        // south line cross at the same parameter.
        let e = seg(-2.0, -2.0, 2.0, 2.0);
        let parts = divide(e);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].b, Point::new(0.0, 0.0));
    }

    #[test]
    fn worst_case_four_crossings() {
        // A segment crossing all four lines: 5 sub-edges.
        let e = seg(-1.0, -2.0, 5.0, 10.0);
        let parts = divide(e);
        assert_eq!(parts.len(), 4); // crosses x=0, y=0 ... let's just check bounds
                                    // (This segment crosses x=0 at y=0: a corner merge.)
        for p in &parts {
            for line in mbb().lines() {
                assert!(p.not_crossed_by(line));
            }
        }
    }

    #[test]
    fn classify_interior_midpoints() {
        assert_eq!(classify_subedge(seg(1.0, 1.0, 3.0, 1.0), mbb()), Tile::B);
        assert_eq!(classify_subedge(seg(-3.0, 1.0, -1.0, 2.0), mbb()), Tile::W);
        assert_eq!(classify_subedge(seg(5.0, 5.0, 6.0, 7.0), mbb()), Tile::NE);
        assert_eq!(classify_subedge(seg(1.0, -3.0, 2.0, -1.0), mbb()), Tile::S);
    }

    #[test]
    fn classify_edge_on_grid_line_uses_interior_side() {
        // A vertical edge lying on the west line x = 0, travelling south:
        // for a clockwise polygon the interior is to the right, i.e. west.
        let going_south = seg(0.0, 3.0, 0.0, 1.0);
        assert_eq!(classify_subedge(going_south, mbb()), Tile::W);
        // Travelling north: interior to the east → inside the box band.
        let going_north = seg(0.0, 1.0, 0.0, 3.0);
        assert_eq!(classify_subedge(going_north, mbb()), Tile::B);
        // A horizontal edge on the north line, travelling east: interior
        // south → B; travelling west: interior north → N.
        assert_eq!(classify_subedge(seg(1.0, 4.0, 3.0, 4.0), mbb()), Tile::B);
        assert_eq!(classify_subedge(seg(3.0, 4.0, 1.0, 4.0), mbb()), Tile::N);
    }

    #[test]
    fn classify_edge_on_corner_lines() {
        // On the west line but north of the box: the y band is decided by
        // position (Upper), the x band by the interior side.
        let on_west_above = seg(0.0, 6.0, 0.0, 5.0); // interior west
        assert_eq!(classify_subedge(on_west_above, mbb()), Tile::NW);
        let on_west_above_e = seg(0.0, 5.0, 0.0, 6.0); // interior east
        assert_eq!(classify_subedge(on_west_above_e, mbb()), Tile::N);
    }
}
