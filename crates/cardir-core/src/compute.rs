//! Algorithm `Compute-CDR` (paper Fig. 5): qualitative cardinal direction
//! relations in a single linear pass.

use crate::divide::{classify_subedge, for_each_division};
use crate::hook::{MetricsHook, NoopHook};
use crate::relation::CardinalRelation;
use crate::tile::Tile;
use cardir_geometry::{BoundingBox, Region};

/// Computes the cardinal direction relation `R` with `a R b` (paper
/// Theorem 1: correct for `a, b ∈ REG*`, `O(k_a + k_b)` time).
///
/// `a` is the *primary* region, `b` the *reference* region: the relation
/// describes where `a` lies relative to the tiles of `mbb(b)`.
///
/// ```
/// use cardir_core::compute_cdr;
/// use cardir_geometry::Region;
///
/// let b = Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
/// let a = Region::from_coords([(1.0, -3.0), (3.0, -3.0), (3.0, -1.0), (1.0, -1.0)]).unwrap();
/// assert_eq!(compute_cdr(&a, &b).to_string(), "S");
/// ```
pub fn compute_cdr(a: &Region, b: &Region) -> CardinalRelation {
    // NoopHook monomorphises to the plain un-instrumented loop.
    compute_cdr_with_mbb(a, b.mbb(), &mut NoopHook)
}

/// [`compute_cdr`] against a precomputed `mbb(b)`, observed by a
/// [`MetricsHook`].
///
/// Bit-identical to `compute_cdr(a, b)` whenever `mbb == b.mbb()` — the
/// relation depends on `b` only through its bounding box — and for any
/// hook, because hooks only observe. The hook sees every edge scanned,
/// every sub-edge emitted (with its tile), and every centre-test `B`
/// detection; pass [`NoopHook`] for the plain loop.
///
/// `mbb` must be a valid box, as [`BoundingBox::try_new`] checks: every
/// coordinate finite and `min ≤ max` on both axes (degenerate point and
/// segment boxes are fine). Boxes from `Region::mbb` always are. A NaN
/// bound makes every comparison false and funnels all sub-edges into one
/// band, so a box from outside the library goes through `try_new` first.
pub fn compute_cdr_with_mbb<H: MetricsHook>(
    a: &Region,
    mbb: BoundingBox,
    hook: &mut H,
) -> CardinalRelation {
    let center = mbb.center();
    let mut bits = 0u16;

    for polygon in a.polygons() {
        for edge in polygon.edges() {
            hook.edge_scanned();
            let mut parts = 0usize;
            for_each_division(edge, mbb, |sub| {
                parts += 1;
                let tile = classify_subedge(sub, mbb);
                bits |= tile.bit();
                hook.sub_edge(tile);
            });
            if parts > 1 {
                hook.edge_divided(parts);
            }
        }
        // Fig. 5: "If the center of mbb(b) is in p then R = tile-union(R, B)".
        // Catches polygons that cover the whole central tile without any
        // edge inside it. `Polygon::contains` decides boundary membership
        // and ray-cast parity through the exact predicates in
        // `cardir_geometry::robust`, so a center exactly on an edge or
        // vertex of `p` cannot be mis-classified by rounding.
        if bits & Tile::B.bit() == 0 && polygon.contains(center) {
            bits |= Tile::B.bit();
            hook.b_center_hit();
        }
    }

    relation_from_bits(bits)
}

/// The relation whose tiles are the set bits of `bits`: the final step of
/// both `Compute-CDR` kernels.
#[inline]
pub(crate) fn relation_from_bits(bits: u16) -> CardinalRelation {
    CardinalRelation::from_bits(bits)
        .expect("a valid region always produces at least one sub-edge tile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::CountingHook;
    use cardir_geometry::{Polygon, Region};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Reference region used by most tests: the square [0,4]².
    fn b() -> Region {
        rect(0.0, 0.0, 4.0, 4.0)
    }

    /// `a R b` together with the edge counts of the pass.
    fn counted(a: &Region, b: &Region) -> (CardinalRelation, CountingHook) {
        let mut hook = CountingHook::new();
        (compute_cdr_with_mbb(a, b.mbb(), &mut hook), hook)
    }

    #[test]
    fn single_tile_relations_all_nine() {
        let b = b();
        let cases = [
            (rect(1.0, 1.0, 3.0, 3.0), "B"),
            (rect(1.0, -3.0, 3.0, -1.0), "S"),
            (rect(-3.0, -3.0, -1.0, -1.0), "SW"),
            (rect(-3.0, 1.0, -1.0, 3.0), "W"),
            (rect(-3.0, 5.0, -1.0, 7.0), "NW"),
            (rect(1.0, 5.0, 3.0, 7.0), "N"),
            (rect(5.0, 5.0, 7.0, 7.0), "NE"),
            (rect(5.0, 1.0, 7.0, 3.0), "E"),
            (rect(5.0, -3.0, 7.0, -1.0), "SE"),
        ];
        for (a, expected) in cases {
            assert_eq!(compute_cdr(&a, &b).to_string(), expected);
        }
    }

    #[test]
    fn tiles_are_closed_boundary_containment_is_single_tile() {
        // A region exactly filling a tile, touching the grid lines, is
        // still a single-tile relation: the tiles include their axes.
        let b = b();
        assert_eq!(compute_cdr(&rect(0.0, 0.0, 4.0, 4.0), &b).to_string(), "B");
        assert_eq!(compute_cdr(&rect(0.0, -4.0, 4.0, 0.0), &b).to_string(), "S");
        assert_eq!(
            compute_cdr(&rect(-4.0, 4.0, 0.0, 8.0), &b).to_string(),
            "NW"
        );
        assert_eq!(compute_cdr(&rect(4.0, 0.0, 8.0, 4.0), &b).to_string(), "E");
    }

    #[test]
    fn multi_tile_straddling() {
        let b = b();
        // Straddles the east line: E and B.
        assert_eq!(
            compute_cdr(&rect(3.0, 1.0, 5.0, 3.0), &b).to_string(),
            "B:E"
        );
        // Straddles the NE corner: B, N, NE, E.
        assert_eq!(
            compute_cdr(&rect(3.0, 3.0, 5.0, 5.0), &b).to_string(),
            "B:N:NE:E"
        );
        // A wide band across the middle: W, B, E.
        assert_eq!(
            compute_cdr(&rect(-2.0, 1.0, 6.0, 3.0), &b).to_string(),
            "B:W:E"
        );
    }

    #[test]
    fn surrounding_region_covers_all_nine_tiles() {
        // A ring of rectangles completely surrounding b, plus a slab
        // covering it: the B tile is detected by the centre test even
        // though the covering slab has no edge inside B.
        let b = b();
        let cover = rect(-2.0, -2.0, 6.0, 6.0); // covers all of mbb(b)
        let r = compute_cdr(&cover, &b);
        assert!(
            r.contains(Tile::B),
            "covering region must include B, got {r}"
        );
        assert_eq!(r.to_string(), "B:S:SW:W:NW:N:NE:E:SE");
    }

    #[test]
    fn center_test_is_per_polygon_holes_do_not_trigger_b() {
        // A frame (hole at the centre) decomposed into four rectangles:
        // none contains the centre of mbb(b), and no edge midpoint lies
        // strictly inside B... the inner edges of the frame lie within the
        // box, so B *is* genuinely present here. Build a frame whose hole
        // covers the whole box instead.
        let b = b();
        let frame = Region::new([
            Polygon::from_coords([(-4.0, -4.0), (8.0, -4.0), (8.0, -2.0), (-4.0, -2.0)]).unwrap(), // south
            Polygon::from_coords([(-4.0, 6.0), (8.0, 6.0), (8.0, 8.0), (-4.0, 8.0)]).unwrap(), // north
            Polygon::from_coords([(-4.0, -2.0), (-2.0, -2.0), (-2.0, 6.0), (-4.0, 6.0)]).unwrap(), // west
            Polygon::from_coords([(6.0, -2.0), (8.0, -2.0), (8.0, 6.0), (6.0, 6.0)]).unwrap(), // east
        ])
        .unwrap();
        let r = compute_cdr(&frame, &b);
        assert!(!r.contains(Tile::B), "the hole covers b entirely, got {r}");
        assert_eq!(r.to_string(), "S:SW:W:NW:N:NE:E:SE");
    }

    #[test]
    fn disconnected_region_unions_tiles() {
        let b = b();
        let a = Region::new([
            Polygon::from_coords([(1.0, 5.0), (3.0, 5.0), (3.0, 7.0), (1.0, 7.0)]).unwrap(), // N
            Polygon::from_coords([(5.0, -3.0), (7.0, -3.0), (7.0, -1.0), (5.0, -1.0)]).unwrap(), // SE
        ])
        .unwrap();
        assert_eq!(compute_cdr(&a, &b).to_string(), "N:SE");
    }

    #[test]
    fn example_2_endpoint_classification_alone_is_wrong() {
        // Paper Example 2 / Fig. 4: the vertices of the quadrangle lie in
        // W, NW, NW, NE — but the relation must also include B, N, E
        // because edges expand over several tiles. (Example 3 gives the
        // full relation B:W:NW:N:NE:E.)
        let b = b();
        // N1 ∈ W, N2 ∈ NW, N3 ∈ NW, N4 ∈ NE (N4 on the closed tile corner).
        let a = Region::from_coords([(-2.0, 2.0), (-3.0, 5.0), (-1.0, 6.0), (5.0, 4.0)]).unwrap();
        let (r, counts) = counted(&a, &b);
        assert_eq!(r.to_string(), "B:W:NW:N:NE:E");
        // Example 3: 4 input edges become 9 sub-edges (2 + 1 + 3 + 3).
        assert_eq!(counts.edges_scanned, 4);
        assert_eq!(counts.sub_edges, 9);
    }

    #[test]
    fn fig_3b_quadrangle_produces_8_edges() {
        // Fig. 3b: a quadrangle centred on a box corner crossing two lines
        // is divided into 8 edges (clipping needs 16).
        let b = b();
        let a = rect(-1.0, 3.0, 1.0, 5.0); // centred on the NW corner (0,4)
        let (r, counts) = counted(&a, &b);
        assert_eq!(counts.edges_scanned, 4);
        assert_eq!(counts.sub_edges, 8);
        assert_eq!(r.to_string(), "B:W:NW:N");
    }

    #[test]
    fn fig_3c_triangle_produces_11_edges_and_all_tiles() {
        // Fig. 3c: the worst case starts with a triangle (3 edges) and ends
        // with 11 edges; the relation covers all nine tiles.
        let b = b();
        let a = Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap();
        let (r, counts) = counted(&a, &b);
        assert_eq!(counts.edges_scanned, 3);
        assert_eq!(counts.sub_edges, 11);
        assert_eq!(r, CardinalRelation::OMNI);
    }

    #[test]
    fn region_with_edges_on_grid_lines() {
        // A region inside the box whose west edge lies exactly on the west
        // grid line must be plain B, not B:W.
        let b = b();
        let a = rect(0.0, 1.0, 2.0, 3.0);
        assert_eq!(compute_cdr(&a, &b).to_string(), "B");
        // And one just outside sharing that edge must be plain W.
        let w = rect(-2.0, 1.0, 0.0, 3.0);
        assert_eq!(compute_cdr(&w, &b).to_string(), "W");
    }

    #[test]
    fn identical_regions_relate_by_b() {
        let b = b();
        assert_eq!(compute_cdr(&b, &b).to_string(), "B");
    }
}
