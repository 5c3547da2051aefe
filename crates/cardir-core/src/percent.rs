//! Algorithm `Compute-CDR%` (paper Fig. 10): cardinal direction relations
//! *with percentages* in a single linear pass.
//!
//! The area of the primary region falling in each tile is accumulated from
//! the divided edges alone, using the signed expressions `E_l` / `E'_m`
//! of Definition 4 against a per-tile reference line of `mbb(b)`:
//!
//! * west-column tiles (`NW`, `W`, `SW`) accumulate `E'_{m1}` against the
//!   west line `x = m1`;
//! * east-column tiles (`NE`, `E`, `SE`) accumulate `E'_{m2}` against the
//!   east line `x = m2` (the paper's Fig. 10 pseudo-code prints `m1` here;
//!   the accompanying text and the worked example use the east line, which
//!   is what this implementation follows);
//! * `S` accumulates `E_{l1}` against the south line, `N` accumulates
//!   `E_{l2}` against the north line;
//! * the bounded tile `B` has no line of its own: edges in `B` **and** `N`
//!   accumulate `E_{l1}` into an auxiliary sum `a_{B+N}`, and
//!   `area(B) = |a_{B+N}| − |a_N|`.
//!
//! The choice of reference lines makes every boundary-closure segment of a
//! tile intersection contribute exactly zero (it lies on the reference
//! line or is perpendicular to it), so the per-tile sums equal the tile
//! areas without ever materialising clipped polygons — the paper's key
//! observation.

use crate::divide::{classify_subedge, for_each_division};
use crate::hook::{MetricsHook, NoopHook};
use crate::matrix::{PercentageMatrix, TileAreas};
use crate::tile::{Tile, ALL_TILES};
use cardir_geometry::area::{e_l, e_m};
use cardir_geometry::{BoundingBox, Region};

/// Computes the per-tile areas of `a` relative to the tiles of `mbb(b)`
/// (paper Theorem 2: correct for `a, b ∈ REG*`, `O(k_a + k_b)` time).
pub fn tile_areas(a: &Region, b: &Region) -> TileAreas {
    // NoopHook monomorphises to the plain un-instrumented loop.
    tile_areas_with_mbb(a, b.mbb(), &mut NoopHook)
}

/// [`tile_areas`] against a precomputed `mbb(b)`, observed by a
/// [`MetricsHook`].
///
/// Bit-identical to `tile_areas(a, b)` whenever `mbb == b.mbb()` — the
/// areas depend on `b` only through its bounding box — and for any hook,
/// because hooks only observe. The hook sees every edge scanned and every
/// sub-edge emitted with its tile; pass [`NoopHook`] for the plain loop.
///
/// `mbb` must be a valid box, as [`BoundingBox::try_new`] checks: every
/// coordinate finite and `min ≤ max` on both axes (degenerate point and
/// segment boxes are fine). Boxes from `Region::mbb` always are; a
/// non-finite bound would accumulate NaN areas.
pub fn tile_areas_with_mbb<H: MetricsHook>(
    a: &Region,
    mbb: BoundingBox,
    hook: &mut H,
) -> TileAreas {
    let m1 = mbb.min.x;
    let m2 = mbb.max.x;
    let l1 = mbb.min.y;
    let l2 = mbb.max.y;

    // Signed accumulators, indexed by canonical tile index. The B slot is
    // unused; B is derived from `acc_bn` by `finalize_areas`.
    let mut acc = [0.0f64; 9];
    let mut acc_bn = 0.0f64;

    for polygon in a.polygons() {
        for edge in polygon.edges() {
            hook.edge_scanned();
            let mut parts = 0usize;
            for_each_division(edge, mbb, |sub| {
                parts += 1;
                let t = classify_subedge(sub, mbb);
                hook.sub_edge(t);
                match t {
                    Tile::NW | Tile::W | Tile::SW => acc[t.index()] += e_m(m1, sub),
                    Tile::NE | Tile::E | Tile::SE => acc[t.index()] += e_m(m2, sub),
                    Tile::S => acc[t.index()] += e_l(l1, sub),
                    Tile::N => acc[t.index()] += e_l(l2, sub),
                    Tile::B => {}
                }
                if t == Tile::N || t == Tile::B {
                    acc_bn += e_l(l1, sub);
                }
            });
            if parts > 1 {
                hook.edge_divided(parts);
            }
        }
    }

    finalize_areas(&acc, acc_bn)
}

/// Turns the signed accumulators of a `Compute-CDR%` pass into tile
/// areas: peripheral tiles take `|acc|`, and
/// `area(B ∩ a) = |a_{B+N}| − |a_N|`, clamped against round-off.
pub(crate) fn finalize_areas(acc: &[f64; 9], acc_bn: f64) -> TileAreas {
    let mut areas = TileAreas::default();
    for t in ALL_TILES {
        if t != Tile::B {
            *areas.get_mut(t) = acc[t.index()].abs();
        }
    }
    *areas.get_mut(Tile::B) = (acc_bn.abs() - acc[Tile::N.index()].abs()).max(0.0);
    areas
}

/// Computes the cardinal direction relation with percentages between `a`
/// and `b` — the paper's 3×3 percentage matrix.
///
/// ```
/// use cardir_core::compute_cdr_pct;
/// use cardir_geometry::Region;
///
/// // Fig. 1c: region c is 50 % north-east and 50 % east of b.
/// let b = Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
/// let c = Region::from_coords([(5.0, 2.0), (7.0, 2.0), (7.0, 6.0), (5.0, 6.0)]).unwrap();
/// let m = compute_cdr_pct(&c, &b);
/// assert_eq!(m.to_string(), "0% 0% 50%\n0% 0% 50%\n0% 0% 0%");
/// ```
pub fn compute_cdr_pct(a: &Region, b: &Region) -> PercentageMatrix {
    tile_areas(a, b).percentages()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_cdr;
    use cardir_geometry::{Polygon, Region};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    fn b() -> Region {
        rect(0.0, 0.0, 4.0, 4.0)
    }

    fn assert_close(actual: f64, expected: f64) {
        assert!((actual - expected).abs() < 1e-9, "{actual} vs {expected}");
    }

    #[test]
    fn single_tile_region_is_100_percent() {
        let b = b();
        for (a, tile) in [
            (rect(1.0, 1.0, 3.0, 3.0), Tile::B),
            (rect(-3.0, 5.0, -1.0, 7.0), Tile::NW),
            (rect(5.0, -3.0, 7.0, -1.0), Tile::SE),
            (rect(1.0, 5.0, 3.0, 7.0), Tile::N),
            (rect(-3.0, 1.0, -1.0, 3.0), Tile::W),
        ] {
            let m = compute_cdr_pct(&a, &b);
            assert_close(m.get(tile), 100.0);
            assert_close(m.sum(), 100.0);
        }
    }

    #[test]
    fn paper_percentage_example_fig_1c() {
        // c spans the east and north-east tiles half-and-half.
        let b = b();
        let c = rect(5.0, 2.0, 7.0, 6.0);
        let m = compute_cdr_pct(&c, &b);
        assert_close(m.get(Tile::NE), 50.0);
        assert_close(m.get(Tile::E), 50.0);
        assert_close(m.sum(), 100.0);
    }

    #[test]
    fn areas_match_geometry_for_corner_straddle() {
        // rect(3,3,5,5) over b = [0,4]²: area 4 split 1/1/1/1 across
        // B, E, N, NE.
        let b = b();
        let a = rect(3.0, 3.0, 5.0, 5.0);
        let areas = tile_areas(&a, &b);
        assert_close(areas.get(Tile::B), 1.0);
        assert_close(areas.get(Tile::E), 1.0);
        assert_close(areas.get(Tile::N), 1.0);
        assert_close(areas.get(Tile::NE), 1.0);
        assert_close(areas.total(), a.area());
        let m = areas.percentages();
        assert_close(m.get(Tile::B), 25.0);
    }

    #[test]
    fn asymmetric_straddle_percentages() {
        // A 8×2 band from x=-2 to x=6 centred vertically: 2/8 in W,
        // 4/8 in B, 2/8 in E.
        let b = b();
        let a = rect(-2.0, 1.0, 6.0, 3.0);
        let m = compute_cdr_pct(&a, &b);
        assert_close(m.get(Tile::W), 25.0);
        assert_close(m.get(Tile::B), 50.0);
        assert_close(m.get(Tile::E), 25.0);
    }

    #[test]
    fn covering_region_distributes_over_all_tiles() {
        // [-2,6]² over b=[0,4]²: area 64. Corners 2×2=4 each, edges
        // 2×4=8 each, B = 16.
        let b = b();
        let a = rect(-2.0, -2.0, 6.0, 6.0);
        let areas = tile_areas(&a, &b);
        for t in [Tile::SW, Tile::NW, Tile::NE, Tile::SE] {
            assert_close(areas.get(t), 4.0);
        }
        for t in [Tile::S, Tile::W, Tile::N, Tile::E] {
            assert_close(areas.get(t), 8.0);
        }
        assert_close(areas.get(Tile::B), 16.0);
        assert_close(areas.total(), 64.0);
    }

    #[test]
    fn b_tile_via_b_plus_n_subtraction() {
        // A region spanning B and N only: checks the |a_{B+N}| − |a_N|
        // derivation directly.
        let b = b();
        let a = rect(1.0, 2.0, 3.0, 6.0); // area 8: 4 in B, 4 in N
        let areas = tile_areas(&a, &b);
        assert_close(areas.get(Tile::B), 4.0);
        assert_close(areas.get(Tile::N), 4.0);
        assert_close(areas.total(), 8.0);
    }

    #[test]
    fn triangle_areas_sum_to_region_area() {
        let b = b();
        let a = Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap();
        let areas = tile_areas(&a, &b);
        assert_close(areas.total(), a.area());
        // Every tile of the qualitative relation holds positive area and
        // vice versa.
        let qualitative = compute_cdr(&a, &b);
        let from_areas = areas.relation(1e-9 * a.area()).unwrap();
        assert_eq!(qualitative, from_areas);
    }

    #[test]
    fn disconnected_region_with_hole_percentages() {
        // Paper-style composite: an island in NW plus a frame around part
        // of B — checks multiple polygons accumulate independently.
        let b = b();
        let island = Polygon::from_coords([(-3.0, 5.0), (-1.0, 5.0), (-1.0, 7.0), (-3.0, 7.0)]).unwrap();
        let block = Polygon::from_coords([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]).unwrap();
        let a = Region::new([island, block]).unwrap();
        let m = compute_cdr_pct(&a, &b);
        assert_close(m.get(Tile::NW), 50.0);
        assert_close(m.get(Tile::B), 50.0);
    }

    #[test]
    fn region_on_grid_lines_has_zero_spurious_area() {
        // A region exactly filling the S tile footprint must put 100 % in
        // S and nothing in B even though its north edge lies on l1.
        let b = b();
        let a = rect(0.0, -4.0, 4.0, 0.0);
        let m = compute_cdr_pct(&a, &b);
        assert_close(m.get(Tile::S), 100.0);
        assert_close(m.get(Tile::B), 0.0);
    }

    #[test]
    fn reference_region_vs_itself() {
        let b = b();
        let m = compute_cdr_pct(&b, &b);
        assert_close(m.get(Tile::B), 100.0);
    }
}
