//! Fused `Compute-CDR` / `Compute-CDR%` over cached struct-of-arrays
//! edges — one sweep, no per-pair re-flattening.
//!
//! The batch engine computes relations for every ordered pair `(a, b)`,
//! so the same primary region `a` is scanned against hundreds of
//! reference boxes. The entry points in [`crate::compute`] and
//! [`crate::percent`] each take `&Region` and call `Polygon::edges()`,
//! which materialises `Segment`s from the vertex lists on every call —
//! and the quantitative engine path used to call *both*, scanning every
//! edge twice per pair. This module removes both costs:
//!
//! * [`SoaStore`] flattens every region's edges **once** into contiguous
//!   `x0/y0/x1/y1` arrays (plus per-polygon edge ranges and bounding
//!   boxes), in exactly the order `Polygon::edges()` yields them;
//! * one generic kernel walks those arrays a single time per pair and
//!   computes — depending on which outputs the caller asked for — the
//!   tile-membership bits of `Compute-CDR` (paper Fig. 5) *and* the
//!   `E_l` / `E'_m` signed-area accumulators of `Compute-CDR%` (paper
//!   Fig. 10) in the same pass.
//!
//! The kernel skips three kinds of work that cannot change an answer. The
//! first is decided per edge, the other two by a polygon's bounding box:
//!
//! * **division and midpoint classification of an edge inside one open
//!   tile.** Each vertex gets a strict cell code against `mbb`: below,
//!   strictly inside or above on each axis, or "on a line". An edge starts
//!   where its predecessor ended, so the code is computed once per vertex
//!   and carried from edge to edge. When both endpoints share one code and
//!   neither is on a line, no line crosses the edge (a crossing needs
//!   endpoints strictly on both sides), so the edge is its own single
//!   sub-edge. Its midpoint `(a + b) / 2` is rounded monotonically, so it
//!   lies in `[min(a, b), max(a, b)]`, inside the same open band on each
//!   axis, where `band_of_hinted` returns that band without reading the
//!   hint. The kernel therefore takes the tile straight from the code.
//!   That argument needs `a + b` not to overflow, so the shortcut runs
//!   only when every coordinate of `mbb` lies within `±f64::MAX / 2`:
//!   then a sum can overflow only in an outer band, towards the infinity
//!   on that band's side, and stays in it;
//! * **grid lines outside the polygon's extent.** An edge is divided
//!   only by lines that cross it, with endpoints strictly on both sides.
//!   A vertical line `x = m` with `m ≤ min.x` or `m ≥ max.x` of the
//!   polygon box has every vertex on one side, so it crosses no edge of
//!   that polygon (likewise for horizontal lines), and the kernel divides
//!   the polygon's edges by the remaining lines only;
//! * **the centre test when the centre is outside the polygon box.** A
//!   point on or inside a polygon lies in the polygon's closed box, so
//!   the exact boundary and ray-cast test runs only for centres inside
//!   it. In a map join the reference centre almost never lies in the
//!   primary's box, so most pairs run no `orient2d` at all.
//!
//! Bit-identity with the `&Region` entry points is a hard invariant, not
//! an aspiration: the SoA stores the identical edge sequence, sub-edge
//! division and classification are shared code, the area accumulators
//! add the identical terms in the identical order, the relation bits and
//! the accumulators are finalised by the same two functions
//! (`relation_from_bits`, `finalize_areas`), and the per-polygon
//! centre test replicates `Polygon::contains` decision-for-decision via
//! the same exact predicates. The `&Region` entry points keep the
//! unpruned loop, so they stay an independent leg of the differential
//! tests below (and of the engine's suites), which pin `==` on every
//! output, including the sign of every rounding.

use crate::compute::relation_from_bits;
use crate::divide::{classify_subedge, for_each_division_by};
use crate::hook::{MetricsHook, NoopHook};
use crate::matrix::TileAreas;
use crate::percent::finalize_areas;
use crate::relation::CardinalRelation;
use crate::tile::Tile;
use cardir_geometry::area::{e_l, e_m};
use cardir_geometry::{orient2d_sign, BoundingBox, Line, Point, Region, Segment, Sign};

/// A borrowed view of one region's edges in struct-of-arrays layout.
///
/// Edge `e` is the directed segment `(x0[e], y0[e]) → (x1[e], y1[e])`.
/// Edges are stored polygon-major in the exact order
/// `Region::polygons()` × `Polygon::edges()` produces them, so within a
/// polygon each edge starts where the previous one ended;
/// `polygon_ends[k]` is the exclusive end (relative to this view) of
/// polygon `k`'s edge range, so polygon `k` owns edges
/// `polygon_ends[k-1] .. polygon_ends[k]`, and `polygon_boxes[k]` is the
/// bounding box of its vertices.
///
/// The kernels rely on both invariants (they carry each vertex's cell
/// from one edge to the next and skip the centre test outside a polygon's
/// box), so the fields are private to this crate and the only way to get
/// a view is [`SoaStore::view`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeSoa<'a> {
    /// Start x of each edge.
    pub(crate) x0: &'a [f64],
    /// Start y of each edge.
    pub(crate) y0: &'a [f64],
    /// End x of each edge.
    pub(crate) x1: &'a [f64],
    /// End y of each edge.
    pub(crate) y1: &'a [f64],
    /// Exclusive per-polygon edge-range ends, relative to this view.
    pub(crate) polygon_ends: &'a [u32],
    /// Per-polygon bounding boxes, parallel to `polygon_ends`.
    pub(crate) polygon_boxes: &'a [BoundingBox],
}

impl EdgeSoa<'_> {
    /// Number of edges in the view.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.x0.len()
    }

    /// Number of polygons in the view.
    #[inline]
    pub fn polygon_count(&self) -> usize {
        self.polygon_ends.len()
    }

    /// Reconstructs edge `e` as a [`Segment`] (bit-identical to the one
    /// `Polygon::edges()` would yield at the same position).
    #[inline]
    fn segment(&self, e: usize) -> Segment {
        Segment::new(
            Point::new(self.x0[e], self.y0[e]),
            Point::new(self.x1[e], self.y1[e]),
        )
    }
}

/// Owned struct-of-arrays edge storage for a whole map of regions.
///
/// Built once (by `RegionCache` in the engine crate), then borrowed per
/// pair via [`SoaStore::view`] — the exact loops never touch `Region` /
/// `Polygon` again, which [`cardir_geometry::flatten::events`] makes
/// checkable.
#[derive(Debug, Clone, Default)]
pub struct SoaStore {
    x0: Vec<f64>,
    y0: Vec<f64>,
    x1: Vec<f64>,
    y1: Vec<f64>,
    polygon_ends: Vec<u32>,
    polygon_boxes: Vec<BoundingBox>,
    /// Per-region prefix into the edge arrays; `edge_start.len()` is
    /// `regions + 1`.
    edge_start: Vec<usize>,
    /// Per-region prefix into `polygon_ends` and `polygon_boxes`; same
    /// shape.
    poly_start: Vec<usize>,
}

impl SoaStore {
    /// An empty store.
    pub fn new() -> Self {
        SoaStore {
            edge_start: vec![0],
            poly_start: vec![0],
            ..SoaStore::default()
        }
    }

    /// An empty store with room for `edges` edges over `polygons`
    /// polygons, so building it never reallocates.
    pub fn with_capacity(edges: usize, polygons: usize) -> Self {
        SoaStore {
            x0: Vec::with_capacity(edges),
            y0: Vec::with_capacity(edges),
            x1: Vec::with_capacity(edges),
            y1: Vec::with_capacity(edges),
            polygon_ends: Vec::with_capacity(polygons),
            polygon_boxes: Vec::with_capacity(polygons),
            ..SoaStore::new()
        }
    }

    /// Appends one region's edges, in exactly the order
    /// `Region::polygons()` × `Polygon::edges()` yields them
    /// (`v[i] → v[(i+1) mod n]` per clockwise-stored polygon), and each
    /// polygon's bounding box.
    pub fn push_region(&mut self, region: &Region) {
        let base = self.x0.len();
        for polygon in region.polygons() {
            let vs = polygon.vertices();
            let n = vs.len();
            for i in 0..n {
                let a = vs[i];
                let b = vs[(i + 1) % n];
                self.x0.push(a.x);
                self.y0.push(a.y);
                self.x1.push(b.x);
                self.y1.push(b.y);
            }
            let rel_end = self.x0.len() - base;
            self.polygon_ends
                .push(u32::try_from(rel_end).expect("region exceeds u32::MAX edges"));
            self.polygon_boxes.push(polygon.bounding_box());
        }
        self.edge_start.push(self.x0.len());
        self.poly_start.push(self.polygon_ends.len());
    }

    /// Borrowed SoA view of region `i` (insertion order).
    #[inline]
    pub fn view(&self, i: usize) -> EdgeSoa<'_> {
        let es = self.edge_start[i]..self.edge_start[i + 1];
        let ps = self.poly_start[i]..self.poly_start[i + 1];
        EdgeSoa {
            x0: &self.x0[es.clone()],
            y0: &self.y0[es.clone()],
            x1: &self.x1[es.clone()],
            y1: &self.y1[es],
            polygon_ends: &self.polygon_ends[ps.clone()],
            polygon_boxes: &self.polygon_boxes[ps],
        }
    }

    /// Number of regions pushed.
    #[inline]
    pub fn regions(&self) -> usize {
        self.edge_start.len() - 1
    }

    /// Total edges across all regions.
    #[inline]
    pub fn total_edges(&self) -> usize {
        self.x0.len()
    }
}

/// Replicates [`cardir_geometry::Polygon::contains`] over one polygon's
/// SoA edge range `[start, end)`: exact boundary membership first, then
/// exact ray-cast parity. Decision-for-decision identical because the
/// stored edges *are* `v[i] → v[(i+1) mod n]` in order, and every sign
/// goes through the same robust predicates.
fn polygon_contains(soa: &EdgeSoa<'_>, start: usize, end: usize, p: Point) -> bool {
    for e in start..end {
        if soa.segment(e).contains_point(p) {
            return true;
        }
    }
    let mut inside = false;
    for e in start..end {
        let a = Point::new(soa.x0[e], soa.y0[e]);
        let b = Point::new(soa.x1[e], soa.y1[e]);
        if (a.y > p.y) != (b.y > p.y) {
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

/// The lines of `mbb` (in [`BoundingBox::lines`] order) that lie strictly
/// inside `extent` on their axis — the only ones that can cross an edge
/// of a polygon whose vertices `extent` bounds. Returns the lines and
/// how many of the four slots are used.
#[inline]
fn lines_within(mbb: BoundingBox, extent: BoundingBox) -> ([Line; 4], usize) {
    let mut lines = [Line::Vertical(0.0); 4];
    let mut n = 0;
    for line in mbb.lines() {
        let (lo, hi) = match line {
            Line::Vertical(_) => (extent.min.x, extent.max.x),
            Line::Horizontal(_) => (extent.min.y, extent.max.y),
        };
        let c = line.coordinate();
        if lo < c && c < hi {
            lines[n] = line;
            n += 1;
        }
    }
    (lines, n)
}

/// Tile of each strict cell code `sx + 3·sy`, where `sx`/`sy` are 0, 1
/// or 2 for a coordinate below, strictly inside or above the box's band.
const CELL_TILES: [Tile; 9] = [
    Tile::SW,
    Tile::S,
    Tile::SE,
    Tile::W,
    Tile::B,
    Tile::E,
    Tile::NW,
    Tile::N,
    Tile::NE,
];

/// Flag of [`strict_cell`] for a point on one of the four lines.
const ON_LINE: u8 = 16;

/// The strict cell code of `(x, y)` against the box `[m1, m2] × [l1, l2]`:
/// an index into [`CELL_TILES`], with [`ON_LINE`] added when the point
/// lies on a grid line (in which case its band is not strict).
#[inline(always)]
fn strict_cell(x: f64, y: f64, m1: f64, m2: f64, l1: f64, l2: f64) -> u8 {
    let sx = u8::from(x > m1) + u8::from(x > m2);
    let sy = u8::from(y > l1) + u8::from(y > l2);
    let on = (x == m1) | (x == m2) | (y == l1) | (y == l2);
    sx + 3 * sy + ON_LINE * u8::from(on)
}

/// Running outputs of one fused sweep: the tile-bit union and the signed
/// area accumulators, indexed by canonical tile index (the `B` slot is
/// unused; `B` is derived from `acc_bn` by the caller).
struct Sweep {
    bits: u16,
    acc: [f64; 9],
    acc_bn: f64,
}

impl Sweep {
    /// Adds sub-edge `sub`, which lies in tile `t`, to the outputs the
    /// const flags enable.
    #[inline(always)]
    fn add<const RELATION: bool, const AREAS: bool>(
        &mut self,
        sub: Segment,
        t: Tile,
        mbb: BoundingBox,
    ) {
        if RELATION {
            self.bits |= t.bit();
        }
        if AREAS {
            let acc = &mut self.acc;
            match t {
                Tile::NW | Tile::W | Tile::SW => acc[t.index()] += e_m(mbb.min.x, sub),
                Tile::NE | Tile::E | Tile::SE => acc[t.index()] += e_m(mbb.max.x, sub),
                Tile::S => acc[t.index()] += e_l(mbb.min.y, sub),
                Tile::N => acc[t.index()] += e_l(mbb.max.y, sub),
                Tile::B => {}
            }
            if t == Tile::N || t == Tile::B {
                self.acc_bn += e_l(mbb.min.y, sub);
            }
        }
    }
}

/// The fused sweep. `RELATION` enables the tile-bit union and the
/// per-polygon centre test of `Compute-CDR`; `AREAS` enables the
/// `E_l` / `E'_m` accumulators of `Compute-CDR%`. Both const flags
/// monomorphise away: the three public shapes compile to exactly the
/// loop they need, with no runtime branches on the configuration.
///
/// An edge whose endpoints share one strict cell is added as one
/// sub-edge in that cell's tile. Every other edge is divided only by the
/// grid lines inside its polygon's box, and the centre test runs only
/// when the centre lies in that box (see the module docs for why none of
/// the three changes an output).
fn fused_scan<H: MetricsHook, const RELATION: bool, const AREAS: bool>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> (u16, [f64; 9], f64) {
    let center = mbb.center();
    let (m1, m2, l1, l2) = (mbb.min.x, mbb.max.x, mbb.min.y, mbb.max.y);
    // Within ±MAX/2 no endpoint sum can overflow out of its band.
    let shortcut = [m1, m2, l1, l2].iter().all(|c| c.abs() <= f64::MAX / 2.0);

    let mut sweep = Sweep {
        bits: 0,
        acc: [0.0; 9],
        acc_bn: 0.0,
    };
    let mut start = 0usize;
    for (&rel_end, &extent) in soa.polygon_ends.iter().zip(soa.polygon_boxes) {
        let end = rel_end as usize;
        let (lines, n_lines) = lines_within(mbb, extent);
        let lines = &lines[..n_lines];
        // Edge `e` starts where edge `e - 1` ended, so each vertex's cell
        // is computed once and carried to the next edge.
        let mut cell_a = if start < end {
            strict_cell(soa.x0[start], soa.y0[start], m1, m2, l1, l2)
        } else {
            ON_LINE
        };
        for e in start..end {
            let edge = soa.segment(e);
            debug_assert!(e == start || edge.a == Point::new(soa.x1[e - 1], soa.y1[e - 1]));
            hook.edge_scanned();
            let cell_b = strict_cell(edge.b.x, edge.b.y, m1, m2, l1, l2);
            let one_cell = shortcut && cell_a < ON_LINE && cell_a == cell_b;
            cell_a = cell_b;
            if one_cell {
                let t = CELL_TILES[cell_b as usize];
                hook.sub_edge(t);
                sweep.add::<RELATION, AREAS>(edge, t, mbb);
                continue;
            }
            let mut parts = 0usize;
            for_each_division_by(edge, lines, |sub| {
                parts += 1;
                let t = classify_subedge(sub, mbb);
                hook.sub_edge(t);
                sweep.add::<RELATION, AREAS>(sub, t, mbb);
            });
            if parts > 1 {
                hook.edge_divided(parts);
            }
        }
        // Fig. 5: "If the center of mbb(b) is in p then R = tile-union(R, B)".
        // A centre outside p's closed box is outside p.
        if RELATION
            && sweep.bits & Tile::B.bit() == 0
            && extent.contains(center)
            && polygon_contains(soa, start, end, center)
        {
            sweep.bits |= Tile::B.bit();
            hook.b_center_hit();
        }
        start = end;
    }
    (sweep.bits, sweep.acc, sweep.acc_bn)
}

/// `Compute-CDR` over cached SoA edges — bit-identical to
/// [`crate::compute_cdr_with_mbb`] on the region the SoA was built from,
/// with the same hook event stream.
pub fn cdr_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> CardinalRelation {
    cdr_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`cdr_from_soa`] observed by a [`MetricsHook`] (hooks only observe;
/// the result is bit-identical for any hook).
pub(crate) fn cdr_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> CardinalRelation {
    let (bits, _, _) = fused_scan::<H, true, false>(soa, mbb, hook);
    relation_from_bits(bits)
}

/// The fused quantitative pass: `Compute-CDR` *and* `Compute-CDR%` in
/// one sweep over cached SoA edges. The relation is bit-identical to
/// [`crate::compute_cdr_with_mbb`] and the areas to
/// [`crate::tile_areas_with_mbb`] — each edge is divided and classified
/// once instead of twice.
pub fn cdr_areas_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> (CardinalRelation, TileAreas) {
    cdr_areas_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`cdr_areas_from_soa`] observed by a [`MetricsHook`].
pub(crate) fn cdr_areas_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> (CardinalRelation, TileAreas) {
    let (bits, acc, acc_bn) = fused_scan::<H, true, true>(soa, mbb, hook);
    (relation_from_bits(bits), finalize_areas(&acc, acc_bn))
}

/// `Compute-CDR%` alone over cached SoA edges — bit-identical to
/// [`crate::tile_areas_with_mbb`]. No centre test runs (areas never
/// needed it), so the per-pair work matches the legacy areas-only call
/// exactly.
pub fn areas_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> TileAreas {
    areas_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`areas_from_soa`] observed by a [`MetricsHook`].
pub(crate) fn areas_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> TileAreas {
    let (_, acc, acc_bn) = fused_scan::<H, false, true>(soa, mbb, hook);
    finalize_areas(&acc, acc_bn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_cdr_with_mbb;
    use crate::hook::CountingHook;
    use crate::percent::tile_areas_with_mbb;
    use cardir_geometry::{Polygon, Region};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Regions that exercise every kernel branch: single tile, straddles,
    /// corner straddles, grid-line edges, a covering slab (centre test),
    /// a frame whose hole covers the box (centre test must *fail* per
    /// polygon), a disconnected pair, and an all-nine-tiles triangle.
    fn adversarial_regions() -> Vec<Region> {
        vec![
            rect(1.0, 1.0, 3.0, 3.0),
            rect(5.0, -3.0, 7.0, -1.0),
            rect(3.0, 1.0, 5.0, 3.0),
            rect(3.0, 3.0, 5.0, 5.0),
            rect(-2.0, 1.0, 6.0, 3.0),
            rect(0.0, 1.0, 2.0, 3.0),
            rect(0.0, -4.0, 4.0, 0.0),
            rect(-2.0, -2.0, 6.0, 6.0),
            Region::new([
                Polygon::from_coords([(-4.0, -4.0), (8.0, -4.0), (8.0, -2.0), (-4.0, -2.0)])
                    .unwrap(),
                Polygon::from_coords([(-4.0, 6.0), (8.0, 6.0), (8.0, 8.0), (-4.0, 8.0)]).unwrap(),
                Polygon::from_coords([(-4.0, -2.0), (-2.0, -2.0), (-2.0, 6.0), (-4.0, 6.0)])
                    .unwrap(),
                Polygon::from_coords([(6.0, -2.0), (8.0, -2.0), (8.0, 6.0), (6.0, 6.0)]).unwrap(),
            ])
            .unwrap(),
            Region::new([
                Polygon::from_coords([(1.0, 5.0), (3.0, 5.0), (3.0, 7.0), (1.0, 7.0)]).unwrap(),
                Polygon::from_coords([(5.0, -3.0), (7.0, -3.0), (7.0, -1.0), (5.0, -1.0)]).unwrap(),
            ])
            .unwrap(),
            Region::from_coords([(-2.0, 2.0), (-3.0, 5.0), (-1.0, 6.0), (5.0, 4.0)]).unwrap(),
            Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap(),
        ]
    }

    #[test]
    fn store_layout_matches_edge_iterators() {
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        assert_eq!(store.regions(), regions.len());
        assert_eq!(
            store.total_edges(),
            regions.iter().map(Region::edge_count).sum::<usize>()
        );
        for (i, r) in regions.iter().enumerate() {
            let soa = store.view(i);
            assert_eq!(soa.edge_count(), r.edge_count());
            assert_eq!(soa.polygon_count(), r.polygons().len());
            let flat: Vec<_> = r.edges().collect();
            for (e, expect) in flat.iter().enumerate() {
                assert_eq!(soa.segment(e), *expect, "region {i} edge {e}");
            }
            let boxes: Vec<_> = r.polygons().iter().map(|p| p.bounding_box()).collect();
            assert_eq!(soa.polygon_boxes, &boxes[..], "region {i} polygon boxes");
        }
    }

    /// Asserts that every SoA kernel agrees with the `&Region` entry
    /// points on `a` against the box `mbb`: relation, raw areas and hook
    /// event streams. Returns the relation hook of the `&Region` path.
    fn assert_kernels_match(
        a: &Region,
        soa: &EdgeSoa<'_>,
        mbb: BoundingBox,
        context: &str,
    ) -> CountingHook {
        let mut want = CountingHook::new();
        let rel = compute_cdr_with_mbb(a, mbb, &mut want);
        assert_eq!(
            rel,
            compute_cdr_with_mbb(a, mbb, &mut NoopHook),
            "{context}: hooked relation"
        );
        let mut want_areas_hook = CountingHook::new();
        let areas = tile_areas_with_mbb(a, mbb, &mut want_areas_hook);
        assert_eq!(
            areas,
            tile_areas_with_mbb(a, mbb, &mut NoopHook),
            "{context}: hooked areas"
        );

        let mut got = CountingHook::new();
        assert_eq!(
            cdr_from_soa_hooked(soa, mbb, &mut got),
            rel,
            "{context}: relation"
        );
        assert_eq!(got, want, "{context}: relation hook stream");
        let mut got = CountingHook::new();
        let (fused_rel, fused_areas) = cdr_areas_from_soa_hooked(soa, mbb, &mut got);
        assert_eq!(fused_rel, rel, "{context}: fused relation");
        assert_eq!(fused_areas, areas, "{context}: fused areas");
        assert_eq!(got, want, "{context}: fused hook stream");
        let mut got = CountingHook::new();
        assert_eq!(
            areas_from_soa_hooked(soa, mbb, &mut got),
            areas,
            "{context}: areas"
        );
        assert_eq!(got, want_areas_hook, "{context}: areas hook stream");
        want
    }

    /// `c` and its two neighbouring floats.
    fn ulp_around(c: f64) -> [f64; 3] {
        [c.next_down(), c, c.next_up()]
    }

    /// The kernel's short-circuits at their boundaries: grid lines
    /// exactly on a polygon box's extent and one ulp to either side of it
    /// (the pruning keeps only lines strictly inside), reference centres
    /// on and just off a polygon box's boundary (the centre test runs only
    /// for centres in the closed box), and edge endpoints on and around
    /// every grid line (the strict-cell shortcut), each also at 2^±40
    /// scale.
    #[test]
    fn short_circuits_agree_at_their_boundaries() {
        let (mut lines_on_extent, mut centres_on_box, mut centres_off_box) = (0, 0, 0);
        for (i, a) in adversarial_regions().iter().enumerate() {
            let mut store = SoaStore::new();
            store.push_region(a);
            let soa = store.view(0);
            for extent in soa.polygon_boxes {
                // Lines on (and one ulp around) each extent coordinate,
                // with the other axis's lines either outside the extent
                // or exactly on it.
                let (x0, x1, y0, y1) = (extent.min.x, extent.max.x, extent.min.y, extent.max.y);
                for c in ulp_around(x0).into_iter().chain(ulp_around(x1)) {
                    for (lo, hi) in [(y0 - 1.0, y1 + 1.0), (y0, y1)] {
                        for b in [rect(c, lo, c + 2.0, hi), rect(c - 2.0, lo, c, hi)] {
                            lines_on_extent += usize::from(c == x0 || c == x1);
                            assert_kernels_match(
                                a,
                                &soa,
                                b.mbb(),
                                &format!("region {i}, x line {c}"),
                            );
                        }
                    }
                }
                for c in ulp_around(y0).into_iter().chain(ulp_around(y1)) {
                    for (lo, hi) in [(x0 - 1.0, x1 + 1.0), (x0, x1)] {
                        for b in [rect(lo, c, hi, c + 2.0), rect(lo, c - 2.0, hi, c)] {
                            assert_kernels_match(
                                a,
                                &soa,
                                b.mbb(),
                                &format!("region {i}, y line {c}"),
                            );
                        }
                    }
                }
                // Centres at the corners and edge midpoints of the box, and
                // one ulp to either side of them on each axis.
                let (mx, my) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
                for tx in [x0, mx, x1] {
                    for ty in [y0, my, y1] {
                        for cx in ulp_around(tx) {
                            for cy in ulp_around(ty) {
                                let b = rect(cx - 1.0, cy - 1.0, cx + 1.0, cy + 1.0);
                                let centre = b.mbb().center();
                                let on_boundary = extent.contains(centre)
                                    && (centre.x == x0
                                        || centre.x == x1
                                        || centre.y == y0
                                        || centre.y == y1);
                                centres_on_box += usize::from(on_boundary);
                                centres_off_box += usize::from(
                                    !extent.contains(centre)
                                        && (centre.x == x0.next_down()
                                            || centre.x == x1.next_up()
                                            || centre.y == y0.next_down()
                                            || centre.y == y1.next_up()),
                                );
                                assert_kernels_match(
                                    a,
                                    &soa,
                                    b.mbb(),
                                    &format!("region {i}, centre {centre}"),
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(lines_on_extent > 0 && centres_on_box > 0 && centres_off_box > 0);

        // A centre inside the region's box but outside every polygon box:
        // the frame around the hole [-2, 6]².
        let regions = adversarial_regions();
        let frame = &regions[8];
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let centre = b.mbb().center();
        let mut store = SoaStore::new();
        store.push_region(frame);
        assert!(frame.mbb().contains(centre));
        assert!(store
            .view(0)
            .polygon_boxes
            .iter()
            .all(|p| !p.contains(centre)));
        let hook = assert_kernels_match(frame, &store.view(0), b.mbb(), "frame");
        assert_eq!(hook.b_center_hits, 0);
        assert!(!compute_cdr_with_mbb(frame, b.mbb(), &mut NoopHook).contains(Tile::B));

        // A centre inside a polygon with no edge in the central tile: the
        // centre test must still add B.
        let slab = &regions[7];
        let mut store = SoaStore::new();
        store.push_region(slab);
        let hook = assert_kernels_match(slab, &store.view(0), b.mbb(), "covering slab");
        assert_eq!(hook.b_center_hits, 1);
        assert!(cdr_from_soa(&store.view(0), b.mbb()).contains(Tile::B));

        for scale in [1.0, 2f64.powi(40), 2f64.powi(-40)] {
            cell_shortcut_agrees_at_its_boundaries(scale);
        }
        cell_shortcut_is_off_where_endpoint_sums_overflow();
    }

    /// Coordinates on, one ulp around, between and outside the lines
    /// `lo` and `hi` of one axis, ascending and distinct.
    fn around_lines(lo: f64, hi: f64, scale: f64) -> Vec<f64> {
        let mut v: Vec<f64> = [lo - 2.0 * scale, (lo + hi) / 2.0, hi + 2.0 * scale]
            .into_iter()
            .chain(ulp_around(lo))
            .chain(ulp_around(hi))
            .collect();
        v.sort_by(f64::total_cmp);
        v.dedup();
        v
    }

    /// Primaries whose vertices take every coordinate [`around_lines`]
    /// gives, against a square, a zero-width, a zero-height and a point
    /// reference box: rectangles (edges on and one ulp off each line) and
    /// the two triangles under each rectangle's diagonal. Both kernels
    /// must agree on every one, and both the shortcut and the division
    /// path must be taken.
    fn cell_shortcut_agrees_at_its_boundaries(scale: f64) {
        let (lo, mid, hi) = (0.0, 2.0 * scale, 4.0 * scale);
        let boxes = [
            (lo, hi, lo, hi),
            (mid, mid, lo, hi),
            (lo, hi, mid, mid),
            (mid, mid, mid, mid),
        ];
        for (m1, m2, l1, l2) in boxes {
            let mbb = BoundingBox::new(Point::new(m1, l1), Point::new(m2, l2));
            let (xs, ys) = (around_lines(m1, m2, scale), around_lines(l1, l2, scale));
            let (mut inside_one_cell, mut endpoint_on_line, mut divided) = (0, 0, 0);
            for (k, &x0) in xs.iter().enumerate() {
                for &x1 in &xs[k + 1..] {
                    for (k, &y0) in ys.iter().enumerate() {
                        for &y1 in &ys[k + 1..] {
                            let shapes = [
                                vec![(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                                vec![(x0, y0), (x1, y1), (x1, y0)],
                                vec![(x0, y0), (x0, y1), (x1, y1)],
                            ];
                            for coords in shapes {
                                // Slivers one ulp wide near 0 round to zero
                                // area, which a region rejects.
                                let Ok(a) = Region::from_coords(coords) else {
                                    continue;
                                };
                                let mut store = SoaStore::new();
                                store.push_region(&a);
                                let soa = store.view(0);
                                for e in 0..soa.edge_count() {
                                    let edge = soa.segment(e);
                                    let cell = |p: Point| strict_cell(p.x, p.y, m1, m2, l1, l2);
                                    let (ca, cb) = (cell(edge.a), cell(edge.b));
                                    inside_one_cell += usize::from(ca == cb && ca < ON_LINE);
                                    endpoint_on_line += usize::from(ca >= ON_LINE || cb >= ON_LINE);
                                }
                                let context = format!("scale {scale}, box {mbb:?}, primary {a:?}");
                                let hook = assert_kernels_match(&a, &soa, mbb, &context);
                                divided += hook.edges_divided;
                            }
                        }
                    }
                }
            }
            assert!(
                inside_one_cell > 0 && endpoint_on_line > 0 && divided > 0,
                "box {mbb:?}"
            );
        }
    }

    /// Where `a + b` can overflow, the midpoint of an edge inside one
    /// open band can land outside it, so the shortcut must stay off: an
    /// edge strictly inside the middle x band of `[0, MAX]` whose
    /// endpoint sum rounds to `+inf` has its midpoint in the east band.
    /// (The areas overflow to NaN there, so only relations and hook
    /// streams are compared.)
    fn cell_shortcut_is_off_where_endpoint_sums_overflow() {
        let a = rect(f64::MAX * 0.75, 1.0, f64::MAX * 0.875, 2.0);
        let mut store = SoaStore::new();
        store.push_region(&a);
        let soa = store.view(0);
        for max_x in [f64::MAX, (f64::MAX / 2.0).next_up()] {
            let mbb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(max_x, 4.0));
            let mut want = CountingHook::new();
            let rel = compute_cdr_with_mbb(&a, mbb, &mut want);
            let mut got = CountingHook::new();
            assert_eq!(cdr_from_soa_hooked(&soa, mbb, &mut got), rel, "box {mbb:?}");
            assert_eq!(got, want, "box {mbb:?}: relation hook stream");
            let mut got = CountingHook::new();
            assert_eq!(
                cdr_areas_from_soa_hooked(&soa, mbb, &mut got).0,
                rel,
                "box {mbb:?}"
            );
            assert_eq!(got, want, "box {mbb:?}: fused hook stream");
            if max_x == f64::MAX {
                assert!(
                    rel.contains(Tile::E),
                    "the overflowed midpoint classifies east"
                );
            }
        }
    }

    #[test]
    fn fused_is_bit_identical_to_the_region_entry_points() {
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        let mbb = rect(0.0, 0.0, 4.0, 4.0).mbb();
        for (i, r) in regions.iter().enumerate() {
            let soa = store.view(i);
            let want_rel = compute_cdr_with_mbb(r, mbb, &mut NoopHook);
            let want_areas = tile_areas_with_mbb(r, mbb, &mut NoopHook);
            assert_eq!(cdr_from_soa(&soa, mbb), want_rel, "region {i}");
            let (rel, areas) = cdr_areas_from_soa(&soa, mbb);
            assert_eq!(rel, want_rel, "region {i}");
            assert_eq!(areas, want_areas, "region {i} (fused areas)");
            assert_eq!(
                areas_from_soa(&soa, mbb),
                want_areas,
                "region {i} (areas only)"
            );
        }
    }

    #[test]
    fn fused_is_bit_identical_across_reference_boxes() {
        // The same primary scanned against every other region's mbb —
        // the engine's actual access pattern.
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        for (i, a) in regions.iter().enumerate() {
            let soa = store.view(i);
            for b in &regions {
                let mbb = b.mbb();
                let (rel, areas) = cdr_areas_from_soa(&soa, mbb);
                assert_eq!(rel, compute_cdr_with_mbb(a, mbb, &mut NoopHook));
                assert_eq!(areas, tile_areas_with_mbb(a, mbb, &mut NoopHook));
                assert_eq!(
                    areas.percentages(),
                    tile_areas_with_mbb(a, mbb, &mut NoopHook).percentages()
                );
            }
        }
    }

    #[test]
    fn hook_counts_match_the_region_entry_points() {
        let b = rect(0.0, 0.0, 4.0, 4.0);
        for a in adversarial_regions() {
            let mut store = SoaStore::new();
            store.push_region(&a);
            let soa = store.view(0);
            let mut legacy = CountingHook::new();
            let mut fused = CountingHook::new();
            let want = compute_cdr_with_mbb(&a, b.mbb(), &mut legacy);
            let got = cdr_from_soa_hooked(&soa, b.mbb(), &mut fused);
            assert_eq!(got, want);
            assert_eq!(fused, legacy, "hook event streams must agree");
            // The fused quantitative pass scans each edge once — the same
            // counts again, not double.
            let mut quant = CountingHook::new();
            cdr_areas_from_soa_hooked(&soa, b.mbb(), &mut quant);
            assert_eq!(quant.edges_scanned, legacy.edges_scanned);
            assert_eq!(quant.sub_edges, legacy.sub_edges);
        }
    }
}
