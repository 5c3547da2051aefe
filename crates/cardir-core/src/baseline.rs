//! The polygon-clipping baseline the paper argues against.
//!
//! Computes the same qualitative relation and tile areas as
//! [`crate::compute_cdr`] / [`crate::tile_areas`], but the way a
//! clipping-based system would (Section 3 of the paper): clip the primary
//! region against each of the nine (possibly unbounded) tile boxes of
//! `mbb(b)` — nine passes over every edge — then measure the clipped
//! polygons. Instrumented so the Fig. 3 edge-count comparison and the
//! Section 5 timing comparison can be reproduced.

use crate::matrix::TileAreas;
use crate::relation::CardinalRelation;
use crate::tile::ALL_TILES;
use cardir_geometry::clip::{clip_polygon_tile, ring_area, ring_to_polygon};
use cardir_geometry::Region;

/// Instrumentation of a clipping-based computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClippingStats {
    /// Edges of the primary region (the paper's `k_a`).
    pub input_edges: usize,
    /// Edge visits over all nine tile scans (≈ `9 · k_a`; the paper:
    /// "the edges of the primary region a must be scanned 9 times").
    pub edges_scanned: usize,
    /// Total edges of the non-degenerate clipped polygons — the edge
    /// counts reported in Fig. 3 (16 for Fig. 3b, ~35 for Fig. 3c).
    pub output_edges: usize,
    /// Number of non-degenerate clipped polygons produced.
    pub output_polygons: usize,
}

/// Result of the clipping-based computation.
#[derive(Debug, Clone)]
pub struct ClippingOutcome {
    /// The qualitative relation (tiles with positive clipped area).
    pub relation: CardinalRelation,
    /// Per-tile areas, identical (up to round-off) to [`crate::tile_areas`].
    pub areas: TileAreas,
    /// Edge instrumentation.
    pub stats: ClippingStats,
}

/// Computes the cardinal direction relation and per-tile areas of `a`
/// relative to `b` by clipping `a` against every tile of `mbb(b)`.
///
/// The qualitative relation counts a tile when the clipped area exceeds
/// `1e-9 · area(a)` — clipping cannot distinguish "no overlap" from
/// "boundary-only overlap" except through areas, which is exactly the
/// paper's point about the approach.
pub fn clipping_cdr(a: &Region, b: &Region) -> ClippingOutcome {
    let mbb = b.mbb();
    let mut areas = TileAreas::default();
    let mut stats = ClippingStats {
        input_edges: a.edge_count(),
        ..ClippingStats::default()
    };

    for tile in ALL_TILES {
        let half_planes = tile.half_planes(mbb);
        for polygon in a.polygons() {
            stats.edges_scanned += polygon.len();
            let ring = clip_polygon_tile(polygon.vertices(), &half_planes);
            let area = ring_area(&ring);
            *areas.get_mut(tile) += area;
            if let Some(clipped) = ring_to_polygon(&ring) {
                stats.output_edges += clipped.len();
                stats.output_polygons += 1;
            }
        }
    }

    let eps = 1e-9 * a.area();
    // A valid region has positive area in at least one tile, but extreme
    // aspect ratios or magnitudes can round every clipped area under the
    // threshold. Fall back to the tile holding the largest clipped area
    // rather than panicking — the relation stays a best-effort answer, as
    // clipping is throughout.
    let relation = areas.relation(eps).unwrap_or_else(|| {
        let best = ALL_TILES
            .into_iter()
            .max_by(|s, t| areas.get(*s).total_cmp(&areas.get(*t)))
            .unwrap_or(crate::tile::Tile::B);
        CardinalRelation::from_bits(best.bit()).unwrap_or(CardinalRelation::OMNI)
    });
    ClippingOutcome {
        relation,
        areas,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_cdr;
    use crate::percent::tile_areas;
    use cardir_geometry::Region;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    fn b() -> Region {
        rect(0.0, 0.0, 4.0, 4.0)
    }

    #[test]
    fn agrees_with_compute_cdr_on_basic_shapes() {
        let b = b();
        for a in [
            rect(1.0, 1.0, 3.0, 3.0),
            rect(3.0, 3.0, 5.0, 5.0),
            rect(-2.0, 1.0, 6.0, 3.0),
            rect(-2.0, -2.0, 6.0, 6.0),
            Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap(),
        ] {
            let fast = compute_cdr(&a, &b);
            let clipped = clipping_cdr(&a, &b);
            assert_eq!(fast, clipped.relation, "region {a}");
            let fast_areas = tile_areas(&a, &b);
            for t in ALL_TILES {
                assert!(
                    (fast_areas.get(t) - clipped.areas.get(t)).abs() < 1e-9 * a.area().max(1.0),
                    "tile {t}: {} vs {}",
                    fast_areas.get(t),
                    clipped.areas.get(t)
                );
            }
        }
    }

    #[test]
    fn fig_3b_clipping_introduces_16_edges() {
        // The quadrangle over a box corner: 4 clipped quadrangles, 16 edges
        // (vs 8 divided edges for Compute-CDR).
        let b = b();
        let a = rect(-1.0, 3.0, 1.0, 5.0);
        let outcome = clipping_cdr(&a, &b);
        assert_eq!(outcome.stats.output_edges, 16);
        assert_eq!(outcome.stats.output_polygons, 4);
        assert_eq!(outcome.stats.edges_scanned, 9 * 4);
    }

    #[test]
    fn fig_3c_triangle_clipping_explodes_edge_count() {
        // The paper reports ~35 edges (2 triangles, 6 quadrangles and 1
        // pentagon) for the worst-case triangle covering all nine tiles.
        let b = b();
        let a = Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap();
        let outcome = clipping_cdr(&a, &b);
        assert_eq!(outcome.stats.output_polygons, 9);
        assert!(
            outcome.stats.output_edges >= 30,
            "expected an edge explosion, got {}",
            outcome.stats.output_edges
        );
        assert_eq!(outcome.relation, CardinalRelation::OMNI);
    }

    #[test]
    fn boundary_only_contact_is_not_a_tile() {
        // A region whose east edge lies exactly on the west line of b has
        // zero area west of it: clipping must report plain W… (the region
        // sits in W, touching B).
        let b = b();
        let a = rect(-2.0, 1.0, 0.0, 3.0);
        assert_eq!(clipping_cdr(&a, &b).relation.to_string(), "W");
    }

    #[test]
    fn stats_track_nine_scans() {
        let b = b();
        let a = Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap();
        let outcome = clipping_cdr(&a, &b);
        assert_eq!(outcome.stats.input_edges, 3);
        assert_eq!(outcome.stats.edges_scanned, 27);
    }
}
