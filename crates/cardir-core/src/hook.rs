//! Observation hooks for the core algorithms — zero-cost when disabled.
//!
//! Theorems 1 and 2 claim `Compute-CDR` / `Compute-CDR%` run in
//! `O(k_a + k_b)`: every input edge is scanned once, divided into at
//! most five sub-edges (one interior crossing per `mbb(b)` line), and
//! each sub-edge is classified once. [`MetricsHook`] makes those counts
//! *observable*: the algorithm entry points
//! ([`crate::compute_cdr_with_mbb`], [`crate::tile_areas_with_mbb`]) are
//! generic over a hook whose methods default to no-ops, so the everyday
//! paths monomorphise with [`NoopHook`] to exactly the un-instrumented
//! code — the optimiser sees empty inlined calls and deletes them — while
//! an instrumented caller passes a [`CountingHook`] (or its own
//! implementation) and reads the paper's cost model off a real run: its
//! `edges_scanned` and `sub_edges` are the input and divided edge counts
//! of the Fig. 3 experiments.
//!
//! The hook only *observes*: no hook implementation can alter the
//! computed relation or areas, so instrumented and plain runs are
//! bit-identical by construction.

use crate::tile::Tile;

/// Observer of one `Compute-CDR` / `Compute-CDR%` pass. All methods
/// default to no-ops; implement only what you need.
pub trait MetricsHook {
    /// An input edge of the primary region is about to be divided (the
    /// paper's `k_a` counts these calls).
    #[inline]
    fn edge_scanned(&mut self) {}

    /// An input edge produced `parts > 1` sub-edges — it genuinely
    /// crossed at least one grid line of `mbb(b)`.
    #[inline]
    fn edge_divided(&mut self, parts: usize) {
        let _ = parts;
    }

    /// A sub-edge was emitted and classified into `tile`.
    #[inline]
    fn sub_edge(&mut self, tile: Tile) {
        let _ = tile;
    }

    /// The centre-of-`mbb(b)` containment test added the `B` tile for a
    /// polygon with no edge inside the central tile (`Compute-CDR` only).
    #[inline]
    fn b_center_hit(&mut self) {}
}

/// The disabled hook: every method is an inlined empty body, so passing
/// it compiles to the un-instrumented algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHook;

impl MetricsHook for NoopHook {}

/// A ready-made accumulator of everything the hook can see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingHook {
    /// Input edges scanned (= `k_a` per call).
    pub edges_scanned: usize,
    /// Input edges that were split into more than one sub-edge.
    pub edges_divided: usize,
    /// Sub-edges emitted in total (the paper's "introduced edges" plus
    /// the undivided pass-throughs).
    pub sub_edges: usize,
    /// Centre-test `B` detections.
    pub b_center_hits: usize,
    tile_bits: u16,
}

impl CountingHook {
    /// A fresh, all-zero hook.
    pub fn new() -> Self {
        CountingHook::default()
    }

    /// Number of distinct tiles touched by emitted sub-edges.
    pub fn tiles_touched(&self) -> usize {
        self.tile_bits.count_ones() as usize
    }

    /// Whether any sub-edge touched `tile`.
    pub fn touched(&self, tile: Tile) -> bool {
        self.tile_bits & tile.bit() != 0
    }
}

impl MetricsHook for CountingHook {
    #[inline]
    fn edge_scanned(&mut self) {
        self.edges_scanned += 1;
    }

    #[inline]
    fn edge_divided(&mut self, _parts: usize) {
        self.edges_divided += 1;
    }

    #[inline]
    fn sub_edge(&mut self, tile: Tile) {
        self.sub_edges += 1;
        self.tile_bits |= tile.bit();
    }

    #[inline]
    fn b_center_hit(&mut self) {
        self.b_center_hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_cdr, compute_cdr_with_mbb};
    use crate::percent::{tile_areas, tile_areas_with_mbb};
    use cardir_geometry::Region;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    #[test]
    fn counting_hook_sees_example_3_counts() {
        // Paper Example 3: 4 input edges divide into 9 sub-edges over
        // tiles B, W, NW, N, NE, E.
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let a = Region::from_coords([(-2.0, 2.0), (-3.0, 5.0), (-1.0, 6.0), (5.0, 4.0)]).unwrap();
        let mut hook = CountingHook::new();
        let r = compute_cdr_with_mbb(&a, b.mbb(), &mut hook);
        assert_eq!(r, compute_cdr(&a, &b), "hook must not alter the result");
        assert_eq!(hook.edges_scanned, 4);
        assert_eq!(hook.sub_edges, 9);
        assert!(hook.edges_divided >= 1 && hook.edges_divided <= 4);
        assert_eq!(hook.tiles_touched(), 6);
        assert!(hook.touched(Tile::NW) && hook.touched(Tile::E));
        assert!(!hook.touched(Tile::S));
    }

    #[test]
    fn undivided_region_has_zero_divided_edges() {
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let a = rect(1.0, 1.0, 3.0, 3.0); // strictly inside B
        let mut hook = CountingHook::new();
        compute_cdr_with_mbb(&a, b.mbb(), &mut hook);
        assert_eq!(hook.edges_scanned, 4);
        assert_eq!(hook.edges_divided, 0);
        assert_eq!(hook.sub_edges, 4);
        assert_eq!(hook.tiles_touched(), 1);
    }

    #[test]
    fn center_test_hit_is_reported() {
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let cover = rect(-2.0, -2.0, 6.0, 6.0); // covers all of mbb(b)
        let mut hook = CountingHook::new();
        compute_cdr_with_mbb(&cover, b.mbb(), &mut hook);
        assert_eq!(hook.b_center_hits, 1);
    }

    #[test]
    fn percent_hook_matches_compute_hook_counts() {
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let a = rect(3.0, 3.0, 5.0, 5.0);
        let mut ch = CountingHook::new();
        let mut ph = CountingHook::new();
        compute_cdr_with_mbb(&a, b.mbb(), &mut ch);
        let areas = tile_areas_with_mbb(&a, b.mbb(), &mut ph);
        assert_eq!(areas, tile_areas(&a, &b), "hook must not alter areas");
        assert_eq!(ch.edges_scanned, ph.edges_scanned);
        assert_eq!(ch.sub_edges, ph.sub_edges);
        assert_eq!(ch.edges_divided, ph.edges_divided);
    }
}
