//! The exact realizable-pair table.
//!
//! Section 2 of the paper: "the relative position of two regions `a` and
//! `b` is fully characterized by the pair `(R1, R2)`" with `a R1 b`,
//! `b R2 a`, and each a disjunct of the other's inverse. This module
//! computes, by exhaustive enumeration of order types and cell
//! occupancies (see [`crate::ordertype`]), the exact set of satisfiable
//! pairs over `REG*` — from which inverses fall out as table rows.

use crate::disjunctive::DisjunctiveRelation;
use crate::ordertype::{enumerate_axis_configs, AxisCell};
use cardir_core::{CardinalRelation, Tile};
use std::sync::OnceLock;

/// The table of realizable pairs: `table[r1]` is the set of `r2` such
/// that `a R1 b ∧ b R2 a` is satisfiable over `REG*`.
pub struct PairTable {
    rows: Vec<DisjunctiveRelation>, // indexed by r1.bits()
}

impl PairTable {
    /// The set of relations `R2` compatible with `a R1 b` — i.e. the
    /// inverse `inv(R1)` as a disjunctive relation.
    pub fn compatible(&self, r1: CardinalRelation) -> &DisjunctiveRelation {
        &self.rows[r1.bits() as usize]
    }

    /// Returns `true` when `a R1 b ∧ b R2 a` is satisfiable.
    pub fn realizable(&self, r1: CardinalRelation, r2: CardinalRelation) -> bool {
        self.compatible(r1).contains(r2)
    }
}

/// Computes (once, then caches) the exact realizable-pair table.
pub fn realizable_pairs() -> &'static PairTable {
    static TABLE: OnceLock<PairTable> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

/// Convenience wrapper over [`realizable_pairs`].
pub fn pair_realizable(r1: CardinalRelation, r2: CardinalRelation) -> bool {
    realizable_pairs().realizable(r1, r2)
}

/// A 2-D cell with precomputed tile bit and side-coverage mask.
#[derive(Clone, Copy)]
struct Cell2 {
    tile_bit: u16,
    /// Bits: 0 = touches west side, 1 = east, 2 = south, 3 = north.
    sides: u8,
}

fn cells_2d(xs: &[AxisCell], ys: &[AxisCell]) -> Vec<Cell2> {
    let mut out = Vec::with_capacity(xs.len() * ys.len());
    for y in ys {
        for x in xs {
            let tile = Tile::from_bands(x.band, y.band);
            let mut sides = 0u8;
            if x.touches_low {
                sides |= 1;
            }
            if x.touches_high {
                sides |= 2;
            }
            if y.touches_low {
                sides |= 4;
            }
            if y.touches_high {
                sides |= 8;
            }
            out.push(Cell2 {
                tile_bit: tile.bit(),
                sides,
            });
        }
    }
    out
}

/// All relations achievable by occupying a non-empty, side-covering
/// subset of `cells`.
fn achievable_relations(cells: &[Cell2]) -> Vec<CardinalRelation> {
    let n = cells.len();
    debug_assert!(n <= 9);
    let mut seen = [false; 512];
    let mut out = Vec::new();
    for mask in 1u16..(1 << n) {
        let mut tiles = 0u16;
        let mut sides = 0u8;
        for (i, cell) in cells.iter().enumerate() {
            if mask >> i & 1 == 1 {
                tiles |= cell.tile_bit;
                sides |= cell.sides;
            }
        }
        if sides == 0b1111 && !seen[tiles as usize] {
            seen[tiles as usize] = true;
            out.push(CardinalRelation::from_bits(tiles).expect("non-empty subset"));
        }
    }
    out
}

fn build_table() -> PairTable {
    let axis = enumerate_axis_configs();
    let mut rows = vec![DisjunctiveRelation::EMPTY; 512];
    for xc in &axis {
        for yc in &axis {
            // Region a's cells relative to b, and b's relative to a. The
            // occupancy choices for a and b are independent: any pair of
            // valid subsets is realised by unions of cell rectangles.
            let a_cells = cells_2d(&xc.a_cells, &yc.a_cells);
            let b_cells = cells_2d(&xc.b_cells, &yc.b_cells);
            let a_rels = achievable_relations(&a_cells);
            let b_rels = achievable_relations(&b_cells);
            let b_set = DisjunctiveRelation::from_relations(b_rels);
            for r1 in a_rels {
                rows[r1.bits() as usize] = rows[r1.bits() as usize].union(&b_set);
            }
        }
    }
    PairTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(s: &str) -> CardinalRelation {
        s.parse().unwrap()
    }

    #[test]
    fn every_relation_is_realizable_with_something() {
        let t = realizable_pairs();
        for r in CardinalRelation::all() {
            assert!(!t.compatible(r).is_empty(), "{r} has no compatible inverse");
        }
    }

    #[test]
    fn table_is_symmetric() {
        // (R1, R2) realizable iff (R2, R1) realizable — swap a and b.
        let t = realizable_pairs();
        for r1 in CardinalRelation::all() {
            for r2 in t.compatible(r1).iter() {
                assert!(t.realizable(r2, r1), "asymmetry at ({r1}, {r2})");
            }
        }
    }

    #[test]
    fn paper_listed_inverses_of_south() {
        // Section 2: "if a S b then it is possible that b N:NE a or …
        // b N:NW a or b N a" — all listed options must be in the table.
        let t = realizable_pairs();
        for r2 in ["N", "N:NE", "NW:N", "NW:N:NE"] {
            assert!(t.realizable(rel("S"), rel(r2)), "S vs {r2}");
        }
        // And options pointing the wrong way must not be.
        for r2 in ["S", "B", "W", "E", "S:SW", "B:N"] {
            assert!(
                !t.realizable(rel("S"), rel(r2)),
                "S vs {r2} should be impossible"
            );
        }
    }

    #[test]
    fn disconnected_inverse_of_south_includes_nw_ne() {
        // With REG* (disconnected regions) b may flank a on both sides
        // without mass in between: b NW:NE a is compatible with a S b.
        assert!(pair_realizable(rel("S"), rel("NW:NE")));
    }

    #[test]
    fn inverse_of_south_is_exactly_the_north_family() {
        let t = realizable_pairs();
        let inv: Vec<String> = t
            .compatible(rel("S"))
            .iter()
            .map(|r| r.to_string())
            .collect();
        // Every compatible relation uses only NW/N/NE tiles.
        for r in t.compatible(rel("S")).iter() {
            for tile in r.tiles() {
                assert!(
                    matches!(tile, Tile::NW | Tile::N | Tile::NE),
                    "unexpected tile {tile} in {r} (inverse of S): full set {inv:?}"
                );
            }
        }
        // a S b forces inf_x(b) ≤ inf_x(a) ≤ sup_x(a) ≤ sup_x(b): b's span
        // covers a's, so b cannot be NW-only or NE-only.
        assert!(!t.realizable(rel("S"), rel("NW")));
        assert!(!t.realizable(rel("S"), rel("NE")));
        assert_eq!(t.compatible(rel("S")).len(), 5); // N, NW:N, N:NE, NW:N:NE, NW:NE
    }

    #[test]
    fn b_relation_inverse() {
        // a B b (a inside b's box): b may relate to a by any relation that
        // covers a's span on both axes — including plain B (identical
        // boxes) and full surrounds.
        let t = realizable_pairs();
        assert!(t.realizable(rel("B"), rel("B")));
        assert!(t.realizable(rel("B"), CardinalRelation::OMNI));
        // b cannot be entirely strictly north of a if a is inside b's box.
        assert!(!t.realizable(rel("B"), rel("N")));
    }

    #[test]
    fn symmetric_single_tile_pairs() {
        // Mirror-image single-tile pairs are realizable…
        for (r1, r2) in [("S", "N"), ("SW", "NE"), ("W", "E"), ("SE", "NW")] {
            assert!(pair_realizable(rel(r1), rel(r2)), "{r1}/{r2}");
        }
        // …and same-direction pairs are not.
        for (r1, r2) in [("S", "S"), ("SW", "SW"), ("E", "E")] {
            assert!(!pair_realizable(rel(r1), rel(r2)), "{r1}/{r2}");
        }
    }
}
