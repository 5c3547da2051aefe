//! Occupancy-phase witness construction for constraint networks.
//!
//! Given concrete integer mbb endpoints for every variable, each
//! variable's box is cut by its partners' grid lines into cells. A cell is
//! *allowed* when, for every constraint `v R w`, the cell's tile relative
//! to `w`'s box belongs to `tiles(R)`. Occupying **all** allowed cells is
//! the maximal choice: it can only help coverage and never adds a
//! forbidden tile, so a witness exists under this endpoint assignment iff
//! the maximal occupancy covers every required tile of every constraint
//! and touches all four sides of the variable's own box.

use cardir_core::{CardinalRelation, Tile};
use cardir_geometry::{Band, Point, Polygon, Region};

/// Attempts to realise every variable as a union of cell rectangles.
///
/// `values` holds endpoint nodes in the layout of
/// [`crate::network::Network`]: variable `i` owns
/// `(inf_x, sup_x, inf_y, sup_y) = values[4i..4i+4]`.
/// Returns one region per variable on success.
pub fn realize(
    values: &[i64],
    n_vars: usize,
    constraints: &[(usize, CardinalRelation, usize)],
) -> Option<Vec<Region>> {
    let var_box = |i: usize| {
        (
            values[4 * i],
            values[4 * i + 1],
            values[4 * i + 2],
            values[4 * i + 3],
        )
    };
    let mut regions = Vec::with_capacity(n_vars);
    for v in 0..n_vars {
        let (x_lo, x_hi, y_lo, y_hi) = var_box(v);
        debug_assert!(x_lo < x_hi && y_lo < y_hi);
        let my_constraints: Vec<&(usize, CardinalRelation, usize)> =
            constraints.iter().filter(|(p, _, _)| *p == v).collect();

        // Breakpoints: own endpoints plus partner lines strictly inside.
        let mut xs = vec![x_lo, x_hi];
        let mut ys = vec![y_lo, y_hi];
        for &&(_, _, w) in &my_constraints {
            let (wx_lo, wx_hi, wy_lo, wy_hi) = var_box(w);
            for c in [wx_lo, wx_hi] {
                if x_lo < c && c < x_hi {
                    xs.push(c);
                }
            }
            for c in [wy_lo, wy_hi] {
                if y_lo < c && c < y_hi {
                    ys.push(c);
                }
            }
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();

        // Enumerate cells, keep the allowed ones.
        struct CellInfo {
            x: (i64, i64),
            y: (i64, i64),
            /// Tile relative to each constraint's reference box.
            tiles: Vec<Tile>,
        }
        let mut allowed: Vec<CellInfo> = Vec::new();
        for wy in ys.windows(2) {
            for wx in xs.windows(2) {
                let cell_x = (wx[0], wx[1]);
                let cell_y = (wy[0], wy[1]);
                let mut tiles = Vec::with_capacity(my_constraints.len());
                let mut ok = true;
                for &&(_, rel, w) in &my_constraints {
                    let (wx_lo, wx_hi, wy_lo, wy_hi) = var_box(w);
                    let t = Tile::from_bands(
                        interval_band(cell_x, wx_lo, wx_hi),
                        interval_band(cell_y, wy_lo, wy_hi),
                    );
                    if !rel.contains(t) {
                        ok = false;
                        break;
                    }
                    tiles.push(t);
                }
                if ok {
                    allowed.push(CellInfo {
                        x: cell_x,
                        y: cell_y,
                        tiles,
                    });
                }
            }
        }
        if allowed.is_empty() {
            return None;
        }

        // Coverage: every required tile of every constraint…
        for (k, &&(_, rel, _)) in my_constraints.iter().enumerate() {
            for t in rel.tiles() {
                if !allowed.iter().any(|c| c.tiles[k] == t) {
                    return None;
                }
            }
        }
        // …and all four sides of the variable's own box.
        let touches = |f: &dyn Fn(&CellInfo) -> bool| allowed.iter().any(f);
        if !(touches(&|c| c.x.0 == x_lo)
            && touches(&|c| c.x.1 == x_hi)
            && touches(&|c| c.y.0 == y_lo)
            && touches(&|c| c.y.1 == y_hi))
        {
            return None;
        }

        let polygons: Vec<Polygon> = allowed
            .iter()
            .map(|c| {
                Polygon::new([
                    Point::new(c.x.0 as f64, c.y.1 as f64),
                    Point::new(c.x.1 as f64, c.y.1 as f64),
                    Point::new(c.x.1 as f64, c.y.0 as f64),
                    Point::new(c.x.0 as f64, c.y.0 as f64),
                ])
                .expect("cells are non-degenerate rectangles")
            })
            .collect();
        regions.push(Region::new(polygons).expect("allowed cells are non-empty"));
    }
    Some(regions)
}

/// Band of an integer interval relative to a span. The interval never
/// straddles the span's endpoints (they are breakpoints), so the doubled
/// midpoint comparison is exact.
fn interval_band(cell: (i64, i64), lo: i64, hi: i64) -> Band {
    let mid2 = cell.0 + cell.1;
    if mid2 < 2 * lo {
        Band::Lower
    } else if mid2 > 2 * hi {
        Band::Upper
    } else {
        Band::Middle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_bands() {
        assert_eq!(interval_band((0, 1), 2, 4), Band::Lower);
        assert_eq!(interval_band((2, 3), 2, 4), Band::Middle);
        assert_eq!(interval_band((5, 7), 2, 4), Band::Upper);
        // Touching intervals stay outside.
        assert_eq!(interval_band((0, 2), 2, 4), Band::Lower);
        assert_eq!(interval_band((4, 6), 2, 4), Band::Upper);
    }

    #[test]
    fn unconstrained_variable_gets_its_full_box() {
        let values = [0, 2, 0, 2];
        let regions = realize(&values, 1, &[]).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].area(), 4.0);
    }

    #[test]
    fn simple_south_constraint() {
        // a = [0,1]×[0,1], b = [0,1]×[2,3]: a S b realisable.
        let values = [0, 1, 0, 1, 0, 1, 2, 3];
        let constraint = [(0usize, "S".parse::<CardinalRelation>().unwrap(), 1usize)];
        let regions = realize(&values, 2, &constraint).unwrap();
        assert_eq!(
            cardir_core::compute_cdr(&regions[0], &regions[1]),
            "S".parse().unwrap()
        );
    }

    #[test]
    fn impossible_occupancy_returns_none() {
        // a's box sits strictly inside b's box but the constraint demands
        // a NW b: no cell of a can be north-west of b.
        let values = [1, 2, 1, 2, 0, 3, 0, 3];
        let constraint = [(0usize, "NW".parse::<CardinalRelation>().unwrap(), 1usize)];
        assert!(realize(&values, 2, &constraint).is_none());
    }

    #[test]
    fn multi_tile_occupancy_carves_cells() {
        // a's box equals b's box inflated by 1 on every side; relation
        // demanding the full ring without B forces a to avoid the centre.
        let values = [0, 4, 0, 4, 1, 3, 1, 3];
        let ring: CardinalRelation = "S:SW:W:NW:N:NE:E:SE".parse().unwrap();
        let constraint = [(0usize, ring, 1usize)];
        let regions = realize(&values, 2, &constraint).unwrap();
        assert_eq!(cardir_core::compute_cdr(&regions[0], &regions[1]), ring);
        // The centre cell was excluded.
        assert!(!regions[0].contains(Point::new(2.0, 2.0)));
    }
}
