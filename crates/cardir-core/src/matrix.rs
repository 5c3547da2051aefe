//! Direction-relation matrices, with and without percentages
//! (Goyal–Egenhofer representation, Section 2 of the paper).

use crate::relation::CardinalRelation;
use crate::tile::{Tile, ALL_TILES};
use std::fmt;

/// A 3×3 boolean direction-relation matrix.
///
/// Row 0 is the north row, so the layout matches the matrices printed in
/// the paper: `[NW N NE / W B E / SW S SE]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectionMatrix {
    cells: [[bool; 3]; 3],
}

impl DirectionMatrix {
    /// The matrix for a relation: `■` exactly at the relation's tiles.
    pub fn from_relation(r: CardinalRelation) -> Self {
        let mut cells = [[false; 3]; 3];
        for t in r.tiles() {
            let (row, col) = t.matrix_position();
            cells[row][col] = true;
        }
        DirectionMatrix { cells }
    }

    /// The relation whose tiles are the `■` cells; `None` if all cells are
    /// empty (not a valid relation).
    pub fn relation(&self) -> Option<CardinalRelation> {
        CardinalRelation::from_tiles(ALL_TILES.into_iter().filter(|t| self.get(*t)))
    }

    /// Cell lookup by tile.
    pub fn get(&self, t: Tile) -> bool {
        let (row, col) = t.matrix_position();
        self.cells[row][col]
    }

    /// Raw rows, north row first.
    pub fn rows(&self) -> &[[bool; 3]; 3] {
        &self.cells
    }
}

impl From<CardinalRelation> for DirectionMatrix {
    fn from(r: CardinalRelation) -> Self {
        DirectionMatrix::from_relation(r)
    }
}

impl fmt::Display for DirectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, row) in self.cells.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            for cell in row {
                write!(f, "{}", if *cell { '■' } else { '□' })?;
            }
        }
        Ok(())
    }
}

/// The areas of the primary region falling in each tile of the reference
/// region, indexed by canonical tile index. The raw quantity behind a
/// [`PercentageMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileAreas {
    areas: [f64; 9],
}

impl TileAreas {
    /// Builds from per-tile areas in canonical tile order.
    pub fn new(areas: [f64; 9]) -> Self {
        TileAreas { areas }
    }

    /// Area in one tile.
    #[inline]
    pub fn get(&self, t: Tile) -> f64 {
        self.areas[t.index()]
    }

    /// Mutable access (used by the accumulation algorithms).
    #[inline]
    pub fn get_mut(&mut self, t: Tile) -> &mut f64 {
        &mut self.areas[t.index()]
    }

    /// Total area over all tiles (the primary region's area).
    pub fn total(&self) -> f64 {
        self.areas.iter().sum()
    }

    /// The tiles holding more than `eps` area, as a qualitative relation.
    ///
    /// `eps` is an absolute area threshold; callers typically pass a value
    /// scaled to the primary region's area.
    pub fn relation(&self, eps: f64) -> Option<CardinalRelation> {
        CardinalRelation::from_tiles(ALL_TILES.into_iter().filter(|t| self.get(*t) > eps))
    }

    /// Converts to percentages of the total area.
    pub fn percentages(&self) -> PercentageMatrix {
        PercentageMatrix::from_areas(*self)
    }

    /// Raw areas in canonical tile order.
    pub fn as_array(&self) -> [f64; 9] {
        self.areas
    }
}

/// A 3×3 cardinal direction matrix *with percentages* (Section 2): cell
/// `(dir)` holds `100 % · area(dir(b) ∩ a) / area(a)`.
///
/// Invariants maintained by construction: every cell is non-negative and
/// the cells sum to 100 (up to round-off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentageMatrix {
    cells: [[f64; 3]; 3],
}

impl PercentageMatrix {
    /// Builds the percentage matrix from per-tile areas.
    pub fn from_areas(areas: TileAreas) -> Self {
        let total = areas.total();
        let mut cells = [[0.0; 3]; 3];
        if total > 0.0 {
            for t in ALL_TILES {
                let (row, col) = t.matrix_position();
                // The grouping matters: dividing first makes a tile holding
                // the whole area come out as exactly 100.0 (x/x == 1.0 in
                // IEEE arithmetic), which single-tile fast paths rely on to
                // stay bit-identical with the full accumulation.
                cells[row][col] = 100.0 * (areas.get(t) / total);
            }
        }
        PercentageMatrix { cells }
    }

    /// The matrix with 100% in a single tile: what a pair whose relation
    /// is box-decided must report without running the area accumulation.
    ///
    /// Bit-identical to accumulating the primary's whole area into `tile`
    /// and converting: [`from_areas`](Self::from_areas) divides before
    /// scaling, so any positive stand-in area yields exactly `100.0`.
    pub fn single_tile(tile: Tile) -> Self {
        let mut areas = TileAreas::default();
        *areas.get_mut(tile) = 1.0;
        PercentageMatrix::from_areas(areas)
    }

    /// Rebuilds a matrix from raw rows (north row first), bit-for-bit.
    ///
    /// This is the deserialization counterpart of [`rows`](Self::rows):
    /// persistence layers (the relation journal) store the nine `f64`
    /// cells verbatim and must round-trip them exactly, so no
    /// re-normalisation happens here — the caller is trusted to pass rows
    /// that came out of a real `PercentageMatrix`.
    pub fn from_rows(cells: [[f64; 3]; 3]) -> Self {
        PercentageMatrix { cells }
    }

    /// Percentage for one tile.
    pub fn get(&self, t: Tile) -> f64 {
        let (row, col) = t.matrix_position();
        self.cells[row][col]
    }

    /// Raw rows, north row first.
    pub fn rows(&self) -> &[[f64; 3]; 3] {
        &self.cells
    }

    /// Sum over all cells (≈ 100).
    pub fn sum(&self) -> f64 {
        self.cells.iter().flatten().sum()
    }

    /// The qualitative relation of all tiles holding more than
    /// `eps_percent` of the region.
    pub fn relation(&self, eps_percent: f64) -> Option<CardinalRelation> {
        CardinalRelation::from_tiles(ALL_TILES.into_iter().filter(|t| self.get(*t) > eps_percent))
    }

    /// Compares two matrices cell-wise within `eps` percentage points.
    pub fn approx_eq(&self, other: &PercentageMatrix, eps: f64) -> bool {
        ALL_TILES
            .into_iter()
            .all(|t| (self.get(t) - other.get(t)).abs() <= eps)
    }
}

impl fmt::Display for PercentageMatrix {
    /// Prints like the paper's percentage matrices, e.g. `0% 0% 50%` rows.
    ///
    /// Cells are rounded with largest-remainder apportionment at the
    /// requested precision, so the printed values always sum to the
    /// rounded total (100 for any non-empty matrix). Rounding each cell
    /// independently can drift — a 3-way 1/3 split prints `33% 33% 33%`
    /// (99) — so the quota lost to flooring is handed back one display
    /// quantum at a time to the cells with the largest remainders,
    /// row-major on ties.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(0);
        // Beyond ~12 fractional digits the quanta outrun f64 percentage
        // resolution; apportion at 12 digits and zero-pad the rest.
        let digits = prec.min(12);
        let scale = 10f64.powi(digits as i32);
        let base = 10i64.pow(digits as u32);
        let mut quanta = [[0i64; 3]; 3];
        let mut remainders = [[0f64; 3]; 3];
        let mut floor_sum = 0i64;
        for (qrow, (rrow, row)) in quanta
            .iter_mut()
            .zip(remainders.iter_mut().zip(&self.cells))
        {
            for (q, (r, cell)) in qrow.iter_mut().zip(rrow.iter_mut().zip(row)) {
                let scaled = cell * scale;
                let floor = scaled.floor();
                *q = floor as i64;
                *r = scaled - floor;
                floor_sum += floor as i64;
            }
        }
        // Distribute the quota the floors lost (at most one quantum per
        // cell). The two sums can disagree by a final ulp in either
        // direction, so correct downwards too, taking from the smallest
        // remainders without driving any cell negative.
        let target = (self.sum() * scale).round() as i64;
        let mut deficit = target - floor_sum;
        while deficit > 0 {
            let mut pick = (0, 0);
            for r in 0..3 {
                for c in 0..3 {
                    if remainders[r][c] > remainders[pick.0][pick.1] {
                        pick = (r, c);
                    }
                }
            }
            quanta[pick.0][pick.1] += 1;
            remainders[pick.0][pick.1] = f64::NEG_INFINITY;
            deficit -= 1;
        }
        while deficit < 0 {
            let mut pick: Option<(usize, usize)> = None;
            for r in 0..3 {
                for c in 0..3 {
                    let better = match pick {
                        None => true,
                        Some((pr, pc)) => remainders[r][c] < remainders[pr][pc],
                    };
                    if quanta[r][c] > 0 && better {
                        pick = Some((r, c));
                    }
                }
            }
            match pick {
                Some((r, c)) => {
                    quanta[r][c] -= 1;
                    remainders[r][c] = f64::INFINITY;
                    deficit += 1;
                }
                None => break,
            }
        }
        for (i, row) in quanta.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            for (j, q) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, " ")?;
                }
                // Integer quanta formatted directly: no float re-rounding.
                write!(f, "{}", q / base)?;
                if prec > 0 {
                    write!(f, ".{:0digits$}", q % base)?;
                    for _ in digits..prec {
                        write!(f, "0")?;
                    }
                }
                write!(f, "%")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_matrix_matches_paper_pictures() {
        // Paper Section 2: matrix for S has a single ■ in the middle of the
        // south row.
        let s: CardinalRelation = "S".parse().unwrap();
        let m = DirectionMatrix::from_relation(s);
        assert_eq!(
            m.rows(),
            &[
                [false, false, false],
                [false, false, false],
                [false, true, false]
            ]
        );
        assert_eq!(m.to_string(), "□□□\n□□□\n□■□");

        // NE:E — ■ at north-east and east.
        let ne_e: CardinalRelation = "NE:E".parse().unwrap();
        let m = DirectionMatrix::from_relation(ne_e);
        assert_eq!(m.to_string(), "□□■\n□□■\n□□□");

        // B:S:SW:W:NW:N:E:SE — everything except NE.
        let big: CardinalRelation = "B:S:SW:W:NW:N:E:SE".parse().unwrap();
        let m = DirectionMatrix::from_relation(big);
        assert_eq!(m.to_string(), "■■□\n■■■\n■■■");
    }

    #[test]
    fn direction_matrix_round_trips() {
        for r in CardinalRelation::all() {
            assert_eq!(DirectionMatrix::from_relation(r).relation(), Some(r));
        }
    }

    #[test]
    fn tile_areas_accessors() {
        let mut a = TileAreas::default();
        *a.get_mut(Tile::NE) = 3.0;
        *a.get_mut(Tile::E) = 1.0;
        assert_eq!(a.get(Tile::NE), 3.0);
        assert_eq!(a.total(), 4.0);
        assert_eq!(a.relation(0.0).unwrap().to_string(), "NE:E");
    }

    #[test]
    fn percentage_matrix_from_areas() {
        let mut a = TileAreas::default();
        *a.get_mut(Tile::NE) = 2.0;
        *a.get_mut(Tile::E) = 2.0;
        let p = a.percentages();
        assert_eq!(p.get(Tile::NE), 50.0);
        assert_eq!(p.get(Tile::E), 50.0);
        assert_eq!(p.get(Tile::B), 0.0);
        assert!((p.sum() - 100.0).abs() < 1e-12);
        // Matches the paper's printed matrix for Fig. 1c:
        //   0% 0% 50% / 0% 0% 50% / 0% 0% 0%
        assert_eq!(p.to_string(), "0% 0% 50%\n0% 0% 50%\n0% 0% 0%");
        assert_eq!(p.relation(0.0).unwrap().to_string(), "NE:E");
    }

    #[test]
    fn percentage_matrix_precision_formatting() {
        let mut a = TileAreas::default();
        *a.get_mut(Tile::N) = 1.0;
        *a.get_mut(Tile::B) = 2.0;
        let p = a.percentages();
        assert_eq!(
            format!("{p:.1}"),
            "0.0% 33.3% 0.0%\n0.0% 66.7% 0.0%\n0.0% 0.0% 0.0%"
        );
    }

    /// Regression: a 3-way 1/3 split used to print `33% 33% 33%` (sums to
    /// 99). Largest-remainder apportionment must hand the lost percent to
    /// one cell so every printed matrix totals 100%.
    #[test]
    fn percentage_matrix_display_totals_100_on_third_splits() {
        let mut a = TileAreas::default();
        *a.get_mut(Tile::N) = 1.0;
        *a.get_mut(Tile::B) = 1.0;
        *a.get_mut(Tile::S) = 1.0;
        let p = a.percentages();
        // All three remainders tie at .333…; row-major order gives the
        // extra percent to N (row 0).
        assert_eq!(p.to_string(), "0% 34% 0%\n0% 33% 0%\n0% 33% 0%");
        assert_eq!(
            format!("{p:.2}"),
            "0.00% 33.34% 0.00%\n0.00% 33.33% 0.00%\n0.00% 33.33% 0.00%"
        );
        // The printed cells sum to exactly 100 at any precision.
        for rendered in [p.to_string(), format!("{p:.1}"), format!("{p:.3}")] {
            let sum: f64 = rendered
                .split_whitespace()
                .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() < 1e-9, "{rendered} sums to {sum}");
        }
    }

    #[test]
    fn percentage_matrix_display_zero_matrix_stays_zero() {
        // An empty matrix (total area 0) must not have 100% apportioned
        // into it: the target is the rounded total, which is 0.
        let p = TileAreas::default().percentages();
        assert_eq!(p.to_string(), "0% 0% 0%\n0% 0% 0%\n0% 0% 0%");
        assert_eq!(
            format!("{p:.1}"),
            "0.0% 0.0% 0.0%\n0.0% 0.0% 0.0%\n0.0% 0.0% 0.0%"
        );
    }

    #[test]
    fn percentage_matrix_display_seven_way_split() {
        // 100/7 = 14.2857…: floors lose 6 quanta at precision 0, which
        // must flow back to the six largest remainders.
        let mut a = TileAreas::default();
        for t in [
            Tile::B,
            Tile::N,
            Tile::S,
            Tile::E,
            Tile::W,
            Tile::NE,
            Tile::SW,
        ] {
            *a.get_mut(t) = 1.0;
        }
        let p = a.percentages();
        let rendered = p.to_string();
        let cells: Vec<i64> = rendered
            .split_whitespace()
            .map(|c| c.trim_end_matches('%').parse::<i64>().unwrap())
            .collect();
        assert_eq!(cells.iter().sum::<i64>(), 100, "{rendered}");
        assert_eq!(cells.iter().filter(|&&c| c == 15).count(), 2, "{rendered}");
        assert_eq!(cells.iter().filter(|&&c| c == 14).count(), 5, "{rendered}");
    }

    #[test]
    fn single_tile_is_bit_identical_to_accumulated_areas() {
        for t in ALL_TILES {
            let fast = PercentageMatrix::single_tile(t);
            // Any positive area accumulated entirely into one tile must
            // convert to the same matrix, bit for bit — this is what lets
            // box-decided pairs skip the accumulation entirely.
            for area in [1.0, 0.125, 3.7e11, 6.626e-34] {
                let mut a = TileAreas::default();
                *a.get_mut(t) = area;
                assert_eq!(fast, a.percentages(), "tile {t:?}, area {area}");
            }
            assert_eq!(fast.get(t), 100.0);
            assert_eq!(fast.sum(), 100.0);
        }
    }

    #[test]
    fn from_rows_round_trips_bit_for_bit() {
        let mut areas = TileAreas::default();
        *areas.get_mut(Tile::N) = 1.0 / 3.0;
        *areas.get_mut(Tile::B) = 0.1; // not representable: exercises real bits
        *areas.get_mut(Tile::SW) = 6.626e-34;
        let original = areas.percentages();
        let rebuilt = PercentageMatrix::from_rows(*original.rows());
        assert_eq!(original, rebuilt);
        for t in ALL_TILES {
            assert_eq!(
                original.get(t).to_bits(),
                rebuilt.get(t).to_bits(),
                "tile {t:?}"
            );
        }
    }

    #[test]
    fn approx_eq_tolerance() {
        let mut a = TileAreas::default();
        *a.get_mut(Tile::B) = 1.0;
        let p = a.percentages();
        let mut b = TileAreas::default();
        *b.get_mut(Tile::B) = 1.0;
        *b.get_mut(Tile::N) = 1e-9;
        let q = b.percentages();
        assert!(p.approx_eq(&q, 1e-5));
        assert!(!p.approx_eq(&q, 1e-9));
    }
}
