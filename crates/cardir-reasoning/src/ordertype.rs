//! Canonical order-type enumeration for two regions.
//!
//! The cardinal direction relation between `a` and `b` — in *both*
//! directions — is fully determined by two finite pieces of data per axis:
//!
//! 1. the **order type** of the four mbb endpoints
//!    `(inf(a), sup(a), inf(b), sup(b))`, and
//! 2. which **cells** of the grid the regions occupy: the lines of the
//!    other region's mbb cut each region's own mbb into at most 3 × 3
//!    cells, and a region can occupy any non-empty subset of its cells
//!    that touches all four sides of its mbb (this is where `REG*`'s
//!    disconnected regions matter — every such subset is realisable by a
//!    union of cell rectangles).
//!
//! Enumerating (1) over a four-value coordinate domain covers every weak
//! order of four endpoints, and (2) is a subset enumeration over ≤ 9
//! cells, so quantities like the inverse relation and the realizable-pair
//! table can be computed *exactly* by exhaustion. This module provides the
//! per-axis enumeration; [`crate::pairs`] combines two axes.

use cardir_geometry::Band;

/// One cell interval of a region's mbb on one axis, as cut by the other
/// region's mbb lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisCell {
    /// Position of the interval relative to the other region's span.
    pub band: Band,
    /// The interval starts at the region's own `inf` (touches the low side
    /// of its mbb).
    pub touches_low: bool,
    /// The interval ends at the region's own `sup`.
    pub touches_high: bool,
}

/// The per-axis structure of a two-region configuration: the cells of `a`
/// (relative to `b`'s span) and of `b` (relative to `a`'s span).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AxisConfig {
    /// Cells of region `a`, in increasing coordinate order (1–3 entries).
    pub a_cells: Vec<AxisCell>,
    /// Cells of region `b`, in increasing coordinate order (1–3 entries).
    pub b_cells: Vec<AxisCell>,
}

/// Cuts the span `[lo, hi]` by the other span's endpoints, classifying
/// each resulting interval into a band relative to `[other_lo, other_hi]`.
fn cells_of(lo: i8, hi: i8, other_lo: i8, other_hi: i8) -> Vec<AxisCell> {
    debug_assert!(lo < hi && other_lo < other_hi);
    let mut cuts = vec![lo];
    for c in [other_lo, other_hi] {
        if lo < c && c < hi {
            cuts.push(c);
        }
    }
    cuts.push(hi);
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|w| {
            let (s, e) = (w[0], w[1]);
            // Interval midpoint in halves; endpoints are integers so the
            // comparison below is exact.
            let mid2 = s + e; // 2 × midpoint
            let band = if mid2 < 2 * other_lo {
                Band::Lower
            } else if mid2 > 2 * other_hi {
                Band::Upper
            } else {
                Band::Middle
            };
            AxisCell {
                band,
                touches_low: s == lo,
                touches_high: e == hi,
            }
        })
        .collect()
}

/// Enumerates every distinct per-axis configuration of two spans.
///
/// Coordinates range over `{0, 1, 2, 3}` — four values suffice to realise
/// every weak order of four endpoints — and structurally identical
/// configurations are deduplicated.
pub fn enumerate_axis_configs() -> Vec<AxisConfig> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for a_lo in 0i8..4 {
        for a_hi in (a_lo + 1)..4 {
            for b_lo in 0i8..4 {
                for b_hi in (b_lo + 1)..4 {
                    let cfg = AxisConfig {
                        a_cells: cells_of(a_lo, a_hi, b_lo, b_hi),
                        b_cells: cells_of(b_lo, b_hi, a_lo, a_hi),
                    };
                    if seen.insert(cfg.clone()) {
                        out.push(cfg);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_of_disjoint_spans() {
        // a = [0,1] entirely west of b = [2,3]: one cell, Lower band.
        let cells = cells_of(0, 1, 2, 3);
        assert_eq!(
            cells,
            vec![AxisCell {
                band: Band::Lower,
                touches_low: true,
                touches_high: true
            }]
        );
    }

    #[test]
    fn cells_of_contained_span() {
        // a = [1,2] inside b = [0,3]: one Middle cell.
        let cells = cells_of(1, 2, 0, 3);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].band, Band::Middle);
        // b = [0,3] around a = [1,2]: three cells Lower/Middle/Upper
        // relative to a.
        let cells = cells_of(0, 3, 1, 2);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].band, Band::Lower);
        assert!(cells[0].touches_low && !cells[0].touches_high);
        assert_eq!(cells[1].band, Band::Middle);
        assert!(!cells[1].touches_low && !cells[1].touches_high);
        assert_eq!(cells[2].band, Band::Upper);
        assert!(cells[2].touches_high);
    }

    #[test]
    fn cells_of_overlapping_spans() {
        // a = [0,2], b = [1,3]: a has Lower + Middle cells.
        let cells = cells_of(0, 2, 1, 3);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].band, Band::Lower);
        assert_eq!(cells[1].band, Band::Middle);
    }

    #[test]
    fn touching_spans_share_no_interior() {
        // a = [0,1], b = [1,2]: a's single cell is Lower (it ends exactly
        // at b's inf; the midpoint comparison keeps it west).
        let cells = cells_of(0, 1, 1, 2);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].band, Band::Lower);
    }

    #[test]
    fn equal_spans() {
        let cells = cells_of(0, 3, 0, 3);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].band, Band::Middle);
        assert!(cells[0].touches_low && cells[0].touches_high);
    }

    #[test]
    fn enumeration_is_deduplicated_and_covers_known_cases() {
        let configs = enumerate_axis_configs();
        // Every configuration has 1–3 cells per region and consistent side
        // flags.
        for cfg in &configs {
            for cells in [&cfg.a_cells, &cfg.b_cells] {
                assert!((1..=3).contains(&cells.len()));
                assert!(cells.first().unwrap().touches_low);
                assert!(cells.last().unwrap().touches_high);
            }
        }
        // Band signatures collapse Allen's 13 interval relations to 11:
        // *before* and *meets* are indistinguishable for cardinal
        // directions (the tiles are closed, so touching and disjoint spans
        // produce the same single Lower cell), and symmetrically *after* /
        // *met-by*. All 11 must be present, exactly.
        use std::collections::HashSet;
        let sigs: HashSet<(Vec<Band>, Vec<Band>)> = configs
            .iter()
            .map(|c| {
                (
                    c.a_cells.iter().map(|x| x.band).collect(),
                    c.b_cells.iter().map(|x| x.band).collect(),
                )
            })
            .collect();
        assert_eq!(sigs.len(), 11, "{sigs:?}");
        assert!(configs.len() >= sigs.len());
    }
}
