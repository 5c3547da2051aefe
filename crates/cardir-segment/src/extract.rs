//! Polygonal region extraction from cell sets.
//!
//! A label's cells become a `REG*` region by decomposing them into
//! maximal row runs merged into rectangles: per row, consecutive cells
//! form a run; vertically stacked runs with identical column spans merge
//! into one rectangle. The result is a set of axis-aligned rectangles
//! with pairwise disjoint interiors that tile the cells exactly — a valid
//! `REG*` representation whose area equals the cell count, holes and
//! disconnections included (the paper's Fig. 2 decomposes regions with
//! holes the same way).

use crate::components::Component;
use crate::raster::Raster;
use cardir_geometry::{Point, Polygon, Region};

/// Builds a region from a set of cells (each `(col, row)` covering the
/// unit square `[col, col+1] × [row, row+1]`). Returns `None` for an
/// empty set.
pub fn region_from_cells(cells: &[(usize, usize)]) -> Option<Region> {
    if cells.is_empty() {
        return None;
    }
    // Runs per row: (row, c_start, c_end_inclusive).
    let mut sorted: Vec<(usize, usize)> = cells.to_vec();
    sorted.sort_unstable_by_key(|&(c, r)| (r, c));
    sorted.dedup();
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    for &(c, r) in &sorted {
        match runs.last_mut() {
            Some((row, _, end)) if *row == r && *end + 1 == c => *end = c,
            _ => runs.push((r, c, c)),
        }
    }

    // Merge identical-span runs across consecutive rows.
    // open: (c_start, c_end, row_start, row_end)
    let mut open: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut rects: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < runs.len() {
        let row = runs[i].0;
        let mut row_runs: Vec<(usize, usize)> = Vec::new();
        while i < runs.len() && runs[i].0 == row {
            row_runs.push((runs[i].1, runs[i].2));
            i += 1;
        }
        let mut next_open: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &(c0, c1) in &row_runs {
            if let Some(pos) = open
                .iter()
                .position(|&(oc0, oc1, _, row_end)| oc0 == c0 && oc1 == c1 && row_end + 1 == row)
            {
                let (oc0, oc1, row_start, _) = open.remove(pos);
                next_open.push((oc0, oc1, row_start, row));
            } else {
                next_open.push((c0, c1, row, row));
            }
        }
        rects.append(&mut open);
        open = next_open;
    }
    rects.extend(open);

    let polygons: Vec<Polygon> = rects
        .into_iter()
        .map(|(c0, c1, r0, r1)| {
            let (x0, x1) = (c0 as f64, (c1 + 1) as f64);
            let (y0, y1) = (r0 as f64, (r1 + 1) as f64);
            Polygon::new([
                Point::new(x0, y1),
                Point::new(x1, y1),
                Point::new(x1, y0),
                Point::new(x0, y0),
            ])
            .expect("cell rectangles are non-degenerate")
        })
        .collect();
    Some(Region::new(polygons).expect("non-empty cell set"))
}

impl Raster {
    /// Extracts all cells of `label` as one (possibly disconnected)
    /// region, or `None` when the label is absent.
    pub fn extract_region(&self, label: u32) -> Option<Region> {
        region_from_cells(&self.cells_of(label))
    }

    /// Extracts a single connected component as a region.
    pub fn extract_component_region(&self, component: &Component) -> Region {
        region_from_cells(&component.cells).expect("components are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::compute_cdr;

    #[test]
    fn single_cell() {
        let region = region_from_cells(&[(2, 3)]).unwrap();
        assert_eq!(region.polygon_count(), 1);
        assert_eq!(region.area(), 1.0);
        let bb = region.mbb();
        assert_eq!(bb.min, Point::new(2.0, 3.0));
        assert_eq!(bb.max, Point::new(3.0, 4.0));
    }

    #[test]
    fn rectangle_merges_into_one_polygon() {
        let cells: Vec<(usize, usize)> = (0..3).flat_map(|r| (1..4).map(move |c| (c, r))).collect();
        let region = region_from_cells(&cells).unwrap();
        assert_eq!(region.polygon_count(), 1);
        assert_eq!(region.area(), 9.0);
    }

    #[test]
    fn l_shape_decomposes_minimally() {
        // ██.
        // ███   (rows flipped: text ASCII bottom row is row 0 here)
        let cells = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)];
        let region = region_from_cells(&cells).unwrap();
        assert_eq!(region.area(), 5.0);
        assert!(region.polygon_count() <= 2);
    }

    #[test]
    fn area_always_equals_cell_count() {
        let r = Raster::from_text(
            "3.33.
             33.3.
             .333.",
        )
        .unwrap();
        let region = r.extract_region(3).unwrap();
        assert_eq!(region.area(), r.count(3) as f64);
        assert!(r.extract_region(9).is_none());
    }

    #[test]
    fn ring_label_produces_region_with_hole() {
        let r = Raster::from_text(
            "11111
             1...1
             1.2.1
             1...1
             11111",
        )
        .unwrap();
        let ring = r.extract_region(1).unwrap();
        assert_eq!(ring.area(), 16.0);
        // The hole (and the label-2 island) are excluded.
        assert!(!ring.contains(Point::new(2.5, 2.5)));
        assert!(ring.contains(Point::new(0.5, 0.5)));
        // The island sits in the B tile of the ring — the configuration
        // the paper's REG* model exists for.
        let island = r.extract_region(2).unwrap();
        assert_eq!(compute_cdr(&island, &ring).to_string(), "B");
        // …and the ring occupies all eight peripheral tiles of the island.
        assert_eq!(
            compute_cdr(&ring, &island).to_string(),
            "S:SW:W:NW:N:NE:E:SE"
        );
    }

    #[test]
    fn segmented_relations_match_geometry() {
        let r = Raster::from_text(
            ".....2
             .1....
             .1....",
        )
        .unwrap();
        let one = r.extract_region(1).unwrap();
        let two = r.extract_region(2).unwrap();
        let rel = compute_cdr(&two, &one);
        // Label 2 sits strictly north-east of label 1's box.
        assert_eq!(rel.to_string(), "NE");
    }

    #[test]
    fn disconnected_label_is_one_region() {
        let r = Raster::from_text("4.4").unwrap();
        let region = r.extract_region(4).unwrap();
        assert_eq!(region.polygon_count(), 2);
        assert_eq!(region.area(), 2.0);
    }
}
