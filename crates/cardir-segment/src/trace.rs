//! Boundary tracing: minimal-vertex rectilinear polygons from cell sets.
//!
//! The run-rectangle decomposition of [`crate::region_from_cells`] is
//! robust but verbose (one rectangle per merged run). This module traces
//! the actual cell-set boundary instead, producing one polygon per closed
//! boundary loop with collinear vertices removed — the representation a
//! segmentation tool would export.
//!
//! Orientation follows the crate convention: loops are traced with the
//! cell interior to the **right**, so outer boundaries come out clockwise
//! and hole boundaries counter-clockwise. Because `REG*` regions are
//! plain unions of simple polygons (holes are modelled by decomposition,
//! not by orientation), [`Raster::extract_region_traced`] uses traced
//! outer loops for hole-free components and falls back to the rectangle
//! decomposition for components with holes.

use crate::components::{Component, Connectivity};
use crate::extract::region_from_cells;
use crate::raster::Raster;
use cardir_geometry::{Point, Polygon, Region};
use std::collections::{HashMap, HashSet};

/// One traced boundary loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryLoop {
    /// The loop vertices with collinear runs removed (not closed: the
    /// last vertex connects back to the first).
    pub vertices: Vec<Point>,
    /// `true` for hole boundaries (counter-clockwise loops).
    pub is_hole: bool,
}

/// Traces every boundary loop of a cell set.
pub fn trace_boundaries(cells: &[(usize, usize)]) -> Vec<BoundaryLoop> {
    let set: HashSet<(usize, usize)> = cells.iter().copied().collect();
    if set.is_empty() {
        return Vec::new();
    }
    // Directed boundary edges on the unit grid, interior to the right.
    // Grid vertices are (x, y) with x, y ≤ max+1; store edges by start
    // vertex. A vertex can have up to two outgoing edges (saddle).
    let mut outgoing: HashMap<(i64, i64), Vec<(i64, i64)>> = HashMap::new();
    let mut push = |from: (i64, i64), to: (i64, i64)| {
        outgoing.entry(from).or_default().push(to);
    };
    for &(c, r) in &set {
        let (x, y) = (c as i64, r as i64);
        let has = |dc: i64, dr: i64| {
            let cc = x + dc;
            let rr = y + dr;
            cc >= 0 && rr >= 0 && set.contains(&(cc as usize, rr as usize))
        };
        if !has(0, -1) {
            push((x + 1, y), (x, y)); // south side, heading west
        }
        if !has(0, 1) {
            push((x, y + 1), (x + 1, y + 1)); // north side, heading east
        }
        if !has(-1, 0) {
            push((x, y), (x, y + 1)); // west side, heading north
        }
        if !has(1, 0) {
            push((x + 1, y + 1), (x + 1, y)); // east side, heading south
        }
    }

    let mut loops = Vec::new();
    // Each walk starts at a vertex with one outgoing edge: at a saddle
    // there is no incoming direction yet to pick the turn by. One exists
    // while any edge remains, because the lowest vertex still on an edge
    // cannot be a saddle (a saddle keeps all four of its edges, one of
    // them leading lower).
    while let Some((&start, _)) = outgoing.iter().find(|(_, v)| v.len() == 1) {
        // Follow edges into a closed walk. The walk may revisit saddle
        // vertices (pinch points), so it is split into vertex-simple
        // cycles afterwards.
        let mut walk: Vec<(i64, i64)> = vec![start];
        let mut current = start;
        let mut incoming_dir: Option<(i64, i64)> = None;
        loop {
            let nexts = outgoing
                .get_mut(&current)
                .expect("boundary edges form loops");
            // At saddle vertices prefer the rightmost turn relative to the
            // incoming direction, keeping distinct loops from merging.
            let pick = if nexts.len() == 1 {
                0
            } else {
                let dir = incoming_dir.expect("saddles are never loop starts with len>1");
                nexts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &to)| {
                        let out_dir = (to.0 - current.0, to.1 - current.1);
                        // Right turn ranks highest: cross(incoming, out) < 0.
                        let cross = dir.0 * out_dir.1 - dir.1 * out_dir.0;
                        -cross
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty")
            };
            let next = nexts.swap_remove(pick);
            incoming_dir = Some((next.0 - current.0, next.1 - current.1));
            if next == start {
                break;
            }
            walk.push(next);
            current = next;
        }
        for cycle in split_simple_cycles(walk) {
            loops.push(finish_loop(cycle));
        }
    }
    loops
}

/// Splits a closed walk (implicitly closing back to its first vertex)
/// into vertex-simple cycles: whenever a vertex repeats, the sub-walk
/// between the occurrences is extracted as its own cycle.
fn split_simple_cycles(walk: Vec<(i64, i64)>) -> Vec<Vec<(i64, i64)>> {
    let mut cycles = Vec::new();
    let mut stack: Vec<(i64, i64)> = Vec::new();
    let mut position: HashMap<(i64, i64), usize> = HashMap::new();
    for v in walk {
        if let Some(&i) = position.get(&v) {
            let cycle: Vec<(i64, i64)> = stack.drain(i..).collect();
            for u in &cycle {
                position.remove(u);
            }
            cycles.push(cycle);
            position.insert(v, stack.len());
            stack.push(v);
        } else {
            position.insert(v, stack.len());
            stack.push(v);
        }
    }
    if stack.len() >= 4 {
        cycles.push(stack);
    }
    cycles
}

/// Collinear cleanup and hole classification of one simple cycle.
fn finish_loop(vertices: Vec<(i64, i64)>) -> BoundaryLoop {
    let n = vertices.len();
    let mut cleaned: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let prev = vertices[(i + n - 1) % n];
        let cur = vertices[i];
        let next = vertices[(i + 1) % n];
        let straight = (prev.0 == cur.0 && cur.0 == next.0) || (prev.1 == cur.1 && cur.1 == next.1);
        if !straight {
            cleaned.push(Point::new(cur.0 as f64, cur.1 as f64));
        }
    }
    // Orientation: shoelace > 0 ⇒ counter-clockwise ⇒ hole (interior of
    // the region lies outside this loop).
    let mut shoelace = 0.0;
    for i in 0..cleaned.len() {
        let p = cleaned[i];
        let q = cleaned[(i + 1) % cleaned.len()];
        shoelace += p.x * q.y - p.y * q.x;
    }
    BoundaryLoop {
        vertices: cleaned,
        is_hole: shoelace > 0.0,
    }
}

impl Raster {
    /// Extracts all cells of `label` as a region with minimal-vertex
    /// polygons: each hole-free connected component becomes its traced
    /// outer boundary; components with holes fall back to the rectangle
    /// decomposition (see the module docs). Returns `None` when the
    /// label is absent.
    pub fn extract_region_traced(&self, label: u32) -> Option<Region> {
        let mut polygons: Vec<Polygon> = Vec::new();
        let components: Vec<Component> = self
            .components(Connectivity::Four)
            .into_iter()
            .filter(|c| c.label == label)
            .collect();
        if components.is_empty() {
            return None;
        }
        for component in components {
            let loops = trace_boundaries(&component.cells);
            if loops.iter().any(|l| l.is_hole) {
                let rect_region =
                    region_from_cells(&component.cells).expect("components are non-empty");
                polygons.extend(rect_region.polygons().iter().cloned());
            } else {
                for l in loops {
                    polygons.push(Polygon::new(l.vertices).expect("traced loops are simple rings"));
                }
            }
        }
        Some(Region::new(polygons).expect("at least one component"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::compute_cdr;

    #[test]
    fn single_cell_traces_to_unit_square() {
        let loops = trace_boundaries(&[(2, 3)]);
        assert_eq!(loops.len(), 1);
        assert!(!loops[0].is_hole);
        assert_eq!(loops[0].vertices.len(), 4);
    }

    #[test]
    fn rectangle_traces_to_four_vertices() {
        let cells: Vec<(usize, usize)> = (0..3).flat_map(|r| (0..5).map(move |c| (c, r))).collect();
        let loops = trace_boundaries(&cells);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vertices.len(), 4);
    }

    #[test]
    fn l_shape_traces_to_six_vertices() {
        let cells = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)];
        let loops = trace_boundaries(&cells);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vertices.len(), 6);
    }

    #[test]
    fn ring_has_outer_and_hole_loops() {
        let raster = Raster::from_text(
            "111
             1.1
             111",
        )
        .unwrap();
        let loops = trace_boundaries(&raster.cells_of(1));
        assert_eq!(loops.len(), 2);
        let holes: Vec<bool> = loops.iter().map(|l| l.is_hole).collect();
        assert!(holes.contains(&true) && holes.contains(&false));
    }

    #[test]
    fn traced_region_matches_rectangle_region() {
        let raster = Raster::from_text(
            ".2222.
             .2..22
             22.222
             2222..",
        )
        .unwrap();
        let traced = raster.extract_region_traced(2).unwrap();
        let rects = raster.extract_region(2).unwrap();
        assert_eq!(traced.area(), rects.area());
        assert_eq!(traced.mbb(), rects.mbb());
        // Same relations against a probe region.
        let probe =
            Region::from_coords([(10.0, -5.0), (12.0, -5.0), (12.0, -3.0), (10.0, -3.0)]).unwrap();
        assert_eq!(compute_cdr(&traced, &probe), compute_cdr(&rects, &probe));
        assert_eq!(compute_cdr(&probe, &traced), compute_cdr(&probe, &rects));
    }

    #[test]
    fn traced_uses_fewer_vertices_on_blobby_shapes() {
        let mut rng = cardir_workloads::SplitMix64::seed_from_u64(33);
        let raster = crate::random_blobs(&mut rng, 30, 30, 3, 80);
        for label in raster.labels() {
            let traced = raster.extract_region_traced(label).unwrap();
            let rects = raster.extract_region(label).unwrap();
            assert_eq!(traced.area(), rects.area(), "label {label}");
            assert!(
                traced.edge_count() <= rects.edge_count(),
                "label {label}: {} vs {}",
                traced.edge_count(),
                rects.edge_count()
            );
            for p in traced.polygons() {
                assert!(p.is_simple(), "label {label}");
            }
        }
    }

    #[test]
    fn walks_never_start_at_a_saddle() {
        // The two cells meet only at vertex (1, 1), which has two outgoing
        // edges. Walks start in hash-map order, which differs from map to
        // map, so trace the same cells many times.
        for _ in 0..200 {
            let loops = trace_boundaries(&[(0, 0), (1, 1)]);
            assert_eq!(loops.len(), 2);
            assert!(loops.iter().all(|l| l.vertices.len() == 4 && !l.is_hole));
        }
    }

    #[test]
    fn diagonal_saddle_keeps_components_separate() {
        // Two diagonal cells share only a corner; 4-connectivity gives two
        // components, and tracing each yields one 4-vertex loop.
        let raster = Raster::from_text(
            "1.
             .1",
        )
        .unwrap();
        let traced = raster.extract_region_traced(1).unwrap();
        assert_eq!(traced.polygon_count(), 2);
        assert_eq!(traced.area(), 2.0);
        for p in traced.polygons() {
            assert_eq!(p.len(), 4);
        }
    }
}
