//! Composite-region generators (class `REG*`).
//!
//! The paper motivates `REG*` with geographic entities "made up of
//! separations (islands, exclaves, external territories) and holes
//! (enclaves)". These generators produce such regions with controlled
//! polygon and edge counts, for property tests and benchmarks.

use crate::polygons::star_polygon;
use crate::rng::SplitMix64;
use cardir_geometry::{Point, Polygon, Region};

/// Shape of a generated composite region.
#[derive(Debug, Clone, Copy)]
pub struct RegionSpec {
    /// Number of member polygons (islands).
    pub polygons: usize,
    /// Vertices per polygon.
    pub vertices_per_polygon: usize,
    /// Centre of the whole archipelago.
    pub center: Point,
    /// Distance between island centres (grid pitch).
    pub spread: f64,
}

impl Default for RegionSpec {
    fn default() -> Self {
        RegionSpec {
            polygons: 1,
            vertices_per_polygon: 16,
            center: Point::ORIGIN,
            spread: 10.0,
        }
    }
}

/// Generates a composite region: `spec.polygons` star polygons laid out on
/// a grid around `spec.center`, far enough apart that interiors stay
/// disjoint (the `REG*` representation invariant).
pub fn archipelago(rng: &mut SplitMix64, spec: RegionSpec) -> Region {
    assert!(spec.polygons >= 1);
    let cols = (spec.polygons as f64).sqrt().ceil() as usize;
    let r_max = spec.spread * 0.45; // < spread/2 keeps neighbours disjoint
    let r_min = r_max * 0.4;
    let polygons = (0..spec.polygons).map(|i| {
        let col = (i % cols) as f64;
        let row = (i / cols) as f64;
        let c = Point::new(
            spec.center.x + col * spec.spread,
            spec.center.y + row * spec.spread,
        );
        star_polygon(rng, c, r_min, r_max, spec.vertices_per_polygon)
    });
    Region::new(polygons).expect("archipelago specs have ≥ 1 polygon")
}

/// Generates a square "frame" region (a region with a hole) centred at
/// `center`: outer half-width `outer`, hole half-width `inner`, decomposed
/// into four simple rectangles as the paper's Fig. 2 decomposes regions
/// with holes.
pub fn frame(center: Point, outer: f64, inner: f64) -> Region {
    assert!(0.0 < inner && inner < outer);
    let (cx, cy) = (center.x, center.y);
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Polygon::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).expect("frame rectangles")
    };
    Region::new([
        rect(cx - outer, cy - outer, cx + outer, cy - inner), // south strip
        rect(cx - outer, cy + inner, cx + outer, cy + outer), // north strip
        rect(cx - outer, cy - inner, cx - inner, cy + inner), // west block
        rect(cx + inner, cy - inner, cx + outer, cy + inner), // east block
    ])
    .expect("frames are non-empty")
}

/// Generates a random primary/reference region pair whose bounding boxes
/// overlap, so the relation computation exercises edge division.
///
/// `edges` is the *total* edge budget for the primary region; the
/// reference region is a star polygon of 16 edges. Returns
/// `(primary, reference)`.
pub fn overlapping_pair(rng: &mut SplitMix64, edges: usize) -> (Region, Region) {
    let reference = Region::single(star_polygon(rng, Point::ORIGIN, 4.0, 8.0, 16));
    // Place the primary near the reference so its edges straddle the grid
    // lines of mbb(reference).
    let offset = Point::new(rng.random_range(-6.0..6.0), rng.random_range(-6.0..6.0));
    let n = edges.max(3);
    let primary = Region::single(star_polygon(rng, offset, 3.0, 9.0, n));
    (primary, reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archipelago_counts() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let spec = RegionSpec {
            polygons: 5,
            vertices_per_polygon: 12,
            ..RegionSpec::default()
        };
        let r = archipelago(&mut rng, spec);
        assert_eq!(r.polygon_count(), 5);
        assert_eq!(r.edge_count(), 60);
        for p in r.polygons() {
            assert!(p.is_simple());
        }
    }

    #[test]
    fn archipelago_islands_are_disjoint() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let spec = RegionSpec {
            polygons: 9,
            vertices_per_polygon: 10,
            ..RegionSpec::default()
        };
        let r = archipelago(&mut rng, spec);
        let boxes: Vec<_> = r.polygons().iter().map(|p| p.bounding_box()).collect();
        for i in 0..boxes.len() {
            for j in (i + 1)..boxes.len() {
                // Bounding boxes may touch but island interiors must not
                // overlap; star radii < spread/2 guarantee box disjointness.
                assert!(
                    !boxes[i].intersects(boxes[j])
                        || boxes[i].intersection(boxes[j]).unwrap().area() == 0.0,
                    "islands {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn frame_has_a_real_hole() {
        let f = frame(Point::new(2.0, 3.0), 4.0, 1.0);
        assert_eq!(f.polygon_count(), 4);
        assert!((f.area() - (64.0 - 4.0)).abs() < 1e-12);
        assert!(!f.contains(Point::new(2.0, 3.0))); // the hole
        assert!(f.contains(Point::new(2.0, 6.0))); // the north strip
    }

    #[test]
    fn overlapping_pair_has_requested_edges() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let (a, b) = overlapping_pair(&mut rng, 128);
        assert_eq!(a.edge_count(), 128);
        assert_eq!(b.edge_count(), 16);
        // The pair must be computable without panicking.
        let _ = cardir_core::compute_cdr(&a, &b);
    }
}
