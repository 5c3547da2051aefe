//! Composite regions — the paper's class `REG*`.

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::polygon::{Polygon, PolygonError};
use crate::segment::Segment;
use std::fmt;

/// Errors raised when constructing a [`Region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// Regions are non-empty sets of points; at least one polygon is needed.
    Empty,
    /// One of the member polygons was invalid.
    Polygon(PolygonError),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::Empty => write!(f, "a region needs at least one polygon"),
            RegionError::Polygon(e) => write!(f, "invalid member polygon: {e}"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<PolygonError> for RegionError {
    fn from(e: PolygonError) -> Self {
        RegionError::Polygon(e)
    }
}

/// A region of class `REG*`: a non-empty, bounded, closed point set
/// represented — as in Section 3 of the paper — by a set of simple
/// polygons with pairwise disjoint interiors.
///
/// `REG*` extends `REG` (regions homeomorphic to the closed unit disk) with
/// disconnected regions and regions with holes: an island chain is several
/// polygons; an annulus is decomposed into simple polygons that tile it
/// (paper Fig. 2). The disjoint-interiors requirement is a documented
/// precondition, not a construction-time check (verifying it is
/// `O(n² log n)`); the area accounting of `Compute-CDR%` relies on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    polygons: Vec<Polygon>,
}

impl Region {
    /// Builds a region from a non-empty set of polygons.
    pub fn new<I>(polygons: I) -> Result<Self, RegionError>
    where
        I: IntoIterator<Item = Polygon>,
    {
        let polygons: Vec<Polygon> = polygons.into_iter().collect();
        if polygons.is_empty() {
            return Err(RegionError::Empty);
        }
        Ok(Region { polygons })
    }

    /// A region consisting of a single polygon (class `REG` when the
    /// polygon is simple).
    pub fn single(polygon: Polygon) -> Self {
        Region {
            polygons: vec![polygon],
        }
    }

    /// Builds a single-polygon region straight from coordinates.
    pub fn from_coords<I>(coords: I) -> Result<Self, RegionError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        Ok(Region::single(Polygon::from_coords(coords)?))
    }

    /// Builds a region from several coordinate rings.
    pub fn from_rings<I, J>(rings: I) -> Result<Self, RegionError>
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = (f64, f64)>,
    {
        let polygons: Result<Vec<Polygon>, PolygonError> =
            rings.into_iter().map(Polygon::from_coords).collect();
        Region::new(polygons?)
    }

    /// The axis-aligned rectangle covering `bb`, as a region.
    pub fn rectangle(bb: BoundingBox) -> Result<Self, RegionError> {
        Ok(Region::single(Polygon::rectangle(bb)?))
    }

    /// The member polygons.
    #[inline]
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Number of member polygons.
    #[inline]
    pub fn polygon_count(&self) -> usize {
        self.polygons.len()
    }

    /// Total number of edges over all member polygons (the paper's `k`).
    pub fn edge_count(&self) -> usize {
        self.polygons.iter().map(Polygon::len).sum()
    }

    /// Iterates over every edge of every member polygon.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        crate::flatten::record();
        self.polygons.iter().flat_map(Polygon::edges)
    }

    /// The minimum bounding box `mbb(·)` of the region.
    pub fn mbb(&self) -> BoundingBox {
        self.polygons
            .iter()
            .map(Polygon::bounding_box)
            .reduce(BoundingBox::union)
            .expect("regions are non-empty")
    }

    /// Total area (sum of member polygon areas; correct because member
    /// interiors are pairwise disjoint).
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }

    /// Returns `true` when `p` belongs to the (closed) region.
    pub fn contains(&self, p: Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains(p))
    }

    /// Returns the region translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Region {
        Region {
            polygons: self.polygons.iter().map(|p| p.translated(dx, dy)).collect(),
        }
    }

    /// Merges two regions into one (set union of their polygon lists; the
    /// caller guarantees interiors stay disjoint).
    pub fn union(mut self, other: Region) -> Region {
        self.polygons.extend(other.polygons);
        self
    }

    /// Heuristic `REG` membership: a single simple polygon.
    ///
    /// `REG` regions are homeomorphic to the closed disk; a single simple
    /// polygon always is. Composite representations may still describe a
    /// connected region, so `false` means "not representable as one simple
    /// polygon", not "disconnected".
    pub fn is_simple_connected(&self) -> bool {
        self.polygons.len() == 1 && self.polygons[0].is_simple()
    }
}

impl From<Polygon> for Region {
    fn from(p: Polygon) -> Self {
        Region::single(p)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.polygons.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn square(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::from_coords([(x, y), (x, y + side), (x + side, y + side), (x + side, y)]).unwrap()
    }

    #[test]
    fn construction() {
        assert_eq!(
            Region::new(std::iter::empty()).unwrap_err(),
            RegionError::Empty
        );
        let r = Region::new([square(0.0, 0.0, 1.0), square(2.0, 0.0, 1.0)]).unwrap();
        assert_eq!(r.polygon_count(), 2);
        assert_eq!(r.edge_count(), 8);
    }

    #[test]
    fn from_rings_propagates_polygon_errors() {
        let err = Region::from_rings([vec![(0.0, 0.0), (1.0, 1.0)]]).unwrap_err();
        assert!(matches!(
            err,
            RegionError::Polygon(PolygonError::TooFewVertices)
        ));
    }

    #[test]
    fn mbb_spans_all_members() {
        let r = Region::new([square(0.0, 0.0, 1.0), square(3.0, 2.0, 1.0)]).unwrap();
        let bb = r.mbb();
        assert_eq!(bb.min, pt(0.0, 0.0));
        assert_eq!(bb.max, pt(4.0, 3.0));
    }

    #[test]
    fn area_sums_members() {
        let r = Region::new([square(0.0, 0.0, 1.0), square(5.0, 5.0, 2.0)]).unwrap();
        assert_eq!(r.area(), 5.0);
    }

    #[test]
    fn containment_over_disconnected_region() {
        let r = Region::new([square(0.0, 0.0, 1.0), square(3.0, 3.0, 1.0)]).unwrap();
        assert!(r.contains(pt(0.5, 0.5)));
        assert!(r.contains(pt(3.5, 3.5)));
        assert!(!r.contains(pt(2.0, 2.0)));
    }

    #[test]
    fn region_with_hole_per_paper_fig2() {
        // An annulus-like region: outer square [0,3]² minus inner hole
        // [1,2]², decomposed — as the paper's Fig. 2 does for region b —
        // into simple polygons with disjoint interiors that tile it.
        let r = Region::new([
            Polygon::from_coords([(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0)]).unwrap(), // south strip
            Polygon::from_coords([(0.0, 2.0), (3.0, 2.0), (3.0, 3.0), (0.0, 3.0)]).unwrap(), // north strip
            Polygon::from_coords([(0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]).unwrap(), // west block
            Polygon::from_coords([(2.0, 1.0), (3.0, 1.0), (3.0, 2.0), (2.0, 2.0)]).unwrap(), // east block
        ])
        .unwrap();
        assert_eq!(r.area(), 8.0);
        assert!(r.contains(pt(0.5, 0.5)));
        assert!(!r.contains(pt(1.5, 1.5))); // inside the hole
        assert_eq!(r.mbb(), BoundingBox::new(pt(0.0, 0.0), pt(3.0, 3.0)));
    }

    #[test]
    fn union_and_translate() {
        let a = Region::single(square(0.0, 0.0, 1.0));
        let b = Region::single(square(2.0, 0.0, 1.0));
        let u = a.union(b);
        assert_eq!(u.polygon_count(), 2);
        let t = u.translated(1.0, 1.0);
        assert_eq!(t.mbb().min, pt(1.0, 1.0));
    }

    #[test]
    fn simple_connected_heuristic() {
        assert!(Region::single(square(0.0, 0.0, 1.0)).is_simple_connected());
        let multi = Region::new([square(0.0, 0.0, 1.0), square(2.0, 0.0, 1.0)]).unwrap();
        assert!(!multi.is_simple_connected());
    }
}
