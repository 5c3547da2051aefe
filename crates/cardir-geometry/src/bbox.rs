//! Minimum bounding boxes (the paper's `mbb(·)`).

use crate::line::Line;
use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// For a region `a` this is the paper's `mbb(a)`: the rectangle formed by
/// the straight lines `x = inf_x(a)`, `x = sup_x(a)`, `y = inf_y(a)` and
/// `y = sup_y(a)`. The four lines are exposed by [`BoundingBox::west_line`]
/// and friends; they induce the nine-tile partition of the plane used by
/// every cardinal-direction computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// South-west corner `(inf_x, inf_y)`.
    pub min: Point,
    /// North-east corner `(sup_x, sup_y)`.
    pub max: Point,
}

/// Why a caller-supplied pair of corners does not form a bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundingBoxError {
    /// A corner coordinate is NaN or infinite.
    NonFinite { min: Point, max: Point },
    /// `min > max` on some axis; such a pair denotes no rectangle.
    /// (Degenerate boxes with `min == max` are accepted — a point or
    /// segment is a legal, zero-area box.)
    Inverted { min: Point, max: Point },
}

impl fmt::Display for BoundingBoxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundingBoxError::NonFinite { min, max } => {
                write!(
                    f,
                    "bounding box corners {min}, {max} contain a non-finite coordinate"
                )
            }
            BoundingBoxError::Inverted { min, max } => {
                write!(
                    f,
                    "bounding box corners {min}, {max} are inverted (min > max)"
                )
            }
        }
    }
}

impl std::error::Error for BoundingBoxError {}

impl BoundingBox {
    /// Creates a box from its corners. Panics in debug builds if inverted.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "inverted bounding box");
        BoundingBox { min, max }
    }

    /// Creates a box from its corners, validating them: every coordinate
    /// must be finite and `min ≤ max` on both axes. The panic-free
    /// counterpart of [`BoundingBox::new`] for corners that come from
    /// outside the library's own invariant-preserving code (parsed files,
    /// user input).
    pub fn try_new(min: Point, max: Point) -> Result<Self, BoundingBoxError> {
        if ![min.x, min.y, max.x, max.y].iter().all(|c| c.is_finite()) {
            return Err(BoundingBoxError::NonFinite { min, max });
        }
        if min.x > max.x || min.y > max.y {
            return Err(BoundingBoxError::Inverted { min, max });
        }
        Ok(BoundingBox { min, max })
    }

    /// Creates a box from any two opposite corners.
    pub fn from_corners(a: Point, b: Point) -> Self {
        BoundingBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The smallest box containing every point of the iterator, or `None`
    /// when the iterator is empty.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox {
            min: first,
            max: first,
        };
        for p in it {
            bb.expand_point(p);
        }
        Some(bb)
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The smallest box containing both boxes.
    pub fn union(self, other: BoundingBox) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The intersection of the two boxes, if non-empty (boundary touching
    /// counts as non-empty: boxes are closed sets).
    pub fn intersection(self, other: BoundingBox) -> Option<BoundingBox> {
        let min = Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y));
        let max = Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y));
        (min.x <= max.x && min.y <= max.y).then_some(BoundingBox { min, max })
    }

    /// Returns `true` when the closed boxes share at least one point.
    #[inline]
    pub fn intersects(self, other: BoundingBox) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Returns `true` when `p` lies in the closed box.
    #[inline]
    pub fn contains(self, p: Point) -> bool {
        (self.min.x..=self.max.x).contains(&p.x) && (self.min.y..=self.max.y).contains(&p.y)
    }

    /// Returns `true` when `other` lies entirely inside the closed box.
    #[inline]
    pub fn contains_box(self, other: BoundingBox) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// The centre of the box — the point tested against the polygons of the
    /// primary region by `Compute-CDR` to detect the `B` tile.
    #[inline]
    pub fn center(self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Width along x (`sup_x − inf_x`).
    #[inline]
    pub fn width(self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y (`sup_y − inf_y`).
    #[inline]
    pub fn height(self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    #[inline]
    pub fn area(self) -> f64 {
        self.width() * self.height()
    }

    /// Returns `true` when the box has zero width or height.
    #[inline]
    pub fn is_degenerate(self) -> bool {
        self.width() == 0.0 || self.height() == 0.0
    }

    /// The west line `x = inf_x` (the paper's `x = m_1`).
    #[inline]
    pub fn west_line(self) -> Line {
        Line::Vertical(self.min.x)
    }

    /// The east line `x = sup_x` (the paper's `x = m_2`).
    #[inline]
    pub fn east_line(self) -> Line {
        Line::Vertical(self.max.x)
    }

    /// The south line `y = inf_y` (the paper's `y = l_1`).
    #[inline]
    pub fn south_line(self) -> Line {
        Line::Horizontal(self.min.y)
    }

    /// The north line `y = sup_y` (the paper's `y = l_2`).
    #[inline]
    pub fn north_line(self) -> Line {
        Line::Horizontal(self.max.y)
    }

    /// The four lines forming the box, in the order
    /// west (`x=m1`), east (`x=m2`), south (`y=l1`), north (`y=l2`).
    #[inline]
    pub fn lines(self) -> [Line; 4] {
        [
            self.west_line(),
            self.east_line(),
            self.south_line(),
            self.north_line(),
        ]
    }

    /// The four corners in clockwise order starting from the north-west.
    pub fn corners_clockwise(self) -> [Point; 4] {
        [
            Point::new(self.min.x, self.max.y),
            Point::new(self.max.x, self.max.y),
            Point::new(self.max.x, self.min.y),
            Point::new(self.min.x, self.min.y),
        ]
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}] × [{}, {}]",
            self.min.x, self.max.x, self.min.y, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn bb(x0: f64, y0: f64, x1: f64, y1: f64) -> BoundingBox {
        BoundingBox::new(pt(x0, y0), pt(x1, y1))
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [pt(1.0, 5.0), pt(-2.0, 3.0), pt(4.0, -1.0)];
        let b = BoundingBox::from_points(pts).unwrap();
        assert_eq!(b, bb(-2.0, -1.0, 4.0, 5.0));
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn try_new_validates_corners() {
        assert_eq!(
            BoundingBox::try_new(pt(0.0, 0.0), pt(2.0, 2.0)),
            Ok(bb(0.0, 0.0, 2.0, 2.0))
        );
        // Degenerate boxes are legal.
        assert!(BoundingBox::try_new(pt(1.0, 1.0), pt(1.0, 1.0)).is_ok());
        assert!(matches!(
            BoundingBox::try_new(pt(f64::NAN, 0.0), pt(2.0, 2.0)),
            Err(BoundingBoxError::NonFinite { .. })
        ));
        assert!(matches!(
            BoundingBox::try_new(pt(0.0, 0.0), pt(f64::INFINITY, 2.0)),
            Err(BoundingBoxError::NonFinite { .. })
        ));
        let err = BoundingBox::try_new(pt(3.0, 0.0), pt(2.0, 2.0)).unwrap_err();
        assert!(matches!(err, BoundingBoxError::Inverted { .. }));
        assert!(err.to_string().contains("inverted"));
    }

    #[test]
    fn from_corners_normalises() {
        assert_eq!(
            BoundingBox::from_corners(pt(3.0, 1.0), pt(0.0, 4.0)),
            bb(0.0, 1.0, 3.0, 4.0)
        );
    }

    #[test]
    fn union_and_intersection() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.union(b), bb(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.intersection(b), Some(bb(1.0, 1.0, 2.0, 2.0)));
        // Touching boxes intersect in a boundary segment (closed sets).
        let c = bb(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(c));
        assert_eq!(a.intersection(c), Some(bb(2.0, 0.0, 2.0, 2.0)));
        // Disjoint.
        let d = bb(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(d));
        assert!(a.intersection(d).is_none());
    }

    #[test]
    fn containment_and_measures() {
        let a = bb(0.0, 0.0, 4.0, 2.0);
        assert!(a.contains(pt(0.0, 0.0))); // boundary is inside (closed)
        assert!(a.contains(pt(4.0, 2.0)));
        assert!(!a.contains(pt(4.1, 1.0)));
        assert!(a.contains_box(bb(1.0, 0.5, 3.0, 1.5)));
        assert!(!a.contains_box(bb(1.0, 0.5, 5.0, 1.5)));
        assert_eq!(a.center(), pt(2.0, 1.0));
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.height(), 2.0);
        assert_eq!(a.area(), 8.0);
        assert!(!a.is_degenerate());
        assert!(bb(0.0, 0.0, 0.0, 2.0).is_degenerate());
    }

    #[test]
    fn lines_match_paper_naming() {
        let a = bb(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.west_line(), Line::Vertical(1.0)); // x = m1
        assert_eq!(a.east_line(), Line::Vertical(3.0)); // x = m2
        assert_eq!(a.south_line(), Line::Horizontal(2.0)); // y = l1
        assert_eq!(a.north_line(), Line::Horizontal(4.0)); // y = l2
    }

    #[test]
    fn clockwise_corners() {
        let a = bb(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            a.corners_clockwise(),
            [pt(0.0, 1.0), pt(1.0, 1.0), pt(1.0, 0.0), pt(0.0, 0.0)]
        );
    }
}
