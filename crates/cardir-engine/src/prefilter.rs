//! MBB prefiltering: deciding a pair's relation from bounding boxes
//! alone.
//!
//! The nine tiles of a reference region are carved out of the plane by
//! the four grid lines of `mbb(b)`. When `mbb(a)` intersects none of
//! those lines it lies strictly inside one *open* tile, so every point of
//! `a` — and every divided sub-edge — falls in that single tile. The
//! pair's qualitative relation is then the single-tile relation, with no
//! edge work at all.
//!
//! Strictness is what makes the short-circuit exact: a box that merely
//! *touches* a grid line may classify its boundary edges either way
//! depending on which side the interior lies, so touching pairs always
//! take the exact path; the strict comparisons in `strict_band` give that
//! conservative behaviour.
//!
//! The spatial join never asks this per pair: its sweeps find the pairs
//! for which [`decided_tile`] is `None` (see [`crate::join`]), and the
//! rest are emitted from the tile it returns.

use cardir_core::Tile;
use cardir_geometry::{Band, BoundingBox};

/// The strict band of `[a_lo, a_hi]` relative to `[b_lo, b_hi]`:
/// `Lower`/`Upper` when strictly outside, `Middle` when strictly inside
/// the open interval, `None` when the intervals touch or straddle an
/// endpoint.
#[inline]
fn strict_band(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> Option<Band> {
    if a_hi < b_lo {
        Some(Band::Lower)
    } else if a_lo > b_hi {
        Some(Band::Upper)
    } else if a_lo > b_lo && a_hi < b_hi {
        Some(Band::Middle)
    } else {
        None
    }
}

/// Returns the single tile of `reference`'s grid that strictly contains
/// `primary`, or `None` when the pair needs the exact edge-division pass.
///
/// `Some(t)` guarantees `compute_cdr(a, b)` is exactly the single-tile
/// relation `t`, because no point of `a` lies on or beyond a grid line of
/// `mbb(b)` bounding `t`.
pub fn decided_tile(primary: BoundingBox, reference: BoundingBox) -> Option<Tile> {
    let x = strict_band(
        primary.min.x,
        primary.max.x,
        reference.min.x,
        reference.max.x,
    )?;
    let y = strict_band(
        primary.min.y,
        primary.max.y,
        reference.min.y,
        reference.max.y,
    )?;
    Some(Tile::from_bands(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::Point;

    fn bb(x0: f64, y0: f64, x1: f64, y1: f64) -> BoundingBox {
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn all_nine_strict_placements_are_decided() {
        let reference = bb(0.0, 0.0, 4.0, 4.0);
        let cases = [
            (bb(1.0, 1.0, 3.0, 3.0), Tile::B),
            (bb(1.0, -3.0, 3.0, -1.0), Tile::S),
            (bb(-3.0, -3.0, -1.0, -1.0), Tile::SW),
            (bb(-3.0, 1.0, -1.0, 3.0), Tile::W),
            (bb(-3.0, 5.0, -1.0, 7.0), Tile::NW),
            (bb(1.0, 5.0, 3.0, 7.0), Tile::N),
            (bb(5.0, 5.0, 7.0, 7.0), Tile::NE),
            (bb(5.0, 1.0, 7.0, 3.0), Tile::E),
            (bb(5.0, -3.0, 7.0, -1.0), Tile::SE),
        ];
        for (primary, tile) in cases {
            assert_eq!(decided_tile(primary, reference), Some(tile), "{tile}");
        }
    }

    #[test]
    fn touching_or_straddling_boxes_are_undecided() {
        let reference = bb(0.0, 0.0, 4.0, 4.0);
        // Touching the south line from below.
        assert_eq!(decided_tile(bb(1.0, -2.0, 3.0, 0.0), reference), None);
        // Exactly filling a tile (touches all four lines).
        assert_eq!(decided_tile(bb(0.0, 0.0, 4.0, 4.0), reference), None);
        // Straddling the east line.
        assert_eq!(decided_tile(bb(3.0, 1.0, 5.0, 3.0), reference), None);
        // Corner straddle.
        assert_eq!(decided_tile(bb(3.0, 3.0, 5.0, 5.0), reference), None);
        // Sharing only a corner point.
        assert_eq!(decided_tile(bb(4.0, 4.0, 6.0, 6.0), reference), None);
    }

    #[test]
    fn decided_matches_strict_interior_for_soundness() {
        // decided_tile(a, b) is Some iff a avoids all four full grid
        // lines of b — the exact condition the join's sweeps test.
        let reference = bb(0.0, 0.0, 4.0, 4.0);
        // Far north but horizontally straddling the west line: undecided
        // (NW/N ambiguous from boxes alone... and edges may cross lines).
        assert_eq!(decided_tile(bb(-1.0, 6.0, 1.0, 8.0), reference), None);
    }
}
