//! The nine tiles induced by a reference bounding box.

use cardir_geometry::{Band, BoundingBox, HalfPlane};
use std::fmt;

/// One of the nine tiles into which the lines of `mbb(b)` divide the plane
/// (paper Fig. 1a).
///
/// The discriminant values follow the paper's canonical writing order
/// (Section 2: "we will write the single-tile elements of a cardinal
/// direction relation according to the following order: B, S, SW, W, NW,
/// N, NE, E and SE"), so iterating tiles in discriminant order prints
/// relations exactly as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Tile {
    /// Bounding box (the central tile).
    B = 0,
    /// South.
    S = 1,
    /// South-west.
    SW = 2,
    /// West.
    W = 3,
    /// North-west.
    NW = 4,
    /// North.
    N = 5,
    /// North-east.
    NE = 6,
    /// East.
    E = 7,
    /// South-east.
    SE = 8,
}

/// All nine tiles in canonical order.
pub const ALL_TILES: [Tile; 9] = [
    Tile::B,
    Tile::S,
    Tile::SW,
    Tile::W,
    Tile::NW,
    Tile::N,
    Tile::NE,
    Tile::E,
    Tile::SE,
];

impl Tile {
    /// Canonical index (0 = `B` … 8 = `SE`).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Bit mask within a [`crate::CardinalRelation`] bitset.
    #[inline]
    pub const fn bit(self) -> u16 {
        1 << (self as u16)
    }

    /// Tile from its canonical index.
    pub fn from_index(i: usize) -> Option<Tile> {
        ALL_TILES.get(i).copied().filter(|t| t.index() == i)
    }

    /// Tile corresponding to a pair of axis bands (x band, y band) relative
    /// to the reference box: `Lower` x is west, `Upper` y is north, etc.
    pub fn from_bands(x: Band, y: Band) -> Tile {
        match (x, y) {
            (Band::Lower, Band::Lower) => Tile::SW,
            (Band::Lower, Band::Middle) => Tile::W,
            (Band::Lower, Band::Upper) => Tile::NW,
            (Band::Middle, Band::Lower) => Tile::S,
            (Band::Middle, Band::Middle) => Tile::B,
            (Band::Middle, Band::Upper) => Tile::N,
            (Band::Upper, Band::Lower) => Tile::SE,
            (Band::Upper, Band::Middle) => Tile::E,
            (Band::Upper, Band::Upper) => Tile::NE,
        }
    }

    /// The (x band, y band) pair of this tile.
    pub fn bands(self) -> (Band, Band) {
        match self {
            Tile::SW => (Band::Lower, Band::Lower),
            Tile::W => (Band::Lower, Band::Middle),
            Tile::NW => (Band::Lower, Band::Upper),
            Tile::S => (Band::Middle, Band::Lower),
            Tile::B => (Band::Middle, Band::Middle),
            Tile::N => (Band::Middle, Band::Upper),
            Tile::SE => (Band::Upper, Band::Lower),
            Tile::E => (Band::Upper, Band::Middle),
            Tile::NE => (Band::Upper, Band::Upper),
        }
    }

    /// Position in a 3×3 direction-relation matrix: row 0 is the north row
    /// (`NW N NE`), row 2 the south row (`SW S SE`), matching the matrices
    /// printed in the paper.
    pub fn matrix_position(self) -> (usize, usize) {
        let (x, y) = self.bands();
        let col = match x {
            Band::Lower => 0,
            Band::Middle => 1,
            Band::Upper => 2,
        };
        let row = match y {
            Band::Upper => 0,
            Band::Middle => 1,
            Band::Lower => 2,
        };
        (row, col)
    }

    /// Tile from a matrix position (row 0 = north row).
    pub fn from_matrix_position(row: usize, col: usize) -> Option<Tile> {
        let x = match col {
            0 => Band::Lower,
            1 => Band::Middle,
            2 => Band::Upper,
            _ => return None,
        };
        let y = match row {
            0 => Band::Upper,
            1 => Band::Middle,
            2 => Band::Lower,
            _ => return None,
        };
        Some(Tile::from_bands(x, y))
    }

    /// The tile name as written in the paper (`"B"`, `"SW"`, …).
    pub const fn name(self) -> &'static str {
        match self {
            Tile::B => "B",
            Tile::S => "S",
            Tile::SW => "SW",
            Tile::W => "W",
            Tile::NW => "NW",
            Tile::N => "N",
            Tile::NE => "NE",
            Tile::E => "E",
            Tile::SE => "SE",
        }
    }

    /// Parses a tile name (case-sensitive, as printed by the paper).
    pub fn parse(s: &str) -> Option<Tile> {
        ALL_TILES.into_iter().find(|t| t.name() == s)
    }

    /// The tile, as a closed (possibly unbounded) box, expressed as the
    /// intersection of at most four axis-parallel half-planes of `mbb`.
    ///
    /// This is exactly what the clipping baseline clips against.
    pub fn half_planes(self, mbb: BoundingBox) -> Vec<HalfPlane> {
        let (x, y) = self.bands();
        let mut hp = Vec::with_capacity(4);
        match x {
            Band::Lower => hp.push(HalfPlane::west_of(mbb.min.x)),
            Band::Middle => {
                hp.push(HalfPlane::east_of(mbb.min.x));
                hp.push(HalfPlane::west_of(mbb.max.x));
            }
            Band::Upper => hp.push(HalfPlane::east_of(mbb.max.x)),
        }
        match y {
            Band::Lower => hp.push(HalfPlane::south_of(mbb.min.y)),
            Band::Middle => {
                hp.push(HalfPlane::north_of(mbb.min.y));
                hp.push(HalfPlane::south_of(mbb.max.y));
            }
            Band::Upper => hp.push(HalfPlane::north_of(mbb.max.y)),
        }
        hp
    }

    /// Returns `true` for the eight peripheral (unbounded) tiles.
    #[inline]
    pub fn is_peripheral(self) -> bool {
        self != Tile::B
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::Point;

    #[test]
    fn canonical_order_matches_paper() {
        let names: Vec<&str> = ALL_TILES.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["B", "S", "SW", "W", "NW", "N", "NE", "E", "SE"]);
        for (i, t) in ALL_TILES.into_iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(Tile::from_index(i), Some(t));
            assert_eq!(t.bit(), 1 << i);
        }
        assert_eq!(Tile::from_index(9), None);
    }

    #[test]
    fn band_round_trip() {
        for t in ALL_TILES {
            let (x, y) = t.bands();
            assert_eq!(Tile::from_bands(x, y), t);
        }
    }

    #[test]
    fn matrix_positions_match_paper_layout() {
        // Paper matrix layout: [NW N NE / W B E / SW S SE].
        assert_eq!(Tile::NW.matrix_position(), (0, 0));
        assert_eq!(Tile::N.matrix_position(), (0, 1));
        assert_eq!(Tile::NE.matrix_position(), (0, 2));
        assert_eq!(Tile::W.matrix_position(), (1, 0));
        assert_eq!(Tile::B.matrix_position(), (1, 1));
        assert_eq!(Tile::E.matrix_position(), (1, 2));
        assert_eq!(Tile::SW.matrix_position(), (2, 0));
        assert_eq!(Tile::S.matrix_position(), (2, 1));
        assert_eq!(Tile::SE.matrix_position(), (2, 2));
        for t in ALL_TILES {
            let (r, c) = t.matrix_position();
            assert_eq!(Tile::from_matrix_position(r, c), Some(t));
        }
        assert_eq!(Tile::from_matrix_position(3, 0), None);
    }

    #[test]
    fn parse_round_trip() {
        for t in ALL_TILES {
            assert_eq!(Tile::parse(t.name()), Some(t));
        }
        assert_eq!(Tile::parse("X"), None);
        assert_eq!(Tile::parse("sw"), None); // case-sensitive like the paper
    }

    #[test]
    fn half_plane_counts() {
        let mbb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        assert_eq!(Tile::SW.half_planes(mbb).len(), 2); // corner tiles
        assert_eq!(Tile::S.half_planes(mbb).len(), 3); // edge tiles
        assert_eq!(Tile::B.half_planes(mbb).len(), 4); // the box itself
                                                       // Membership sanity: the centre of the box is only in B's planes.
        let c = Point::new(2.0, 2.0);
        for t in ALL_TILES {
            let inside = t.half_planes(mbb).iter().all(|hp| hp.contains(c));
            assert_eq!(inside, t == Tile::B, "{t}");
        }
    }
}
