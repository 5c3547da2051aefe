//! Basic cardinal direction relations (the set `D*` of the paper).

use crate::tile::{Tile, ALL_TILES};
use std::fmt;
use std::str::FromStr;

/// A basic cardinal direction relation: a non-empty set of tiles
/// `R_1 : … : R_k` with `1 ≤ k ≤ 9` and pairwise distinct `R_i`
/// (Definition 1). There are `2^9 − 1 = 511` such relations; they are
/// jointly exhaustive and pairwise disjoint.
///
/// Internally a 9-bit set over [`Tile`]; the canonical display order
/// `B, S, SW, W, NW, N, NE, E, SE` is the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CardinalRelation(u16);

/// Error returned when parsing a relation from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationParseError {
    /// The string contained no tiles.
    Empty,
    /// An unknown tile name was encountered.
    UnknownTile(String),
    /// The same tile appeared twice (Definition 1 requires distinct tiles).
    DuplicateTile(Tile),
}

impl fmt::Display for RelationParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationParseError::Empty => write!(f, "empty cardinal direction relation"),
            RelationParseError::UnknownTile(s) => write!(f, "unknown tile name {s:?}"),
            RelationParseError::DuplicateTile(t) => write!(f, "duplicate tile {t}"),
        }
    }
}

impl std::error::Error for RelationParseError {}

impl CardinalRelation {
    /// Number of basic relations (`|D*|`).
    pub const COUNT: usize = 511;

    /// The single-tile relation for `tile`.
    #[inline]
    pub const fn single(tile: Tile) -> Self {
        CardinalRelation(tile.bit())
    }

    /// Builds a relation from a tile list; returns `None` for an empty list.
    pub fn from_tiles<I: IntoIterator<Item = Tile>>(tiles: I) -> Option<Self> {
        let mut bits = 0u16;
        for t in tiles {
            bits |= t.bit();
        }
        (bits != 0).then_some(CardinalRelation(bits))
    }

    /// Builds a relation from a raw 9-bit set; `None` when empty or out of
    /// range.
    #[inline]
    pub fn from_bits(bits: u16) -> Option<Self> {
        (bits != 0 && bits < 512).then_some(CardinalRelation(bits))
    }

    /// The raw 9-bit set (bit `i` = tile with canonical index `i`).
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Returns `true` when `tile` is one of the relation's tiles.
    #[inline]
    pub const fn contains(self, tile: Tile) -> bool {
        self.0 & tile.bit() != 0
    }

    /// Number of tiles `k`.
    #[inline]
    pub const fn tile_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` for single-tile relations (`k = 1`, Definition 1).
    #[inline]
    pub const fn is_single_tile(self) -> bool {
        self.0.count_ones() == 1
    }

    /// Iterates the tiles in canonical order.
    pub fn tiles(self) -> impl Iterator<Item = Tile> {
        ALL_TILES.into_iter().filter(move |t| self.contains(*t))
    }

    /// Definition 2: the *tile-union* of relations — the relation formed
    /// from the union of their tiles.
    #[inline]
    pub const fn tile_union(self, other: CardinalRelation) -> CardinalRelation {
        CardinalRelation(self.0 | other.0)
    }

    /// Adds one tile, returning the enlarged relation.
    #[inline]
    pub const fn with_tile(self, tile: Tile) -> CardinalRelation {
        CardinalRelation(self.0 | tile.bit())
    }

    /// The tiles common to both relations, if any.
    pub fn intersection(self, other: CardinalRelation) -> Option<CardinalRelation> {
        CardinalRelation::from_bits(self.0 & other.0)
    }

    /// Returns `true` when every tile of `self` is a tile of `other`.
    #[inline]
    pub const fn is_subset_of(self, other: CardinalRelation) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates all 511 basic relations in ascending bit order.
    pub fn all() -> impl Iterator<Item = CardinalRelation> {
        (1u16..512).map(CardinalRelation)
    }

    /// The relation covering all nine tiles.
    pub const OMNI: CardinalRelation = CardinalRelation(0b1_1111_1111);
}

impl From<Tile> for CardinalRelation {
    fn from(t: Tile) -> Self {
        CardinalRelation::single(t)
    }
}

impl fmt::Display for CardinalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in self.tiles() {
            if !first {
                write!(f, ":")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for CardinalRelation {
    type Err = RelationParseError;

    /// Parses `"B:S:SW"`-style notation. Tiles may appear in any order but
    /// must be distinct; display always re-canonicalises the order.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(RelationParseError::Empty);
        }
        let mut bits = 0u16;
        for part in s.split(':') {
            let part = part.trim();
            let tile = Tile::parse(part)
                .ok_or_else(|| RelationParseError::UnknownTile(part.to_string()))?;
            if bits & tile.bit() != 0 {
                return Err(RelationParseError::DuplicateTile(tile));
            }
            bits |= tile.bit();
        }
        Ok(CardinalRelation(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_canonical_order() {
        // The paper: "we always write B:S:W instead of W:B:S or S:B:W".
        let r = CardinalRelation::from_tiles([Tile::W, Tile::B, Tile::S]).unwrap();
        assert_eq!(r.to_string(), "B:S:W");
        let r2: CardinalRelation = "W:B:S".parse().unwrap();
        assert_eq!(r, r2);
        assert_eq!(r2.to_string(), "B:S:W");
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "".parse::<CardinalRelation>().unwrap_err(),
            RelationParseError::Empty
        );
        assert_eq!(
            "B:X".parse::<CardinalRelation>().unwrap_err(),
            RelationParseError::UnknownTile("X".into())
        );
        assert_eq!(
            "B:S:B".parse::<CardinalRelation>().unwrap_err(),
            RelationParseError::DuplicateTile(Tile::B)
        );
    }

    #[test]
    fn paper_example_1_relations_parse() {
        for s in ["S", "NE:E", "B:S:SW:W:NW:N:E:SE"] {
            let r: CardinalRelation = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        let multi: CardinalRelation = "B:S:SW:W:NW:N:E:SE".parse().unwrap();
        assert_eq!(multi.tile_count(), 8);
        assert!(!multi.contains(Tile::NE));
    }

    #[test]
    fn single_and_multi_tile() {
        assert!(CardinalRelation::single(Tile::S).is_single_tile());
        let r: CardinalRelation = "NE:E".parse().unwrap();
        assert!(!r.is_single_tile());
        assert_eq!(r.tile_count(), 2);
    }

    #[test]
    fn tile_union_matches_definition_2() {
        // Paper example after Definition 2: R1 = S:SW, R2 = S:E:SE, R3 = W.
        let r1: CardinalRelation = "S:SW".parse().unwrap();
        let r2: CardinalRelation = "S:E:SE".parse().unwrap();
        let r3: CardinalRelation = "W".parse().unwrap();
        assert_eq!(r1.tile_union(r2).to_string(), "S:SW:E:SE");
        assert_eq!(r1.tile_union(r2).tile_union(r3).to_string(), "S:SW:W:E:SE");
    }

    #[test]
    fn there_are_511_relations() {
        assert_eq!(CardinalRelation::all().count(), CardinalRelation::COUNT);
        assert_eq!(CardinalRelation::OMNI.tile_count(), 9);
        assert!(CardinalRelation::from_bits(0).is_none());
        assert!(CardinalRelation::from_bits(512).is_none());
        assert_eq!(
            CardinalRelation::from_bits(511),
            Some(CardinalRelation::OMNI)
        );
    }

    #[test]
    fn set_operations() {
        let a: CardinalRelation = "B:S:W".parse().unwrap();
        let b: CardinalRelation = "S:W:NW".parse().unwrap();
        assert_eq!(a.intersection(b).unwrap().to_string(), "S:W");
        assert!(a.intersection("NE:E".parse().unwrap()).is_none());
        assert!("S:W".parse::<CardinalRelation>().unwrap().is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert_eq!(a.with_tile(Tile::NE).to_string(), "B:S:W:NE");
    }

    #[test]
    fn tiles_iterates_in_canonical_order() {
        let r = CardinalRelation::OMNI;
        let tiles: Vec<Tile> = r.tiles().collect();
        assert_eq!(tiles, ALL_TILES.to_vec());
    }
}
