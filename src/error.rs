//! A unified error type over the whole workspace.
//!
//! Every crate keeps its own focused error enum — a geometry caller
//! matching on [`PolygonError`] should not have to know XML exists. This
//! facade type is for the opposite caller: an application driving the
//! full pipeline (parse a file, build a configuration, run the engine,
//! evaluate queries) that wants one `Result<_, CardirError>` with `?`
//! working at every layer.
//!
//! [`PolygonError`]: cardir_geometry::PolygonError

use std::fmt;

use cardir_cardirect::{ConfigError, EvalError, PersistError, QueryParseError, XmlError};
use cardir_core::RelationParseError;
use cardir_engine::EngineError;
use cardir_geometry::{BoundingBoxError, PolygonError, RegionError, WktError};

/// Any error the cardir stack can produce, one variant per source type.
#[derive(Debug, Clone, PartialEq)]
pub enum CardirError {
    /// Invalid polygon construction (too few vertices, zero area, …).
    Polygon(PolygonError),
    /// Invalid region construction (no polygons, …).
    Region(RegionError),
    /// Invalid bounding-box corners (non-finite, inverted).
    BoundingBox(BoundingBoxError),
    /// Malformed WKT text.
    Wkt(WktError),
    /// Malformed relation text (`"B:N:NE"`-style).
    RelationParse(RelationParseError),
    /// The batch engine rejected its input.
    Engine(EngineError),
    /// Invalid configuration edit (duplicate or unknown region id, …).
    Config(ConfigError),
    /// Malformed CARDIRECT XML document.
    Xml(XmlError),
    /// Crash-safe persistence failed (atomic save or recovery load).
    Persist(PersistError),
    /// Malformed query text.
    QueryParse(QueryParseError),
    /// Query evaluation referenced an unknown region or attribute.
    Eval(EvalError),
}

impl fmt::Display for CardirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CardirError::Polygon(e) => write!(f, "polygon: {e}"),
            CardirError::Region(e) => write!(f, "region: {e}"),
            CardirError::BoundingBox(e) => write!(f, "bounding box: {e}"),
            CardirError::Wkt(e) => write!(f, "wkt: {e}"),
            CardirError::RelationParse(e) => write!(f, "relation: {e}"),
            CardirError::Engine(e) => write!(f, "engine: {e}"),
            CardirError::Config(e) => write!(f, "configuration: {e}"),
            CardirError::Xml(e) => write!(f, "xml: {e}"),
            CardirError::Persist(e) => write!(f, "persistence: {e}"),
            CardirError::QueryParse(e) => write!(f, "query: {e}"),
            CardirError::Eval(e) => write!(f, "eval: {e}"),
        }
    }
}

impl std::error::Error for CardirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CardirError::Polygon(e) => Some(e),
            CardirError::Region(e) => Some(e),
            CardirError::BoundingBox(e) => Some(e),
            CardirError::Wkt(e) => Some(e),
            CardirError::RelationParse(e) => Some(e),
            CardirError::Engine(e) => Some(e),
            CardirError::Config(e) => Some(e),
            CardirError::Xml(e) => Some(e),
            CardirError::Persist(e) => Some(e),
            CardirError::QueryParse(e) => Some(e),
            CardirError::Eval(e) => Some(e),
        }
    }
}

macro_rules! from_impl {
    ($source:ty => $variant:ident) => {
        impl From<$source> for CardirError {
            fn from(e: $source) -> Self {
                CardirError::$variant(e)
            }
        }
    };
}

from_impl!(PolygonError => Polygon);
from_impl!(RegionError => Region);
from_impl!(BoundingBoxError => BoundingBox);
from_impl!(WktError => Wkt);
from_impl!(RelationParseError => RelationParse);
from_impl!(EngineError => Engine);
from_impl!(ConfigError => Config);
from_impl!(XmlError => Xml);
from_impl!(PersistError => Persist);
from_impl!(QueryParseError => QueryParse);
from_impl!(EvalError => Eval);

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// `?` must lift every layer's error into [`CardirError`].
    #[test]
    fn question_mark_works_across_the_stack() {
        fn pipeline() -> Result<String, CardirError> {
            use cardir_geometry::{from_wkt, BoundingBox, Point};
            let a = from_wkt("POLYGON ((5 2, 7 2, 7 6, 5 6))")?;
            // A reference box from outside the library is validated first.
            let mbb = BoundingBox::try_new(Point::new(0.0, 0.0), Point::new(4.0, 4.0))?;
            let rel = cardir_core::compute_cdr_with_mbb(&a, mbb, &mut cardir_core::NoopHook);
            let query = cardir_cardirect::parse_query("{(x, y) | x NE:E y}")?;
            let _ = query;
            Ok(rel.to_string())
        }
        assert_eq!(pipeline().unwrap(), "NE:E");
    }

    #[test]
    fn conversions_preserve_the_source() {
        let bad = cardir_geometry::from_wkt("nonsense").unwrap_err();
        let unified: CardirError = bad.clone().into();
        assert_eq!(unified, CardirError::Wkt(bad));
        assert!(unified.source().is_some());
        assert!(unified.to_string().starts_with("wkt: "));

        let inverted = cardir_geometry::BoundingBox::try_new(
            cardir_geometry::Point::new(1.0, 0.0),
            cardir_geometry::Point::new(0.0, 1.0),
        )
        .unwrap_err();
        let unified: CardirError = inverted.into();
        assert!(matches!(unified, CardirError::BoundingBox(_)));
        assert!(unified.to_string().contains("inverted"));
    }
}
