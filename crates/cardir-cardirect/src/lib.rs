//! CARDIRECT — the tool layer of the EDBT 2004 paper.
//!
//! Section 4 of the paper describes a system where "the user identifies
//! and annotates interesting areas in an image or a map …, compute\[s\]
//! cardinal direction relations and retrieve\[s\] regions that satisfy
//! (spatial and thematic) criteria". This crate is that system minus the
//! GUI:
//!
//! * [`Configuration`] — an annotated image: named, coloured regions and
//!   the relations computed between them;
//! * [`xml`] — persistence in exactly the paper's DTD (hand-rolled
//!   writer and parser);
//! * [`query`] — the conjunctive query language over thematic attributes
//!   and (possibly disjunctive) cardinal direction predicates, with an
//!   optional R-tree-accelerated evaluator;
//! * [`journal`] — a crash-safe append-only relation journal backing the
//!   incremental engine: edit a region, journal the delta, replay after
//!   any crash.
//!
//! # Example: the paper's own query
//!
//! ```
//! use cardir_cardirect::{Configuration, query};
//! use cardir_geometry::Region;
//!
//! let mut config = Configuration::new("demo", "map.png");
//! let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
//!     Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
//! };
//! config.add_region("west", "West", "red", rect(0.0, 0.0, 1.0, 1.0)).unwrap();
//! config.add_region("east", "East", "blue", rect(3.0, 0.0, 4.0, 1.0)).unwrap();
//! config.compute_all_relations();
//!
//! let q = query::parse_query("{(x, y) | color(x) = red, x W y}").unwrap();
//! let answers = query::evaluate(&q, &config).unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].values, ["west", "east"]);
//! ```

pub mod journal;
pub mod model;
pub mod query;
pub mod xml;

pub use journal::{
    JournalError, RebuildReason, RelationStore, ReplayReport, ReplaySource, StoreOptions,
    StoreStats,
};
pub use model::{AnnotatedRegion, ConfigError, Configuration, StoredRelation};
pub use query::{
    evaluate, evaluate_indexed, parse_query, Binding, EvalError, LexError, Query, QueryParseError,
    RegionIndex,
};
pub use xml::{
    from_xml, load_config, save_xml_atomic, to_xml, LoadSource, Loaded, PersistError, SaveReport,
    XmlError,
};
