//! # cardir — Computing and Handling Cardinal Direction Information
//!
//! A full reproduction of Skiadopoulos, Giannoukos, Vassiliadis, Sellis &
//! Koubarakis, *Computing and Handling Cardinal Direction Information*
//! (EDBT 2004): linear-time computation of cardinal direction relations
//! (with and without percentages) between composite polygonal regions,
//! the polygon-clipping baseline, the CARDIRECT annotation/persistence/
//! query tool, and the qualitative-reasoning layer around the model.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`geometry`] — polygons, `REG*` regions, MBBs, `E_l`/`E'_m` areas,
//!   clipping ([`cardir_geometry`]);
//! * [`core`] — `Compute-CDR`, `Compute-CDR%`, relations, matrices, the
//!   clipping baseline ([`cardir_core`]);
//! * [`reasoning`] — disjunctive relations, inverses, realizable pairs,
//!   constraint networks, weak composition ([`cardir_reasoning`]);
//! * [`cardirect`] — configurations, XML persistence, the query language
//!   ([`cardir_cardirect`]);
//! * [`index`] — the R-tree used for query pruning ([`cardir_index`]);
//! * [`engine`] — the batch pairwise engine: region caching, the MBB
//!   spatial join, multi-threaded exact passes ([`cardir_engine`]);
//! * [`workloads`] — paper shapes, random generators, the Ancient-Greece
//!   scenario ([`cardir_workloads`]);
//! * [`segment`] — the raster-segmentation substrate of the usage
//!   scenario ([`cardir_segment`]);
//! * [`telemetry`] — stdlib-only counters, histograms, execution traces, and
//!   report / JSON-lines sinks ([`cardir_telemetry`]);
//! * [`faults`] — deterministic failpoint injection for testing the
//!   stack's failure paths ([`cardir_faults`]);
//! * [`extensions`] — topological and distance relations, the paper's
//!   Section-5 future work ([`cardir_extensions`]).
//!
//! ## Quick start
//!
//! ```
//! use cardir::core::{compute_cdr, compute_cdr_pct};
//! use cardir::geometry::Region;
//!
//! // The reference region b and a primary region c half in NE(b), half
//! // in E(b) — Fig. 1c of the paper.
//! let b = Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
//! let c = Region::from_coords([(5.0, 2.0), (7.0, 2.0), (7.0, 6.0), (5.0, 6.0)]).unwrap();
//!
//! assert_eq!(compute_cdr(&c, &b).to_string(), "NE:E");
//! let matrix = compute_cdr_pct(&c, &b);
//! assert_eq!(matrix.to_string(), "0% 0% 50%\n0% 0% 50%\n0% 0% 0%");
//! ```

pub mod error;

pub use cardir_cardirect as cardirect;
pub use cardir_core as core;
pub use cardir_engine as engine;
pub use cardir_extensions as extensions;
pub use cardir_faults as faults;
pub use cardir_geometry as geometry;
pub use cardir_index as index;
pub use cardir_reasoning as reasoning;
pub use cardir_segment as segment;
pub use cardir_telemetry as telemetry;
pub use cardir_workloads as workloads;

pub use error::CardirError;
