//! Linear-time computation of cardinal direction relations between
//! composite polygonal regions.
//!
//! This crate is the primary contribution of Skiadopoulos et al.,
//! *Computing and Handling Cardinal Direction Information* (EDBT 2004):
//!
//! * [`compute_cdr`] — Algorithm `Compute-CDR` (paper Fig. 5): the purely
//!   qualitative cardinal direction relation between two regions in
//!   `REG*`, in `O(k_a + k_b)` time (Theorem 1);
//! * [`compute_cdr_pct`] / [`tile_areas`] — Algorithm `Compute-CDR%`
//!   (paper Fig. 10): the relation *with percentages*, also linear
//!   (Theorem 2), via the `E_l` / `E'_m` signed-area technique;
//! * [`clipping_cdr`] — the polygon-clipping baseline the paper compares
//!   against, instrumented for the Fig. 3 edge-count experiments.
//!
//! The model types follow Section 2 of the paper: [`Tile`],
//! [`CardinalRelation`] (the 511 basic relations `D*`),
//! [`DirectionMatrix`] and [`PercentageMatrix`] (the Goyal–Egenhofer
//! matrix representations).
//!
//! # Example
//!
//! ```
//! use cardir_core::{compute_cdr, compute_cdr_pct};
//! use cardir_geometry::Region;
//!
//! let b = Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
//! // Fig. 1c of the paper: c lies half in NE(b), half in E(b).
//! let c = Region::from_coords([(5.0, 2.0), (7.0, 2.0), (7.0, 6.0), (5.0, 6.0)]).unwrap();
//!
//! assert_eq!(compute_cdr(&c, &b).to_string(), "NE:E");
//! assert_eq!(compute_cdr_pct(&c, &b).to_string(), "0% 0% 50%\n0% 0% 50%\n0% 0% 0%");
//! ```

pub mod baseline;
pub mod compute;
pub mod divide;
pub mod error;
pub mod fused;
pub mod hook;
pub mod matrix;
pub mod percent;
pub mod relation;
pub mod tile;

pub use baseline::{clipping_cdr, ClippingOutcome, ClippingStats};
pub use compute::{
    compute_cdr, compute_cdr_hooked, compute_cdr_with_mbb, compute_cdr_with_stats,
    try_compute_cdr_with_mbb,
};
pub use divide::{classify_subedge, for_each_division, DivisionStats};
pub use error::ComputeError;
pub use fused::{areas_from_soa, cdr_areas_from_soa, cdr_from_soa, EdgeSoa, SoaStore};
pub use hook::{CountingHook, MetricsHook, NoopHook};
pub use matrix::{DirectionMatrix, PercentageMatrix, TileAreas};
pub use percent::{
    compute_cdr_pct, tile_areas, tile_areas_hooked, tile_areas_with_mbb, tile_areas_with_stats,
    try_tile_areas_with_mbb,
};
pub use relation::{CardinalRelation, RelationParseError};
pub use tile::{Tile, ALL_TILES};
