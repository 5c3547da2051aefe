//! Qualitative reasoning over cardinal direction relations.
//!
//! Section 2 of the paper defines, beyond the basic relations computed by
//! `cardir-core`, the reasoning layer studied in the companion papers it
//! cites (Skiadopoulos & Koubarakis, SSTD'01 / CP'02 / AIJ'04): disjunctive
//! relations, inverse relations, the pair characterisation of mutual
//! position, composition, and consistency of constraint networks. This
//! crate implements that layer:
//!
//! * [`DisjunctiveRelation`] — elements of `2^{D*}` (`a {N, W} b`);
//! * [`inverse()`] — the exact inverse `inv(R)` as a disjunctive relation,
//!   computed from the realizable-pair table;
//! * [`realizable_pairs`] — the exact set of pairs `(R1, R2)` with
//!   `a R1 b ∧ b R2 a` satisfiable, derived by exhaustive enumeration of
//!   canonical coordinate order types (sound *and* complete: relations
//!   depend only on the order type of the mbb endpoints and on which
//!   grid cells each region meets, both of which are enumerated);
//! * [`Network`] — constraint networks of basic relations with a
//!   consistency solver that, on success, returns an explicit polygon
//!   *witness* re-verified through `cardir_core::compute_cdr`;
//! * [`compose`] — weak composition with certified lower/upper bounds.

pub mod closure;
pub mod compose;
pub mod disjunctive;
pub mod inverse;
pub mod network;
pub mod ordertype;
pub mod pairs;
pub mod witness;

pub use closure::{
    compose_upper_disjunctive, inverse_disjunctive, ClosureOutcome, DisjunctiveNetwork,
};
pub use compose::{weak_compose, CompositionBounds};
pub use disjunctive::DisjunctiveRelation;
pub use inverse::inverse;
pub use network::{Network, NetworkError, Outcome, Solution};
pub use pairs::{pair_realizable, realizable_pairs, PairTable};
