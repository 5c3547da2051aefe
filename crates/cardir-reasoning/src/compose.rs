//! Weak composition with certified bounds.
//!
//! The composition `R1 ∘ R2` of cardinal direction relations — all `R3`
//! admitting regions with `a R1 b`, `b R2 c`, `a R3 c` — is studied in the
//! companion papers the EDBT paper cites ([20, 22]). This module computes
//! it per query through the constraint-network solver:
//!
//! * a candidate `R3` refuted by the **endpoint phase** (an exact
//!   argument) is certainly *not* in the composition;
//! * a candidate for which the solver finds a **verified witness** is
//!   certainly in it;
//! * the rare remainder is reported in the gap between the two bounds.
//!
//! The result is a [`CompositionBounds`]: `lower ⊆ R1 ∘ R2 ⊆ upper`, with
//! [`CompositionBounds::is_exact`] telling whether the bounds coincide
//! (they do for all single-tile pairs; the test suite checks a sample).

use crate::disjunctive::DisjunctiveRelation;
use crate::network::{Network, Outcome};
use cardir_core::CardinalRelation;

/// Certified bounds on a weak composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionBounds {
    /// Relations with a machine-verified witness: definitely in `R1 ∘ R2`.
    pub lower: DisjunctiveRelation,
    /// Relations not refuted by the endpoint phase: everything in
    /// `R1 ∘ R2` is here.
    pub upper: DisjunctiveRelation,
}

impl CompositionBounds {
    /// Returns `true` when the bounds coincide, i.e. the composition is
    /// known exactly.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// The undecided candidates (`upper \ lower`).
    pub fn gap(&self) -> DisjunctiveRelation {
        self.upper.difference(&self.lower)
    }
}

/// Computes certified bounds on the weak composition `R1 ∘ R2`.
///
/// ```
/// use cardir_reasoning::weak_compose;
/// let bounds = weak_compose("SW".parse().unwrap(), "SW".parse().unwrap());
/// // Chaining strict south-west placements keeps the composite south-west.
/// assert!(bounds.lower.contains("SW".parse().unwrap()));
/// assert!(!bounds.upper.contains("NE".parse().unwrap()));
/// ```
pub fn weak_compose(r1: CardinalRelation, r2: CardinalRelation) -> CompositionBounds {
    let mut lower = DisjunctiveRelation::EMPTY;
    let mut upper = DisjunctiveRelation::EMPTY;
    for r3 in CardinalRelation::all() {
        let mut net = Network::new();
        net.add_variable("a").expect("fresh network");
        net.add_variable("b").expect("fresh network");
        net.add_variable("c").expect("fresh network");
        net.add_constraint("a", r1, "b")
            .expect("declared variables");
        net.add_constraint("b", r2, "c")
            .expect("declared variables");
        net.add_constraint("a", r3, "c")
            .expect("declared variables");
        match net.solve() {
            Outcome::Consistent(_) => {
                lower.insert(r3);
                upper.insert(r3);
            }
            Outcome::Unknown => {
                upper.insert(r3);
            }
            Outcome::Inconsistent => {}
        }
    }
    CompositionBounds { lower, upper }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(s: &str) -> CardinalRelation {
        s.parse().unwrap()
    }

    #[test]
    fn sw_compose_sw_is_exactly_sw() {
        let b = weak_compose(rel("SW"), rel("SW"));
        assert!(b.is_exact(), "gap: {}", b.gap());
        assert_eq!(b.lower.len(), 1);
        assert!(b.lower.contains(rel("SW")));
    }

    #[test]
    fn n_compose_s_is_exactly_the_middle_column() {
        // a N b forces a's x-span inside b's, and b S c forces b's inside
        // c's — so relative to c, region a can only use the middle column
        // {S, B, N}. Vertically it is unconstrained (it may even flank c
        // above *and* below, REG* being disconnected): exactly the 7
        // non-empty subsets of {S, B, N}.
        let b = weak_compose(rel("N"), rel("S"));
        assert!(b.is_exact(), "gap: {}", b.gap());
        assert_eq!(b.lower.len(), 7, "{}", b.lower);
        for r3 in ["S", "B", "N", "B:S", "B:N", "S:N", "B:S:N"] {
            assert!(b.lower.contains(rel(r3)), "missing {r3}");
        }
    }

    #[test]
    fn w_compose_w_is_exactly_w() {
        // a W b nests a's y-span inside b's, and b W c nests b's inside
        // c's, while the x order chains strictly westward: a W c, only.
        let b = weak_compose(rel("W"), rel("W"));
        assert!(b.is_exact(), "gap: {}", b.gap());
        assert_eq!(b.lower.len(), 1, "{}", b.lower);
        assert!(b.lower.contains(rel("W")));
    }

    #[test]
    fn single_tile_samples_are_exact() {
        // Spot-check exactness on a representative sample of the 81
        // single-tile compositions (the full sweep runs in the benches).
        for (r1, r2) in [("S", "S"), ("S", "W"), ("NE", "SW"), ("B", "B"), ("E", "N")] {
            let b = weak_compose(rel(r1), rel(r2));
            assert!(b.is_exact(), "{r1} ∘ {r2} gap: {}", b.gap());
            assert!(!b.lower.is_empty(), "{r1} ∘ {r2} empty");
        }
    }

    #[test]
    fn b_compose_b_contains_b() {
        let b = weak_compose(rel("B"), rel("B"));
        assert!(b.lower.contains(rel("B")));
        // Nothing outside the reference box can appear: a sits inside
        // mbb(b) which sits inside mbb(c)… so only B.
        assert!(b.is_exact());
        assert_eq!(b.lower.len(), 1);
    }
}
