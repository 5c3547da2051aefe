//! Algebraic closure over disjunctive constraint networks.
//!
//! Indefinite information (`a {N, NW:N} b`) is the reason the paper
//! defines `2^{D*}`; the standard reasoning step over such networks is
//! *path consistency* (algebraic closure): repeatedly refine every edge
//! by
//!
//! ```text
//! D(i,j) ← D(i,j) ∩ inv(D(j,i)) ∩ ⋃ { compose(r1, r2) : r1 ∈ D(i,k), r2 ∈ D(k,j) }
//! ```
//!
//! until a fixpoint. Refinements use the *exact* inverse table and the
//! certified **upper bound** of the weak composition (a relation outside
//! the upper bound is provably incompatible), so every refinement is
//! sound: an edge refined to the empty relation proves the network
//! inconsistent. Like all weak-composition closures, a non-empty
//! fixpoint does not by itself prove consistency — pair it with
//! [`crate::Network`] for witness construction on basic refinements.

use crate::disjunctive::DisjunctiveRelation;
use crate::network::upper_compose_basic;
use crate::pairs::realizable_pairs;
use cardir_core::CardinalRelation;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Errors raised while building a disjunctive network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosureError {
    /// A constraint referenced an undeclared variable.
    UnknownVariable(String),
    /// A variable was declared twice.
    DuplicateVariable(String),
}

impl fmt::Display for ClosureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosureError::UnknownVariable(v) => write!(f, "unknown variable {v:?}"),
            ClosureError::DuplicateVariable(v) => write!(f, "duplicate variable {v:?}"),
        }
    }
}

impl std::error::Error for ClosureError {}

/// Result of running the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureOutcome {
    /// A fixpoint was reached with every edge non-empty.
    Closed,
    /// Some edge refined to the empty relation: provably inconsistent.
    Inconsistent,
}

/// A constraint network over disjunctive cardinal direction relations.
#[derive(Debug, Clone, Default)]
pub struct DisjunctiveNetwork {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Edge constraints for ordered pairs `(i, j)`, `i ≠ j`. Missing
    /// entries mean the universal relation.
    edges: HashMap<(usize, usize), DisjunctiveRelation>,
}

impl DisjunctiveNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        DisjunctiveNetwork::default()
    }

    /// Declares a variable.
    pub fn add_variable(&mut self, name: &str) -> Result<(), ClosureError> {
        if self.index.contains_key(name) {
            return Err(ClosureError::DuplicateVariable(name.to_string()));
        }
        self.index.insert(name.to_string(), self.names.len());
        self.names.push(name.to_string());
        Ok(())
    }

    /// Conjoins the constraint `x D y` (intersecting with any existing
    /// constraint on the pair).
    pub fn constrain(
        &mut self,
        x: &str,
        relation: DisjunctiveRelation,
        y: &str,
    ) -> Result<(), ClosureError> {
        let i = *self
            .index
            .get(x)
            .ok_or_else(|| ClosureError::UnknownVariable(x.to_string()))?;
        let j = *self
            .index
            .get(y)
            .ok_or_else(|| ClosureError::UnknownVariable(y.to_string()))?;
        let entry = self
            .edges
            .entry((i, j))
            .or_insert_with(DisjunctiveRelation::universal);
        *entry = entry.intersection(&relation);
        Ok(())
    }

    /// The current constraint on `(x, y)` (universal if never constrained).
    pub fn constraint(&self, x: &str, y: &str) -> Option<DisjunctiveRelation> {
        let i = *self.index.get(x)?;
        let j = *self.index.get(y)?;
        Some(
            self.edges
                .get(&(i, j))
                .copied()
                .unwrap_or_else(DisjunctiveRelation::universal),
        )
    }

    /// Runs algebraic closure to a fixpoint. Sound: an
    /// [`ClosureOutcome::Inconsistent`] answer is a proof.
    pub fn close(&mut self) -> ClosureOutcome {
        let n = self.names.len();
        if n == 0 {
            return ClosureOutcome::Closed;
        }
        // Materialise the full matrix.
        let mut m: Vec<DisjunctiveRelation> = vec![DisjunctiveRelation::universal(); n * n];
        for (&(i, j), d) in &self.edges {
            m[i * n + j] = *d;
        }
        let mut changed = true;
        while changed {
            changed = false;
            // Converse consistency: D(i,j) ∩ inv(D(j,i)).
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let refined = m[i * n + j].intersection(&inverse_disjunctive(&m[j * n + i]));
                    if refined != m[i * n + j] {
                        m[i * n + j] = refined;
                        changed = true;
                    }
                    if refined.is_empty() {
                        return ClosureOutcome::Inconsistent;
                    }
                }
            }
            // Path refinement through every intermediate k.
            for k in 0..n {
                for i in 0..n {
                    if i == k {
                        continue;
                    }
                    for j in 0..n {
                        if j == i || j == k {
                            continue;
                        }
                        let composed = compose_upper_disjunctive(&m[i * n + k], &m[k * n + j]);
                        let refined = m[i * n + j].intersection(&composed);
                        if refined != m[i * n + j] {
                            if refined.is_empty() {
                                return ClosureOutcome::Inconsistent;
                            }
                            m[i * n + j] = refined;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Write the refined matrix back.
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.edges.insert((i, j), m[i * n + j]);
                }
            }
        }
        ClosureOutcome::Closed
    }
}

/// The inverse of a disjunctive relation: the union of the exact inverses
/// of its members.
pub fn inverse_disjunctive(d: &DisjunctiveRelation) -> DisjunctiveRelation {
    let table = realizable_pairs();
    let mut out = DisjunctiveRelation::EMPTY;
    for r in d.iter() {
        out = out.union(table.compatible(r));
    }
    out
}

/// The certified upper bound of the weak composition of two disjunctive
/// relations: the union of per-pair upper bounds. Basic-pair bounds are
/// memoised process-wide.
pub fn compose_upper_disjunctive(
    d1: &DisjunctiveRelation,
    d2: &DisjunctiveRelation,
) -> DisjunctiveRelation {
    // Composition with the universal relation is universal (cheap exit
    // that also keeps the memo table small).
    if d1.len() == CardinalRelation::COUNT || d2.len() == CardinalRelation::COUNT {
        return DisjunctiveRelation::universal();
    }
    let mut out = DisjunctiveRelation::EMPTY;
    for r1 in d1.iter() {
        for r2 in d2.iter() {
            out = out.union(&memoised_upper(r1, r2));
            if out.len() == CardinalRelation::COUNT {
                return out;
            }
        }
    }
    out
}

fn memoised_upper(r1: CardinalRelation, r2: CardinalRelation) -> DisjunctiveRelation {
    static MEMO: OnceLock<Mutex<HashMap<(u16, u16), DisjunctiveRelation>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = memo.lock().expect("memo lock").get(&(r1.bits(), r2.bits())) {
        return *hit;
    }
    let computed = upper_compose_basic(r1, r2);
    memo.lock()
        .expect("memo lock")
        .insert((r1.bits(), r2.bits()), computed);
    computed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(s: &str) -> CardinalRelation {
        s.parse().unwrap()
    }

    fn single(s: &str) -> DisjunctiveRelation {
        DisjunctiveRelation::singleton(rel(s))
    }

    fn net(vars: &[&str]) -> DisjunctiveNetwork {
        let mut n = DisjunctiveNetwork::new();
        for v in vars {
            n.add_variable(v).unwrap();
        }
        n
    }

    #[test]
    fn build_errors() {
        let mut n = net(&["a"]);
        assert!(matches!(
            n.add_variable("a"),
            Err(ClosureError::DuplicateVariable(_))
        ));
        assert!(matches!(
            n.constrain("a", single("N"), "z"),
            Err(ClosureError::UnknownVariable(_))
        ));
    }

    #[test]
    fn constrain_intersects() {
        let mut n = net(&["a", "b"]);
        n.constrain(
            "a",
            DisjunctiveRelation::from_relations([rel("N"), rel("W")]),
            "b",
        )
        .unwrap();
        n.constrain(
            "a",
            DisjunctiveRelation::from_relations([rel("W"), rel("S")]),
            "b",
        )
        .unwrap();
        let d = n.constraint("a", "b").unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains(rel("W")));
    }

    #[test]
    fn chain_refines_transitive_edge() {
        // a SW b, b SW c: after closure the a–c edge collapses to {SW}.
        let mut n = net(&["a", "b", "c"]);
        n.constrain("a", single("SW"), "b").unwrap();
        n.constrain("b", single("SW"), "c").unwrap();
        assert_eq!(n.close(), ClosureOutcome::Closed);
        let ac = n.constraint("a", "c").unwrap();
        assert_eq!(ac.len(), 1, "{ac}");
        assert!(ac.contains(rel("SW")));
        // And converse consistency filled the reverse edge.
        let ca = n.constraint("c", "a").unwrap();
        assert_eq!(ca.len(), 1);
        assert!(ca.contains(rel("NE")));
    }

    #[test]
    fn contradiction_is_detected() {
        let mut n = net(&["a", "b", "c"]);
        n.constrain("a", single("SW"), "b").unwrap();
        n.constrain("b", single("SW"), "c").unwrap();
        n.constrain("a", single("NE"), "c").unwrap();
        assert_eq!(n.close(), ClosureOutcome::Inconsistent);
    }

    #[test]
    fn converse_contradiction_is_detected() {
        let mut n = net(&["a", "b"]);
        n.constrain("a", single("N"), "b").unwrap();
        n.constrain("b", single("N"), "a").unwrap();
        assert_eq!(n.close(), ClosureOutcome::Inconsistent);
    }

    #[test]
    fn disjunction_narrows_through_composition() {
        // a is N or S of b; b N c; and a is known north-ish of c in a way
        // only consistent with a N b.
        let mut n = net(&["a", "b", "c"]);
        n.constrain(
            "a",
            DisjunctiveRelation::from_relations([rel("N"), rel("S")]),
            "b",
        )
        .unwrap();
        n.constrain("b", single("N"), "c").unwrap();
        n.constrain("c", single("S"), "a").unwrap(); // a strictly north of c
        assert_eq!(n.close(), ClosureOutcome::Closed);
        let ab = n.constraint("a", "b").unwrap();
        // a S b would put a below b, but a must be north of c = north of
        // …: S survives only if composition allows; at minimum the edge
        // must still contain N.
        assert!(ab.contains(rel("N")), "{ab}");
    }

    #[test]
    fn closure_is_idempotent() {
        let mut n = net(&["a", "b", "c"]);
        n.constrain(
            "a",
            DisjunctiveRelation::from_relations([rel("NW"), rel("W")]),
            "b",
        )
        .unwrap();
        n.constrain("b", single("SW"), "c").unwrap();
        assert_eq!(n.close(), ClosureOutcome::Closed);
        let snapshot: Vec<_> = ["a", "b", "c"]
            .iter()
            .flat_map(|x| {
                ["a", "b", "c"]
                    .iter()
                    .map(move |y| (x.to_string(), y.to_string()))
            })
            .filter(|(x, y)| x != y)
            .map(|(x, y)| n.constraint(&x, &y).unwrap())
            .collect();
        assert_eq!(n.close(), ClosureOutcome::Closed);
        let again: Vec<_> = ["a", "b", "c"]
            .iter()
            .flat_map(|x| {
                ["a", "b", "c"]
                    .iter()
                    .map(move |y| (x.to_string(), y.to_string()))
            })
            .filter(|(x, y)| x != y)
            .map(|(x, y)| n.constraint(&x, &y).unwrap())
            .collect();
        assert_eq!(snapshot, again);
    }

    #[test]
    fn closure_preserves_satisfiable_basic_networks() {
        // Relations observed on concrete geometry stay non-empty under
        // closure (soundness of the refinements).
        use cardir_core::compute_cdr;
        use cardir_geometry::Region;
        let rects = [
            Region::from_coords([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]).unwrap(),
            Region::from_coords([(3.0, 1.0), (5.0, 1.0), (5.0, 3.0), (3.0, 3.0)]).unwrap(),
            Region::from_coords([(1.0, 4.0), (4.0, 4.0), (4.0, 6.0), (1.0, 6.0)]).unwrap(),
        ];
        let names = ["a", "b", "c"];
        let mut n = net(&names);
        for (i, x) in names.iter().enumerate() {
            for (j, y) in names.iter().enumerate() {
                if i != j {
                    n.constrain(
                        x,
                        DisjunctiveRelation::singleton(compute_cdr(&rects[i], &rects[j])),
                        y,
                    )
                    .unwrap();
                }
            }
        }
        assert_eq!(n.close(), ClosureOutcome::Closed);
    }

    #[test]
    fn inverse_disjunctive_unions_members() {
        let d = DisjunctiveRelation::from_relations([rel("SW"), rel("NE")]);
        let inv = inverse_disjunctive(&d);
        assert!(inv.contains(rel("NE")));
        assert!(inv.contains(rel("SW")));
        assert_eq!(inv.len(), 2);
    }

    #[test]
    fn universal_composition_short_circuits() {
        let u = DisjunctiveRelation::universal();
        let d = single("N");
        assert_eq!(
            compose_upper_disjunctive(&u, &d).len(),
            CardinalRelation::COUNT
        );
    }
}
