//! Constraint networks of basic cardinal direction relations.
//!
//! A network holds variables and constraints `x R y` (basic relations).
//! Deciding consistency is the reasoning problem studied in the papers the
//! EDBT paper builds on (Skiadopoulos & Koubarakis, CP'02). The solver
//! here works in two phases:
//!
//! 1. **Endpoint phase (exact refutation).** Every relation translates to
//!    order constraints over the mbb endpoints (e.g. `a S b` forces
//!    `sup_y(a) ≤ inf_y(b)` and `inf_x(b) ≤ inf_x(a) ≤ sup_x(a) ≤
//!    sup_x(b)`). The conjunction is solved as a difference-constraint
//!    graph by Bellman-Ford; a positive cycle proves the network
//!    **inconsistent**.
//! 2. **Occupancy phase (verified witnesses).** Given concrete endpoint
//!    values, each variable's mbb is cut by its partners' grid lines into
//!    cells; occupying *all* cells whose tile is permitted by every
//!    constraint maximises coverage, so the network is satisfiable under
//!    this endpoint assignment iff that maximal occupancy covers every
//!    required tile and all four mbb sides. On success the solver returns
//!    explicit polygon regions, re-verified through
//!    [`cardir_core::compute_cdr`].
//!
//! The endpoint phase tries a set of feasible assignments: the earliest
//! and latest Bellman-Ford schedules, their midpoint, and eight
//! deterministic randomized restarts (seeding the relaxation with random
//! offsets yields the least feasible schedule above the seed, each with a
//! different non-forced tie structure). If none admits an occupancy
//! witness the solver answers [`Outcome::Unknown`] rather than claiming
//! inconsistency — soundness is absolute (witnesses are machine-checked;
//! refutations come only from the exact endpoint phase), while
//! completeness of the occupancy phase depends on the tried order types.
//! The `solver_completeness` experiment measures the gap empirically:
//! zero on satisfiable-by-construction networks up to 4 variables, a few
//! percent at 5–6 (see DESIGN.md §9 and EXPERIMENTS.md E10).

use crate::witness::realize;
use cardir_core::CardinalRelation;
use cardir_geometry::{Band, Region};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while building a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A constraint referenced an undeclared variable.
    UnknownVariable(String),
    /// A variable was declared twice.
    DuplicateVariable(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownVariable(v) => write!(f, "unknown variable {v:?}"),
            NetworkError::DuplicateVariable(v) => write!(f, "duplicate variable {v:?}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A satisfying assignment: one concrete `REG*` region per variable, each
/// constraint re-verified with `compute_cdr`.
#[derive(Debug, Clone)]
pub struct Solution {
    regions: Vec<(String, Region)>,
}

impl Solution {
    /// The region assigned to `variable`, if it exists.
    pub fn region(&self, variable: &str) -> Option<&Region> {
        self.regions
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, r)| r)
    }

    /// All assignments in declaration order.
    pub fn regions(&self) -> &[(String, Region)] {
        &self.regions
    }
}

/// Result of [`Network::solve`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A machine-verified witness exists.
    Consistent(Box<Solution>),
    /// The endpoint order constraints are unsatisfiable: provably no model.
    Inconsistent,
    /// No witness found under the canonical endpoint assignments; the
    /// solver cannot decide (see module docs).
    Unknown,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Consistent`].
    pub fn is_consistent(&self) -> bool {
        matches!(self, Outcome::Consistent(_))
    }

    /// Returns `true` for [`Outcome::Inconsistent`].
    pub fn is_inconsistent(&self) -> bool {
        matches!(self, Outcome::Inconsistent)
    }
}

/// A network of basic cardinal direction constraints.
#[derive(Debug, Clone, Default)]
pub struct Network {
    names: Vec<String>,
    index: HashMap<String, usize>,
    constraints: Vec<(usize, CardinalRelation, usize)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Declares a variable.
    pub fn add_variable(&mut self, name: &str) -> Result<(), NetworkError> {
        if self.index.contains_key(name) {
            return Err(NetworkError::DuplicateVariable(name.to_string()));
        }
        self.index.insert(name.to_string(), self.names.len());
        self.names.push(name.to_string());
        Ok(())
    }

    /// Adds the constraint `primary R reference`.
    pub fn add_constraint(
        &mut self,
        primary: &str,
        relation: CardinalRelation,
        reference: &str,
    ) -> Result<(), NetworkError> {
        let p = *self
            .index
            .get(primary)
            .ok_or_else(|| NetworkError::UnknownVariable(primary.to_string()))?;
        let r = *self
            .index
            .get(reference)
            .ok_or_else(|| NetworkError::UnknownVariable(reference.to_string()))?;
        self.constraints.push((p, relation, r));
        Ok(())
    }

    /// Variable names in declaration order.
    pub fn variables(&self) -> &[String] {
        &self.names
    }

    /// The constraints as `(primary, relation, reference)` name triples.
    pub fn constraints(&self) -> impl Iterator<Item = (&str, CardinalRelation, &str)> {
        self.constraints
            .iter()
            .map(|&(p, r, q)| (self.names[p].as_str(), r, self.names[q].as_str()))
    }

    /// Decides consistency (see the module docs for the exact guarantee).
    pub fn solve(&self) -> Outcome {
        if self.names.is_empty() {
            return Outcome::Consistent(Box::new(Solution {
                regions: Vec::new(),
            }));
        }
        let n = self.names.len();
        let edges = self.endpoint_edges();
        let Some(earliest) = longest_paths(4 * n, &edges) else {
            return Outcome::Inconsistent;
        };
        // The "latest" schedule: push every endpoint as high as possible
        // below a common horizon, producing the opposite tie-breaking.
        let latest = latest_schedule(4 * n, &edges, &earliest);
        // The midpoint schedule: the sum of two feasible schedules
        // satisfies every difference constraint with doubled slack, and
        // separates endpoints that are tied in only one of the extremes.
        let midpoint: Vec<i64> = earliest.iter().zip(&latest).map(|(e, l)| e + l).collect();

        let mut candidates = vec![earliest, latest, midpoint];
        // Randomized restarts: seeding the longest-path relaxation with
        // non-negative offsets yields the pointwise-least feasible
        // schedule above the seed — feasible by construction, with a
        // different (non-forced) tie structure per seed. Deterministic
        // seeding keeps results reproducible.
        let mut lcg: u64 = 0x2004_EDB7 ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..8 {
            let init: Vec<i64> = (0..4 * n)
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((lcg >> 33) % (4 * n as u64 + 1)) as i64
                })
                .collect();
            if let Some(schedule) = longest_paths_from(init, &edges) {
                candidates.push(schedule);
            }
        }

        for values in candidates {
            if let Some(regions) = realize(&values, n, &self.constraints) {
                let solution = Solution {
                    regions: self.names.iter().cloned().zip(regions).collect(),
                };
                debug_assert!(self.verify(&solution));
                return Outcome::Consistent(Box::new(solution));
            }
        }
        Outcome::Unknown
    }

    /// Re-checks every constraint of a solution with `compute_cdr`.
    pub fn verify(&self, solution: &Solution) -> bool {
        self.constraints.iter().all(|&(p, rel, q)| {
            let (_, a) = &solution.regions[p];
            let (_, b) = &solution.regions[q];
            cardir_core::compute_cdr(a, b) == rel
        })
    }

    /// Difference-constraint edges over endpoint nodes. Node layout per
    /// variable `i`: `4i` = inf_x, `4i+1` = sup_x, `4i+2` = inf_y,
    /// `4i+3` = sup_y. Edge `(u, v, w)` means `val(v) ≥ val(u) + w`.
    fn endpoint_edges(&self) -> Vec<(usize, usize, i64)> {
        let mut edges = Vec::new();
        for i in 0..self.names.len() {
            // Non-degenerate mbb on both axes.
            edges.push((4 * i, 4 * i + 1, 1));
            edges.push((4 * i + 2, 4 * i + 3, 1));
        }
        for &(a, rel, b) in &self.constraints {
            push_constraint_edges(&mut edges, a, rel, b);
        }
        edges
    }
}

/// Appends the endpoint order edges of one constraint `a R b` (variables
/// addressed by index in the 4-nodes-per-variable layout).
fn push_constraint_edges(
    edges: &mut Vec<(usize, usize, i64)>,
    a: usize,
    rel: CardinalRelation,
    b: usize,
) {
    let (xa_lo, xa_hi, ya_lo, ya_hi) = (4 * a, 4 * a + 1, 4 * a + 2, 4 * a + 3);
    let (xb_lo, xb_hi, yb_lo, yb_hi) = (4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3);
    let (xs, ys) = band_sets(rel);
    axis_edges(edges, xs, xa_lo, xa_hi, xb_lo, xb_hi);
    axis_edges(edges, ys, ya_lo, ya_hi, yb_lo, yb_hi);
}

/// The certified upper bound of the weak composition `R1 ∘ R2`, computed
/// from the endpoint phase alone: a candidate `R3` survives iff the
/// order constraints of `{a R1 b, b R2 c, a R3 c}` are satisfiable. Fast
/// (no witness search) and sound for pruning — everything in the true
/// composition survives. Used by the disjunctive algebraic closure.
pub(crate) fn upper_compose_basic(
    r1: CardinalRelation,
    r2: CardinalRelation,
) -> crate::disjunctive::DisjunctiveRelation {
    let mut base: Vec<(usize, usize, i64)> = Vec::new();
    for i in 0..3 {
        base.push((4 * i, 4 * i + 1, 1));
        base.push((4 * i + 2, 4 * i + 3, 1));
    }
    push_constraint_edges(&mut base, 0, r1, 1);
    push_constraint_edges(&mut base, 1, r2, 2);
    let mut out = crate::disjunctive::DisjunctiveRelation::EMPTY;
    for r3 in CardinalRelation::all() {
        let mut edges = base.clone();
        push_constraint_edges(&mut edges, 0, r3, 2);
        if longest_paths(12, &edges).is_some() {
            out.insert(r3);
        }
    }
    out
}

/// The x- and y-band sets touched by a relation's tiles.
fn band_sets(rel: CardinalRelation) -> ([bool; 3], [bool; 3]) {
    let mut xs = [false; 3]; // Lower, Middle, Upper
    let mut ys = [false; 3];
    for t in rel.tiles() {
        let (x, y) = t.bands();
        xs[band_idx(x)] = true;
        ys[band_idx(y)] = true;
    }
    (xs, ys)
}

fn band_idx(b: Band) -> usize {
    match b {
        Band::Lower => 0,
        Band::Middle => 1,
        Band::Upper => 2,
    }
}

/// Endpoint constraints of one axis for `a R b`, given which bands of
/// `b`'s span the relation touches.
fn axis_edges(
    edges: &mut Vec<(usize, usize, i64)>,
    bands: [bool; 3],
    a_lo: usize,
    a_hi: usize,
    b_lo: usize,
    b_hi: usize,
) {
    let [lower, middle, upper] = bands;
    if lower {
        // Positive area strictly below b's span: inf(a) < inf(b).
        edges.push((a_lo, b_lo, 1));
    } else if middle {
        // Leftmost mass inside the span: inf(a) ≥ inf(b).
        edges.push((b_lo, a_lo, 0));
    } else {
        // Only the upper band: inf(a) ≥ sup(b).
        edges.push((b_hi, a_lo, 0));
    }
    if upper {
        edges.push((b_hi, a_hi, 1));
    } else if middle {
        edges.push((a_hi, b_hi, 0));
    } else {
        edges.push((a_hi, b_lo, 0));
    }
    if middle {
        // Positive overlap with the span interior.
        edges.push((a_lo, b_hi, 1));
        edges.push((b_lo, a_hi, 1));
    }
}

/// Longest-path (earliest) schedule of a difference-constraint system, or
/// `None` on a positive cycle.
fn longest_paths(nodes: usize, edges: &[(usize, usize, i64)]) -> Option<Vec<i64>> {
    longest_paths_from(vec![0; nodes], edges)
}

/// The pointwise-least feasible schedule above `init` (Bellman-Ford
/// relaxation to a fixpoint), or `None` on a positive cycle. Any
/// non-negative `init` yields a feasible schedule; different seeds
/// produce different non-forced tie structures.
fn longest_paths_from(init: Vec<i64>, edges: &[(usize, usize, i64)]) -> Option<Vec<i64>> {
    let nodes = init.len();
    let mut dist = init;
    for round in 0..=nodes {
        let mut changed = false;
        for &(u, v, w) in edges {
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == nodes {
            return None;
        }
    }
    None
}

/// The "latest" schedule: each endpoint pushed as high as the constraints
/// allow below the horizon `max(earliest) `, computed as a longest-path
/// problem on the reversed graph.
fn latest_schedule(nodes: usize, edges: &[(usize, usize, i64)], earliest: &[i64]) -> Vec<i64> {
    let horizon = earliest.iter().copied().max().unwrap_or(0);
    // slack[v] = longest path from v (over reversed edges); latest value =
    // horizon − slack.
    let mut slack = vec![0i64; nodes];
    loop {
        let mut changed = false;
        for &(u, v, w) in edges {
            if slack[v] + w > slack[u] {
                slack[u] = slack[v] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    slack.iter().map(|s| horizon - s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(s: &str) -> CardinalRelation {
        s.parse().unwrap()
    }

    fn net(vars: &[&str], cons: &[(&str, &str, &str)]) -> Network {
        let mut n = Network::new();
        for v in vars {
            n.add_variable(v).unwrap();
        }
        for (p, r, q) in cons {
            n.add_constraint(p, rel(r), q).unwrap();
        }
        n
    }

    #[test]
    fn build_errors() {
        let mut n = Network::new();
        n.add_variable("a").unwrap();
        assert_eq!(
            n.add_variable("a").unwrap_err(),
            NetworkError::DuplicateVariable("a".into())
        );
        assert_eq!(
            n.add_constraint("a", rel("S"), "z").unwrap_err(),
            NetworkError::UnknownVariable("z".into())
        );
    }

    #[test]
    fn single_constraint_networks_are_consistent() {
        for r in [
            "S",
            "NE:E",
            "B",
            "B:S:SW:W",
            "NW:NE",
            "B:S:SW:W:NW:N:NE:E:SE",
        ] {
            let n = net(&["a", "b"], &[("a", r, "b")]);
            let outcome = n.solve();
            assert!(outcome.is_consistent(), "{r}: {outcome:?}");
            if let Outcome::Consistent(sol) = outcome {
                assert!(n.verify(&sol));
                let a = sol.region("a").unwrap();
                let b = sol.region("b").unwrap();
                assert_eq!(cardir_core::compute_cdr(a, b), rel(r));
            }
        }
    }

    #[test]
    fn contradictory_pair_is_inconsistent() {
        // a strictly north of b and b strictly north of a.
        let n = net(&["a", "b"], &[("a", "N", "b"), ("b", "N", "a")]);
        assert!(n.solve().is_inconsistent());
    }

    #[test]
    fn cyclic_strict_chain_is_inconsistent() {
        // a W b, b W c, c W a: an impossible cycle of strict westward
        // containments.
        let n = net(
            &["a", "b", "c"],
            &[("a", "SW", "b"), ("b", "SW", "c"), ("c", "SW", "a")],
        );
        assert!(n.solve().is_inconsistent());
    }

    #[test]
    fn consistent_triangle() {
        // a SW b, b SW c implies a can be SW of c.
        let n = net(
            &["a", "b", "c"],
            &[("a", "SW", "b"), ("b", "SW", "c"), ("a", "SW", "c")],
        );
        let outcome = n.solve();
        assert!(outcome.is_consistent(), "{outcome:?}");
    }

    #[test]
    fn pair_table_agrees_with_network_on_pairs() {
        // For every single-tile R1 and all R2: the two-variable network
        // {a R1 b, b R2 a} must be consistent exactly when the pair table
        // says so — and never Unknown on the realizable side.
        use crate::pairs::realizable_pairs;
        let table = realizable_pairs();
        for r1 in CardinalRelation::all().filter(|r| r.is_single_tile()) {
            for r2 in CardinalRelation::all() {
                let n = Network {
                    names: vec!["a".into(), "b".into()],
                    index: [("a".to_string(), 0), ("b".to_string(), 1)]
                        .into_iter()
                        .collect(),
                    constraints: vec![(0, r1, 1), (1, r2, 0)],
                };
                let outcome = n.solve();
                if table.realizable(r1, r2) {
                    assert!(
                        outcome.is_consistent(),
                        "({r1}, {r2}) realizable but solver said {outcome:?}"
                    );
                } else {
                    assert!(
                        !outcome.is_consistent(),
                        "({r1}, {r2}) not realizable but solver found a witness"
                    );
                }
            }
        }
    }

    #[test]
    fn self_constraint_only_b_is_consistent() {
        let n = net(&["a"], &[("a", "B", "a")]);
        assert!(n.solve().is_consistent());
        let n = net(&["a"], &[("a", "N", "a")]);
        assert!(n.solve().is_inconsistent());
    }

    #[test]
    fn empty_network_is_trivially_consistent() {
        assert!(Network::new().solve().is_consistent());
    }

    #[test]
    fn surround_configuration_has_witness() {
        // b surrounded by a (all eight peripheral tiles) while c sits
        // north of both.
        let n = net(
            &["a", "b", "c"],
            &[
                ("a", "S:SW:W:NW:N:NE:E:SE", "b"),
                ("c", "N", "b"),
                ("c", "N", "a"),
            ],
        );
        let outcome = n.solve();
        assert!(outcome.is_consistent(), "{outcome:?}");
    }

    #[test]
    fn surround_with_overreaching_companion_is_inconsistent() {
        // c N b forces c's x-span inside b's, but c N:NW:NE a demands
        // c's span strictly wider than a's — impossible while a's span
        // strictly contains b's (it surrounds b).
        let n = net(
            &["a", "b", "c"],
            &[
                ("a", "S:SW:W:NW:N:NE:E:SE", "b"),
                ("c", "N", "b"),
                ("c", "N:NW:NE", "a"),
            ],
        );
        assert!(n.solve().is_inconsistent());
    }

    #[test]
    fn tile_enum_is_consistent_with_band_sets() {
        let (xs, ys) = band_sets(rel("SW"));
        assert_eq!(xs, [true, false, false]);
        assert_eq!(ys, [true, false, false]);
        let (xs, ys) = band_sets(rel("B:N"));
        assert_eq!(xs, [false, true, false]);
        assert_eq!(ys, [false, true, true]);
    }
}
