//! Experiment E10 (DESIGN.md): the reasoning layer — inverses, pairs,
//! composition bounds, consistency — cross-checked against concrete
//! geometry from the computation algorithms.

use cardir::core::{compute_cdr, CardinalRelation};
use cardir::reasoning::{inverse, realizable_pairs, weak_compose, Network, Outcome};
use cardir::workloads::greece;

/// Every geometric pair observed in the Greece scenario is predicted
/// realizable by the exact pair table, and each observed inverse is a
/// disjunct of `inv`.
#[test]
fn e10_greece_pairs_are_realizable() {
    let regions = greece::scenario();
    let table = realizable_pairs();
    for a in &regions {
        for b in &regions {
            if a.name == b.name {
                continue;
            }
            let r_ab = compute_cdr(&a.region, &b.region);
            let r_ba = compute_cdr(&b.region, &a.region);
            assert!(
                table.realizable(r_ab, r_ba),
                "({}, {}) gave unpredicted pair ({r_ab}, {r_ba})",
                a.name,
                b.name
            );
            assert!(inverse(r_ab).contains(r_ba));
            assert!(inverse(r_ba).contains(r_ab));
        }
    }
}

/// The paper's Section 2 narrative: the position of two regions is fully
/// characterised by the pair (R1, R2) with each a disjunct of the other's
/// inverse — conditions (c) and (d).
#[test]
fn e10_pair_characterization_conditions() {
    for r1 in CardinalRelation::all().filter(|r| r.tile_count() <= 2) {
        for r2 in inverse(r1).iter() {
            assert!(inverse(r2).contains(r1), "({r1}, {r2})");
        }
    }
}

/// Single-tile compositions have exact bounds, and chaining agrees with
/// geometry: a witness for (R1, R2) composed through b yields an observed
/// R3 inside the lower bound.
#[test]
fn e10_composition_agrees_with_witnesses() {
    for (r1, r2) in [
        ("SW", "SW"),
        ("N", "S"),
        ("W", "W"),
        ("B", "NE"),
        ("S", "E"),
    ] {
        let r1: CardinalRelation = r1.parse().unwrap();
        let r2: CardinalRelation = r2.parse().unwrap();
        let bounds = weak_compose(r1, r2);
        assert!(bounds.is_exact(), "{r1} ∘ {r2} gap {}", bounds.gap());
        // Construct a witness for {a R1 b, b R2 c} and check the observed
        // a-to-c relation is in the bound.
        let mut net = Network::new();
        for v in ["a", "b", "c"] {
            net.add_variable(v).unwrap();
        }
        net.add_constraint("a", r1, "b").unwrap();
        net.add_constraint("b", r2, "c").unwrap();
        match net.solve() {
            Outcome::Consistent(sol) => {
                let observed = compute_cdr(sol.region("a").unwrap(), sol.region("c").unwrap());
                assert!(
                    bounds.lower.contains(observed),
                    "observed {observed} outside {r1} ∘ {r2} = {}",
                    bounds.lower
                );
            }
            other => panic!("{r1}/{r2}: {other:?}"),
        }
    }
}

/// Networks built from actual scenario relations are consistent (they
/// have the scenario itself as a model) and the solver finds a witness.
#[test]
fn e10_scenario_network_is_consistent() {
    let regions = greece::scenario();
    let mut net = Network::new();
    for r in &regions {
        net.add_variable(r.name).unwrap();
    }
    // A spanning set of observed constraints (full O(n²) would also work
    // but keep the test fast).
    for pair in regions.windows(2) {
        let rel = compute_cdr(&pair[0].region, &pair[1].region);
        net.add_constraint(pair[0].name, rel, pair[1].name).unwrap();
    }
    let outcome = net.solve();
    assert!(outcome.is_consistent(), "{outcome:?}");
}

/// Larger inconsistent networks are refuted.
#[test]
fn e10_refutes_global_contradictions() {
    let mut net = Network::new();
    for v in ["a", "b", "c", "d"] {
        net.add_variable(v).unwrap();
    }
    // A chain of strict northward placements closed into a cycle.
    net.add_constraint("a", "N".parse().unwrap(), "b").unwrap();
    net.add_constraint("b", "N".parse().unwrap(), "c").unwrap();
    net.add_constraint("c", "N".parse().unwrap(), "d").unwrap();
    net.add_constraint("d", "N".parse().unwrap(), "a").unwrap();
    assert!(net.solve().is_inconsistent());
}

/// Inverse cardinalities for all nine single-tile relations: corners pin
/// the inverse to the single opposite corner; edges and B admit families.
#[test]
fn e10_single_tile_inverse_sizes() {
    let size = |s: &str| inverse(s.parse().unwrap()).len();
    assert_eq!(size("SW"), 1);
    assert_eq!(size("NE"), 1);
    assert_eq!(size("NW"), 1);
    assert_eq!(size("SE"), 1);
    assert_eq!(size("S"), 5); // N family: N, NW:N, N:NE, NW:N:NE, NW:NE
    assert_eq!(size("N"), 5);
    assert_eq!(size("W"), 5);
    assert_eq!(size("E"), 5);
    // B admits every relation whose span covers the inner box — a large
    // family.
    assert!(size("B") > 5);
}
