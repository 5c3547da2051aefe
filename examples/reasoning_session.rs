//! The reasoning layer in action: inverses, realizable pairs, weak
//! composition, and consistency checking with machine-verified witnesses
//! (the Section 2 machinery the paper inherits from its companion
//! papers).
//!
//! Run with: `cargo run --example reasoning_session`

use cardir::core::{compute_cdr, CardinalRelation};
use cardir::reasoning::{
    inverse, pair_realizable, weak_compose, ClosureOutcome, DisjunctiveNetwork,
    DisjunctiveRelation, Network, Outcome,
};

fn main() {
    // Inverse relations: a S b admits which relations of b w.r.t. a?
    let s: CardinalRelation = "S".parse().unwrap();
    let inv = inverse(s);
    println!("inv(S) = {inv}");
    assert!(inv.contains("N".parse().unwrap()));

    // The pair characterization of Section 2: (R1, R2) mutually realizable.
    println!(
        "(S, N) realizable: {}   (S, S) realizable: {}",
        pair_realizable("S".parse().unwrap(), "N".parse().unwrap()),
        pair_realizable("S".parse().unwrap(), "S".parse().unwrap()),
    );

    // Weak composition with certified bounds.
    let bounds = weak_compose("N".parse().unwrap(), "S".parse().unwrap());
    println!(
        "N ∘ S = {} ({}, gap {})",
        bounds.lower,
        if bounds.is_exact() {
            "exact"
        } else {
            "bounded"
        },
        bounds.gap().len()
    );

    // Consistency of a small network, with an explicit witness.
    let mut net = Network::new();
    for v in ["athens", "sparta", "thebes"] {
        net.add_variable(v).unwrap();
    }
    net.add_constraint("sparta", "B:S:SW:W".parse().unwrap(), "athens")
        .unwrap();
    net.add_constraint("thebes", "NW:N".parse().unwrap(), "athens")
        .unwrap();
    net.add_constraint("thebes", "N:NE".parse().unwrap(), "sparta")
        .unwrap();
    match net.solve() {
        Outcome::Consistent(solution) => {
            println!("network is consistent; witness regions:");
            for (name, region) in solution.regions() {
                println!(
                    "  {name}: {} polygon(s), mbb {}",
                    region.polygon_count(),
                    region.mbb()
                );
            }
            // Re-verify one constraint through the computation algorithm.
            let sparta = solution.region("sparta").unwrap();
            let athens = solution.region("athens").unwrap();
            let recomputed = compute_cdr(sparta, athens);
            println!("  re-verified: sparta {recomputed} athens");
            assert_eq!(recomputed.to_string(), "B:S:SW:W");
        }
        other => panic!("expected a witness, got {other:?}"),
    }

    // And an impossible network is refuted by the endpoint phase.
    let mut bad = Network::new();
    bad.add_variable("a").unwrap();
    bad.add_variable("b").unwrap();
    bad.add_constraint("a", "N".parse().unwrap(), "b").unwrap();
    bad.add_constraint("b", "N".parse().unwrap(), "a").unwrap();
    assert!(bad.solve().is_inconsistent());
    println!("contradictory network correctly refuted");

    // Indefinite information: algebraic closure over disjunctive
    // constraints (`2^{D*}`, Section 2).
    let mut dn = DisjunctiveNetwork::new();
    for v in ["a", "b", "c"] {
        dn.add_variable(v).unwrap();
    }
    let n_or_s = DisjunctiveRelation::from_relations([
        "N".parse::<CardinalRelation>().unwrap(),
        "S".parse::<CardinalRelation>().unwrap(),
    ]);
    dn.constrain("a", n_or_s, "b").unwrap();
    dn.constrain(
        "b",
        DisjunctiveRelation::singleton("N".parse().unwrap()),
        "c",
    )
    .unwrap();
    assert_eq!(dn.close(), ClosureOutcome::Closed);
    println!(
        "closure refined a–c from 511 candidates to {}",
        dn.constraint("a", "c").unwrap().len()
    );
}
