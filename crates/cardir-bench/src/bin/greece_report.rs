//! E7 — the full Fig. 11/12 report: every pairwise relation of the
//! Ancient-Greece scenario, the two relations the paper prints, and the
//! Section-4 query.
//!
//! Run with: `cargo run --release -p cardir-bench --bin greece_report`

use cardir_cardirect::{evaluate, parse_query, Configuration};
use cardir_workloads::greece;

fn main() {
    let mut config = Configuration::new("Ancient Greece", "peloponnesian_war.png");
    for r in greece::scenario() {
        config
            .add_region(r.name.to_lowercase(), r.name, r.alliance.color(), r.region)
            .expect("scenario ids are unique");
    }
    config.compute_all_relations();

    println!("E7 — pairwise cardinal direction relations of the Fig. 11 scenario\n");
    let names: Vec<String> = config.regions().iter().map(|r| r.id.clone()).collect();
    println!("{:<14} relations (primary → reference):", "");
    for p in &names {
        for q in &names {
            if p != q {
                let rel = config.relation_between(p, q).expect("known ids");
                // Keep the report readable: only print rows anchored on
                // the paper's two protagonists plus the surround pair.
                let interesting = p == "peloponnesos" || q == "peloponnesos" || q == "aegina";
                if interesting {
                    println!(
                        "  {:<14} {:<24} {}",
                        config.region(p).unwrap().name,
                        rel.to_string(),
                        config.region(q).unwrap().name
                    );
                }
            }
        }
    }

    println!(
        "\nFig. 12 (left):  Peloponnesos {} Attica",
        config.relation_between("peloponnesos", "attica").unwrap()
    );
    println!("Fig. 12 (right): Attica w.r.t. Peloponnesos, with percentages:");
    println!(
        "{:.1}",
        config
            .percentages_between("attica", "peloponnesos")
            .unwrap()
    );

    let q = parse_query("{(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b}")
        .expect("the paper's query");
    println!("\nSection 4 query: {q}");
    for b in evaluate(&q, &config).expect("evaluates") {
        println!(
            "  → {} surrounds {}",
            config.region(&b.values[0]).unwrap().name,
            config.region(&b.values[1]).unwrap().name
        );
    }
}
