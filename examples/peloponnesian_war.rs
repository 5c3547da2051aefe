//! The paper's CARDIRECT walkthrough (Section 4, Figs. 11–12): annotate
//! the map of Ancient Greece at the time of the Peloponnesian war,
//! compute all relations, persist to XML, and run the paper's query.
//!
//! Run with: `cargo run --example peloponnesian_war`

use cardir::cardirect::{evaluate, parse_query, to_xml, Configuration};
use cardir::workloads::greece;

fn main() {
    // Build the configuration from the reconstructed Fig. 11 scenario.
    let mut config = Configuration::new("Ancient Greece", "peloponnesian_war.png");
    for r in greece::scenario() {
        let id = r.name.to_lowercase();
        config
            .add_region(id, r.name, r.alliance.color(), r.region)
            .expect("scenario ids are unique XML names");
    }

    // "Using CARDIRECT, the user can compute the cardinal direction
    // relations … between the identified regions."
    config.compute_all_relations();
    println!("computed {} pairwise relations\n", config.relations().len());

    // Fig. 12 (left): Peloponnesos is B:S:SW:W of Attica.
    let rel = config.relation_between("peloponnesos", "attica").unwrap();
    println!("Peloponnesos {rel} Attica");
    assert_eq!(rel.to_string(), "B:S:SW:W");

    // Fig. 12 (right): Attica's percentage matrix w.r.t. Peloponnesos.
    let pct = config
        .percentages_between("attica", "peloponnesos")
        .unwrap();
    println!("Attica, relative to Peloponnesos:\n{pct:.1}\n");

    // The paper's query: "Find all regions of the Athenean Alliance which
    // are surrounded by a region in the Spartan Alliance."
    let q =
        parse_query("{(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b}").unwrap();
    println!("q = {q}");
    let answers = evaluate(&q, &config).unwrap();
    for binding in &answers {
        let a = config.region(&binding.values[0]).unwrap();
        let b = config.region(&binding.values[1]).unwrap();
        println!("  → {} surrounds {}", a.name, b.name);
    }
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].values, ["peloponnesos", "aegina"]);

    // "The configuration of the image … [is] persistently stored using a
    // simple XML description." — via the crash-safe atomic save
    // (write-temp/fsync/rename, previous generation kept as `.bak`).
    let xml = to_xml(&config);
    println!("\nXML export: {} bytes, starts with:", xml.len());
    for line in xml.lines().take(4) {
        println!("  {line}");
    }
    let path = std::env::temp_dir().join(format!("peloponnesian-war-{}.xml", std::process::id()));
    let report = config.save_to(&path).expect("atomic save succeeds");
    let loaded = Configuration::load_from(&path).expect("saved file loads");
    assert_eq!(loaded.config.len(), config.len());
    assert_eq!(loaded.config.relations().len(), config.relations().len());
    println!(
        "\nXML round-trip verified ({} regions, {} bytes via {:?}).",
        loaded.config.len(),
        report.bytes,
        loaded.source
    );
    let _ = std::fs::remove_file(&path);
}
