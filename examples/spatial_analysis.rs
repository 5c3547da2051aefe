//! The Section-5 future work in action: combining cardinal direction,
//! topological and qualitative distance relations into one spatial
//! description of every pair in the Ancient-Greece scenario.
//!
//! Run with: `cargo run --example spatial_analysis`

use cardir::extensions::{describe, DistanceScheme};
use cardir::workloads::greece;

fn main() {
    let regions = greece::scenario();
    // Scale distances to Attica's diameter, the paper's focal region.
    let attica = regions
        .iter()
        .find(|r| r.name == "Attica")
        .expect("scenario has Attica");
    let mbb = attica.region.mbb();
    let scheme = DistanceScheme::scaled_to(mbb.width().hypot(mbb.height()));

    println!("direction / topology / distance (exact separation), relative to Attica:\n");
    for r in &regions {
        if r.name == "Attica" {
            continue;
        }
        let d = describe(&r.region, &attica.region, &scheme);
        println!("  {:<14} {d}", r.name);
    }

    // The combination the future work motivates: qualify a directional
    // answer with contact information.
    let pel = regions
        .iter()
        .find(|r| r.name == "Peloponnesos")
        .expect("scenario");
    let d = describe(&pel.region, &attica.region, &scheme);
    println!("\nPeloponnesos vs Attica: {d}");
    assert_eq!(d.direction.to_string(), "B:S:SW:W");
    // The reconstructed regions are adjacent landmasses but not touching
    // polygons — directionally B:S:SW:W, topologically disjoint, close by.
    println!(
        "⇒ \"Peloponnesos lies {}, {} Attica, at {} range\"",
        d.direction, d.topology, d.distance
    );
}
