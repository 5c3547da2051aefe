//! A synthetic GIS session: generate an annotated land-cover map, index
//! it, and answer direction queries with and without the R-tree filter
//! step — the retrieval workflow the paper motivates ("retrieve
//! combinations of interesting regions on the basis of a query").
//!
//! Run with: `cargo run --example land_cover_queries`

use cardir::cardirect::{evaluate, evaluate_indexed, parse_query, Configuration, RegionIndex};
use cardir::geometry::{BoundingBox, Point};
use cardir::workloads::maps::random_map;
use cardir::workloads::SplitMix64;
use std::time::Instant;

fn main() {
    let mut rng = SplitMix64::seed_from_u64(2004);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0));
    let map = random_map(&mut rng, 256, extent);

    let mut config = Configuration::new("land cover", "survey.png");
    for r in &map {
        config
            .add_region(
                r.id.clone(),
                format!("parcel {}", r.id),
                r.color,
                r.region.clone(),
            )
            .expect("generated ids are unique");
    }
    println!("annotated {} parcels", config.len());

    // Precompute pairwise relations, as the CARDIRECT GUI does.
    let t = Instant::now();
    config.compute_all_relations();
    println!(
        "computed {} relations in {:.1?}",
        config.relations().len(),
        t.elapsed()
    );

    let queries = [
        // Red parcels strictly north-west of some blue parcel.
        "{(x, y) | color(x) = red, color(y) = blue, x NW y}",
        // Parcels straddling a green parcel's north boundary.
        "{(x, y) | color(y) = green, x {B:N, N} y}",
        // Chains: x west of y, y west of z, all black.
        "{(x, y, z) | color(x) = black, color(y) = black, color(z) = black, x W y, y W z}",
    ];

    let index = RegionIndex::build(&config);
    for q_str in queries {
        let q = parse_query(q_str).unwrap();
        let t = Instant::now();
        let plain = evaluate(&q, &config).unwrap();
        let t_plain = t.elapsed();
        let t = Instant::now();
        let indexed = evaluate_indexed(&q, &config, &index).unwrap();
        let t_indexed = t.elapsed();
        assert_eq!(plain, indexed, "index must not change answers");
        println!(
            "\n{q_str}\n  {} answers  (scan {:.1?}, R-tree {:.1?})",
            plain.len(),
            t_plain,
            t_indexed
        );
        for b in plain.iter().take(3) {
            println!("    {:?}", b.values);
        }
        if plain.len() > 3 {
            println!("    … and {} more", plain.len() - 3);
        }
    }
}
