//! A2 — ablation: CARDIRECT query evaluation with and without the R-tree
//! filter step, and with and without precomputed relations.

use cardir_bench::bench_case;
use cardir_cardirect::{evaluate, evaluate_indexed, parse_query, Configuration, RegionIndex};
use cardir_geometry::{BoundingBox, Point};
use cardir_workloads::{random_map, SplitMix64};
use std::hint::black_box;

fn build_config(n: usize, precompute: bool) -> Configuration {
    let mut rng = SplitMix64::seed_from_u64(cardir_bench::SEED);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0));
    let map = random_map(&mut rng, n, extent);
    let mut config = Configuration::new("bench", "map.png");
    for r in &map {
        config
            .add_region(r.id.clone(), r.id.clone(), r.color, r.region.clone())
            .expect("unique generated ids");
    }
    if precompute {
        config.compute_all_relations();
    }
    config
}

fn main() {
    let query =
        parse_query("{(x, y) | color(x) = red, color(y) = blue, x NW y}").expect("static query");
    println!("== query_eval/red_nw_blue ==");
    for n in [64usize, 256, 1024] {
        // On-the-fly relations: the filter step pays off here.
        let config = build_config(n, false);
        let index = RegionIndex::build(&config);
        bench_case(&format!("scan/{n}"), 0, || {
            let _ = black_box(evaluate(black_box(&query), black_box(&config)));
        });
        bench_case(&format!("rtree/{n}"), 0, || {
            let _ = black_box(evaluate_indexed(
                black_box(&query),
                black_box(&config),
                black_box(&index),
            ));
        });
        // Precomputed relations: lookups dominate.
        let stored = build_config(n, true);
        bench_case(&format!("stored/{n}"), 0, || {
            let _ = black_box(evaluate(black_box(&query), black_box(&stored)));
        });
    }

    println!("== query_eval/compute_all_relations ==");
    for n in [32usize, 128] {
        bench_case(&format!("compute_all/{n}"), (n * (n - 1)) as u64, || {
            let mut config = build_config(n, false);
            config.compute_all_relations();
            black_box(&config);
        });
    }
}
