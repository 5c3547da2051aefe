//! A4 — the segmentation pipeline: component analysis and region
//! extraction costs across raster sizes, plus the end-to-end
//! raster → configuration path.

use cardir_bench::{bench_case, SEED};
use cardir_segment::{random_blobs, Connectivity, Raster};
use cardir_workloads::SplitMix64;
use std::hint::black_box;

fn make_raster(side: usize) -> Raster {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    random_blobs(&mut rng, side, side, 8, side * side / 12)
}

fn main() {
    println!("== segmentation/components ==");
    for side in [32usize, 128, 512] {
        let raster = make_raster(side);
        bench_case(
            &format!("components/{side}x{side}"),
            (side * side) as u64,
            || {
                black_box(black_box(&raster).components(Connectivity::Four));
            },
        );
    }

    println!("== segmentation/extract_all_labels ==");
    for side in [32usize, 128, 512] {
        let raster = make_raster(side);
        let labels = raster.labels();
        bench_case(
            &format!("extract/{side}x{side}"),
            (side * side) as u64,
            || {
                for &label in &labels {
                    black_box(black_box(&raster).extract_region(label));
                }
            },
        );
    }
}
