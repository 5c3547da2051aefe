//! A3 — ablation: the paper's `E_l` line-based polygon area (Definition 4
//! / Section 3.2) against the classic shoelace (reference-point) formula,
//! on identical polygons. Both are linear; the experiment shows the
//! line-based form costs no more, which is why `Compute-CDR%` can afford
//! it per tile.

use cardir_bench::{bench_case, SEED};
use cardir_geometry::area::polygon_area_via_line;
use cardir_geometry::{Line, Point};
use cardir_workloads::{star_polygon, SplitMix64};
use std::hint::black_box;

fn main() {
    println!("== area_methods ==");
    for n in [64usize, 1024, 16384] {
        let mut rng = SplitMix64::seed_from_u64(SEED);
        let poly = star_polygon(&mut rng, Point::ORIGIN, 5.0, 10.0, n);
        bench_case(&format!("shoelace/{n}"), n as u64, || {
            black_box(black_box(&poly).area());
        });
        bench_case(&format!("e_l_line/{n}"), n as u64, || {
            black_box(polygon_area_via_line(
                Line::Horizontal(-20.0),
                black_box(&poly),
            ));
        });
    }
}
