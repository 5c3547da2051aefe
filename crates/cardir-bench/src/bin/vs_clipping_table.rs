//! E6 — the comparison Section 5 names as the next experimental step:
//! speedup of the paper's algorithms over the clipping baseline, across
//! edge counts and shape families, together with the introduced-edge
//! ratio that drives it.
//!
//! Run with: `cargo run --release -p cardir-bench --bin vs_clipping_table`

use cardir_bench::{calibrate_iters, scaling_pair, time_mean, SEED};
use cardir_core::{clipping_cdr, compute_cdr, compute_cdr_pct, compute_cdr_with_mbb, CountingHook};
use cardir_geometry::Region;
use cardir_workloads::comb_polygon;
use std::hint::black_box;
use std::time::Duration;

fn report(label: &str, a: &Region, b: &Region) {
    let target = Duration::from_millis(20);
    let iters = calibrate_iters(target, || {
        black_box(compute_cdr(black_box(a), black_box(b)));
    });
    let t_cdr = time_mean(iters, || {
        black_box(compute_cdr(black_box(a), black_box(b)));
    });
    let iters = calibrate_iters(target, || {
        black_box(compute_cdr_pct(black_box(a), black_box(b)));
    });
    let t_pct = time_mean(iters, || {
        black_box(compute_cdr_pct(black_box(a), black_box(b)));
    });
    let iters = calibrate_iters(target, || {
        black_box(clipping_cdr(black_box(a), black_box(b)));
    });
    let t_clip = time_mean(iters, || {
        black_box(clipping_cdr(black_box(a), black_box(b)));
    });

    let mut counts = CountingHook::new();
    compute_cdr_with_mbb(a, b.mbb(), &mut counts);
    let clip = clipping_cdr(a, b);
    println!(
        "| {:<14} | {:>7} | {:>12.2?} | {:>12.2?} | {:>12.2?} | {:>9.2}x | {:>9.2}x | {:>5} vs {:<5} |",
        label,
        a.edge_count(),
        t_cdr,
        t_pct,
        t_clip,
        t_clip.as_nanos() as f64 / t_cdr.as_nanos() as f64,
        t_clip.as_nanos() as f64 / t_pct.as_nanos() as f64,
        counts.sub_edges,
        clip.stats.output_edges,
    );
}

fn main() {
    println!("E6 — Compute-CDR / Compute-CDR% vs polygon clipping");
    println!("(the paper predicts the division algorithms win: 1 scan vs 9, fewer edges)\n");
    println!(
        "| {:<14} | {:>7} | {:>12} | {:>12} | {:>12} | {:>10} | {:>10} | {:<14} |",
        "shape", "edges", "CDR", "CDR%", "clipping", "clip/CDR", "clip/CDR%", "edges introduced"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(16),
        "-".repeat(9),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(16)
    );

    for edges in [64usize, 256, 1024, 4096, 16384] {
        let (a, b) = scaling_pair(edges, SEED);
        report("star", &a, &b);
    }
    let b = Region::from_coords([(0.0, 0.0), (400.0, 0.0), (400.0, 3.0), (0.0, 3.0)])
        .expect("static geometry");
    for teeth in [16usize, 128, 1024] {
        let comb = Region::single(comb_polygon(-5.0, 1.0, 6.0, 0.35, teeth));
        report("comb", &comb, &b);
    }
}
