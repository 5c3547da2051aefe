//! E3 — regenerates the paper's Fig. 3 / Example 3 edge-count
//! comparison: edges introduced by `Compute-CDR`'s edge division vs by
//! polygon clipping, on the three published shapes.
//!
//! Run with: `cargo run --release -p cardir-bench --bin fig3_edge_counts`

use cardir_core::{clipping_cdr, compute_cdr_with_mbb, CountingHook};
use cardir_workloads::paper;

fn main() {
    let b = paper::reference_b();
    let cases = [
        (
            "Fig. 3b quadrangle",
            paper::fig3b_quadrangle(),
            8usize,
            16usize,
        ),
        ("Fig. 3c triangle", paper::fig3c_triangle(), 11, 35),
        ("Example 3 quadrangle", paper::example3_quadrangle(), 9, 19),
    ];

    println!("E3 — introduced edges: Compute-CDR edge division vs polygon clipping");
    println!("(paper values: Fig. 3b 8 vs 16; Fig. 3c 11 vs \"34\"/\"35\"; Example 3 9 vs 19)\n");
    println!(
        "| {:<22} | {:>6} | {:>12} | {:>12} | {:>14} | {:<22} |",
        "shape", "input", "divided", "clipped", "clipped polys", "relation"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|",
        "-".repeat(24),
        "-".repeat(8),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(16),
        "-".repeat(24)
    );
    for (name, region, paper_ours, paper_clip) in cases {
        let mut counts = CountingHook::new();
        let relation = compute_cdr_with_mbb(&region, b.mbb(), &mut counts);
        let clipped = clipping_cdr(&region, &b);
        println!(
            "| {:<22} | {:>6} | {:>6} ({:>3}) | {:>6} ({:>3}) | {:>14} | {:<22} |",
            name,
            counts.edges_scanned,
            counts.sub_edges,
            paper_ours,
            clipped.stats.output_edges,
            paper_clip,
            clipped.stats.output_polygons,
            relation.to_string(),
        );
        assert_eq!(
            counts.sub_edges, paper_ours,
            "{name}: divided-edge count drifted"
        );
    }
    println!("\n(parenthesised numbers are the paper's; exact coordinates of the figures");
    println!(" are reconstructions, so clipped counts may differ by a vertex or two)");
    println!("\nscans of the primary edges: division 1, clipping 9 (one per tile).");
}
