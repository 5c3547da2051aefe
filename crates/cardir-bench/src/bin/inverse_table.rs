//! E10 — the reasoning layer's exact tables: inverse cardinalities for
//! the single-tile relations (Section 2's `inv` discussion), aggregate
//! statistics of the realizable-pair table, and an exactness sweep over
//! all 81 single-tile compositions.
//!
//! Run with: `cargo run --release -p cardir-bench --bin inverse_table`

use cardir_core::{CardinalRelation, Tile, ALL_TILES};
use cardir_reasoning::{inverse, realizable_pairs, weak_compose};

fn main() {
    println!("E10 — inverse relations of the nine single-tile relations\n");
    println!("| {:<5} | {:>6} | inv(R)", "R", "|inv|");
    println!("|{}|{}|{}", "-".repeat(7), "-".repeat(8), "-".repeat(50));
    for t in ALL_TILES {
        let r = CardinalRelation::single(t);
        let inv = inverse(r);
        let shown = if inv.len() <= 6 {
            inv.to_string()
        } else {
            let first: Vec<String> = inv.iter().take(4).map(|x| x.to_string()).collect();
            format!("{{{}, … {} total}}", first.join(", "), inv.len())
        };
        println!("| {:<5} | {:>6} | {}", t.name(), inv.len(), shown);
    }

    // Aggregate pair statistics over all 511 × 511 candidates.
    let table = realizable_pairs();
    let mut realizable = 0usize;
    let mut min = (usize::MAX, CardinalRelation::single(Tile::B));
    let mut max = (0usize, CardinalRelation::single(Tile::B));
    for r in CardinalRelation::all() {
        let k = table.compatible(r).len();
        realizable += k;
        if k < min.0 {
            min = (k, r);
        }
        if k > max.0 {
            max = (k, r);
        }
    }
    println!(
        "\nrealizable pairs: {realizable} of {} candidates",
        511 * 511
    );
    println!("smallest inverse: {} ({} relations)", min.1, min.0);
    println!("largest inverse:  {} ({} relations)", max.1, max.0);

    // Composition exactness sweep: all 81 single-tile pairs.
    println!("\nE10 — weak composition over all 81 single-tile pairs");
    let mut exact = 0usize;
    let mut gaps = Vec::new();
    for t1 in ALL_TILES {
        for t2 in ALL_TILES {
            let r1 = CardinalRelation::single(t1);
            let r2 = CardinalRelation::single(t2);
            let bounds = weak_compose(r1, r2);
            if bounds.is_exact() {
                exact += 1;
            } else {
                gaps.push((t1, t2, bounds.gap().len()));
            }
        }
    }
    println!("exact: {exact}/81");
    if gaps.is_empty() {
        println!("every single-tile composition is certified exact.");
    } else {
        for (t1, t2, gap) in gaps {
            println!("  {t1} ∘ {t2}: gap of {gap} undecided candidates");
        }
    }
}
