//! E10/DESIGN §9 — empirical completeness of the consistency solver.
//!
//! The solver's refutations are exact, and its "consistent" answers carry
//! machine-verified witnesses; the documented gap is `Unknown` (no
//! witness found under the canonical endpoint schedules). This experiment
//! measures that gap on networks that are satisfiable *by construction*:
//! sample k random regions, compute all pairwise relations with
//! `Compute-CDR` (the sampled scene is a model), and hand the network to
//! the solver.
//!
//! Run with: `cargo run --release -p cardir-bench --bin solver_completeness`

use cardir_core::compute_cdr;
use cardir_geometry::{Point, Region};
use cardir_reasoning::{Network, Outcome};
use cardir_workloads::{star_polygon, SplitMix64};

fn random_scene(rng: &mut SplitMix64, k: usize) -> Vec<Region> {
    (0..k)
        .map(|_| {
            let c = Point::new(rng.random_range(-12.0..12.0), rng.random_range(-12.0..12.0));
            let r = rng.random_range(1.0..6.0);
            let n = rng.random_range(4..16usize);
            Region::single(star_polygon(rng, c, 0.4 * r, r, n))
        })
        .collect()
}

fn main() {
    let mut rng = SplitMix64::seed_from_u64(cardir_bench::SEED);
    println!("E10 — solver completeness on satisfiable-by-construction networks\n");
    println!(
        "| {:>5} | {:>7} | {:>10} | {:>8} | {:>13} |",
        "vars", "trials", "consistent", "unknown", "inconsistent"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(7),
        "-".repeat(9),
        "-".repeat(12),
        "-".repeat(10),
        "-".repeat(15)
    );
    for k in [2usize, 3, 4, 5, 6] {
        let trials = 200;
        let mut consistent = 0;
        let mut unknown = 0;
        let mut inconsistent = 0;
        for _ in 0..trials {
            let scene = random_scene(&mut rng, k);
            let mut net = Network::new();
            for i in 0..k {
                net.add_variable(&format!("v{i}")).expect("fresh names");
            }
            for i in 0..k {
                for j in 0..k {
                    if i != j {
                        let rel = compute_cdr(&scene[i], &scene[j]);
                        net.add_constraint(&format!("v{i}"), rel, &format!("v{j}"))
                            .expect("declared");
                    }
                }
            }
            match net.solve() {
                Outcome::Consistent(_) => consistent += 1,
                Outcome::Unknown => unknown += 1,
                Outcome::Inconsistent => inconsistent += 1,
            }
        }
        println!(
            "| {:>5} | {:>7} | {:>10} | {:>8} | {:>13} |",
            k, trials, consistent, unknown, inconsistent
        );
        assert_eq!(
            inconsistent, 0,
            "soundness violation: a satisfiable network was refuted"
        );
    }
    println!("\n`inconsistent` must be 0 (these networks have models by construction);");
    println!("`unknown` is the measured completeness gap of the canonical-schedule heuristic.");
}
