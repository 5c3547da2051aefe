//! Shared helpers for the benchmark and experiment harness.
//!
//! Each experiment binary regenerates one artifact of the paper (see
//! DESIGN.md §3 for the index); the timing benches in `benches/` are
//! plain binaries (`harness = false`) built on the same helpers, so the
//! whole harness runs with no external crates and no network.

pub mod diff;

use cardir_geometry::{Point, Region};
use cardir_workloads::{star_polygon, SplitMix64};
use std::time::{Duration, Instant};

/// The fixed seed used by every experiment, so reported numbers are
/// reproducible run to run.
pub const SEED: u64 = 2004;

/// A primary/reference pair whose mbbs overlap, with exactly `edges`
/// edges on the primary region (the paper's `k_a`).
pub fn scaling_pair(edges: usize, seed: u64) -> (Region, Region) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let reference = Region::single(star_polygon(&mut rng, Point::ORIGIN, 4.0, 8.0, 16));
    let primary = Region::single(star_polygon(
        &mut rng,
        Point::new(3.0, -2.0),
        3.0,
        9.0,
        edges,
    ));
    (primary, reference)
}

/// Times `f` by running it `iters` times and returning the mean duration.
pub fn time_mean<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    // One warm-up round.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Picks an iteration count so each measurement takes roughly the target
/// wall time.
pub fn calibrate_iters<F: FnMut()>(target: Duration, mut f: F) -> usize {
    let start = Instant::now();
    f();
    let one = start.elapsed().max(Duration::from_nanos(100));
    ((target.as_nanos() / one.as_nanos()).max(1) as usize).min(100_000)
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Calibrates, times, and prints one benchmark case; returns the mean
/// duration. `elements` (when non-zero) adds a per-element column —
/// useful for reading linearity straight off a sweep.
pub fn bench_case<F: FnMut()>(label: &str, elements: u64, mut f: F) -> Duration {
    let iters = calibrate_iters(Duration::from_millis(20), &mut f);
    let mean = time_mean(iters, &mut f);
    if elements > 0 {
        let per = mean.as_nanos() as f64 / elements as f64;
        println!("{label:<44} mean {mean:>12.2?}   {per:>9.1} ns/elem   ({iters} iters)");
    } else {
        println!("{label:<44} mean {mean:>12.2?}   ({iters} iters)");
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_pair_edge_counts() {
        for edges in [16, 64, 256] {
            let (a, b) = scaling_pair(edges, SEED);
            assert_eq!(a.edge_count(), edges);
            assert_eq!(b.edge_count(), 16);
        }
    }

    #[test]
    fn scaling_pair_is_deterministic() {
        let (a1, b1) = scaling_pair(64, SEED);
        let (a2, b2) = scaling_pair(64, SEED);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn timing_helpers() {
        let d = time_mean(8, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_millis(10));
        let iters = calibrate_iters(Duration::from_micros(50), || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(iters >= 1);
    }
}
