//! Cross-validation of the telemetry layer against the paper's cost
//! model (Theorem 1) and against the un-instrumented algorithms.
//!
//! On the jittered-grid star workload every ordered pair is computed
//! twice — plain and with a [`CountingHook`] — and the observed edge
//! counts must satisfy the theorem's bounds: each primary edge is
//! scanned exactly once (`edges_scanned == k_a`), a straight edge
//! crosses each of the four grid lines of `mbb(b)` at most once so it
//! divides into at most five sub-edges (`sub_edges ≤ 5·k_a`, and
//! `edges_divided ≤ k_a`), and the total sub-edge count over all pairs
//! stays linear in the map's edge count. The hook must never change a
//! relation bit: plain and hooked results are compared exactly.

use cardir_core::{compute_cdr, compute_cdr_with_mbb, CountingHook};
use cardir_engine::{BatchEngine, RegionCache, RunPolicy};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_telemetry::trace::phases;
use cardir_telemetry::Tracer;
use cardir_workloads::{random_map, SplitMix64};

fn jittered_map(n: usize, seed: u64) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 400.0));
    random_map(&mut rng, n, extent)
        .into_iter()
        .map(|m| m.region)
        .collect()
}

#[test]
fn hook_counts_satisfy_theorem_1_on_jittered_grid() {
    let regions = jittered_map(30, 41);
    let map_edges: usize = regions.iter().map(Region::edge_count).sum();
    let mut total_sub_edges = 0usize;
    let mut total_scanned = 0usize;
    for (i, a) in regions.iter().enumerate() {
        for (j, b) in regions.iter().enumerate() {
            if i == j {
                continue;
            }
            let k_a = a.edge_count();
            let mut hook = CountingHook::new();
            let hooked = compute_cdr_with_mbb(a, b.mbb(), &mut hook);
            let plain = compute_cdr(a, b);
            assert_eq!(hooked, plain, "hook altered pair ({i}, {j})");
            assert_eq!(
                hook.edges_scanned, k_a,
                "pair ({i}, {j}): every edge scanned once"
            );
            assert!(
                hook.edges_divided <= k_a,
                "pair ({i}, {j}): only input edges can divide"
            );
            assert!(
                hook.sub_edges <= 5 * k_a,
                "pair ({i}, {j}): an edge crosses each grid line at most once \
                 ({} sub-edges from {k_a} edges)",
                hook.sub_edges
            );
            assert!(hook.sub_edges >= k_a, "dividing never loses an edge");
            assert!(
                hook.tiles_touched() >= plain.tiles().count() - usize::from(hook.b_center_hits > 0),
                "pair ({i}, {j}): every relation tile except a centre-test B \
                 must come from a sub-edge"
            );
            total_sub_edges += hook.sub_edges;
            total_scanned += hook.edges_scanned;
        }
    }
    // Across all (n − 1) computations per primary, totals stay linear in
    // the map's edge count — Theorem 1 applied pairwise.
    let n = regions.len();
    assert_eq!(total_scanned, (n - 1) * map_edges);
    assert!(
        total_sub_edges <= 5 * (n - 1) * map_edges,
        "total sub-edges {total_sub_edges} exceed the linear bound"
    );
}

#[test]
fn disabled_hook_is_bit_identical_to_plain() {
    // The generic entry point with the default NoopHook must agree with
    // compute_cdr exactly — the hook layer only observes.
    let regions = jittered_map(15, 99);
    for a in &regions {
        for b in &regions {
            let mut noop = cardir_core::NoopHook;
            assert_eq!(
                compute_cdr_with_mbb(a, b.mbb(), &mut noop),
                compute_cdr(a, b)
            );
        }
    }
}

#[test]
fn engine_stats_are_internally_consistent() {
    let regions = jittered_map(40, 7);
    let cache = RegionCache::build(&regions);
    let tracer = Tracer::enabled();
    let result = BatchEngine::new()
        .with_threads(4)
        .with_tracer(tracer.clone())
        .run_join(&cache, &RunPolicy::default())
        .materialize(&cache);
    let stats = &result.stats;
    assert_eq!(stats.pairs, regions.len() * (regions.len() - 1));
    assert_eq!(stats.mask_emitted + stats.exact_pairs, stats.pairs);
    assert!(
        stats.edges_scanned > 0,
        "some pairs must take the exact path"
    );
    // Each region's own box touches all four of its grid coordinates, so
    // the sweeps see at least four contacts per region.
    assert!(stats.candidates >= 4 * regions.len());
    assert_eq!(
        stats.per_thread_pairs.iter().sum::<usize>(),
        stats.exact_pairs
    );
    assert!(
        stats.per_thread_pairs.iter().any(|&p| p > 0),
        "some worker ran the exact pass"
    );
    // Per-chunk timings are the tracer's compute spans: one per chunk
    // of exact work items.
    let chunks = tracer
        .drain()
        .iter()
        .filter(|e| e.name == phases::CHUNK_COMPUTE)
        .count();
    assert_eq!(
        chunks,
        stats.exact_pairs.div_ceil(256),
        "one span per chunk"
    );

    // The edge tally must equal a replay of the engine's own decisions:
    // k_primary per pair not decided from the boxes.
    let replay: usize = result
        .relations()
        .filter(|p| !p.via_prefilter)
        .map(|p| cache.edge_count(p.primary))
        .sum();
    assert_eq!(stats.edges_scanned, replay);
}

#[test]
fn engine_metrics_export_feeds_the_registry() {
    let regions = jittered_map(20, 3);
    let cache = RegionCache::build(&regions);
    let result = BatchEngine::new()
        .with_threads(2)
        .run_join(&cache, &RunPolicy::default());
    let registry = cardir_telemetry::Registry::new();
    result.stats.export(&registry);
    let snap = registry.snapshot();
    let stats = &result.stats;
    assert_eq!(snap.counter("engine.pairs"), Some(stats.pairs as u64));
    assert_eq!(
        snap.counter("join.mask_emitted"),
        Some(stats.mask_emitted as u64)
    );
    assert_eq!(
        snap.counter("join.exact_pairs"),
        Some(stats.exact_pairs as u64)
    );
    assert_eq!(snap.counter("engine.runs"), Some(1));
    assert!(snap.histogram("engine.exact_pass_ns").is_some());
    let report = cardir_telemetry::Report::render(&snap);
    assert!(
        report.contains("engine.pairs"),
        "report must list the counter:\n{report}"
    );
}
