//! Proof that no per-pair code path re-flattens `Region` geometry: after
//! `RegionCache::build`, the process-global flatten counter
//! (`cardir::geometry::flatten::events`, bumped by every `Polygon::edges`
//! / `Region::edges` construction) must not move, no matter how many
//! pairs the engine computes, in either mode, through either entry point
//! (the materialized join or an explicit pair list). Before the fused SoA pipeline, the quantitative exact loop
//! flattened every primary's edges **twice per pair** (1,076,397 events
//! on the N=1000 bench vs 529,065 qualitative); this file pins the fix
//! at zero.
//!
//! The counter is process-global, so this test lives in its own
//! integration-test binary: any suite that runs a naive oracle
//! (`compute_cdr` & co.) legitimately flattens edges and would race the
//! delta. Keep naive entry points out of this file.

use cardir::engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
use cardir::geometry::{flatten, BoundingBox, Point, Region};
use cardir::workloads::{random_map, SplitMix64};

#[test]
fn engine_runs_never_reflatten_region_geometry() {
    let mut rng = SplitMix64::seed_from_u64(803);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
    let regions: Vec<Region> =
        random_map(&mut rng, 40, extent).into_iter().map(|m| m.region).collect();

    // The cache itself reads `Polygon::vertices` directly, so even the
    // build performs zero flatten events — but only the *post-build*
    // delta is the claim this test makes.
    let cache = RegionCache::build(&regions);
    let after_build = flatten::events();

    let every: Vec<(usize, usize)> = (0..regions.len())
        .flat_map(|i| (0..regions.len()).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        for threads in [1usize, 2, 8] {
            let engine = BatchEngine::new().with_mode(mode).with_threads(threads);

            let exact = engine.run_pairs(&cache, &every, &RunPolicy::default()).unwrap();
            assert!(exact.metrics.stats.fused_pairs > 0);

            let joined = engine.run_join(&cache, &RunPolicy::default());
            let out = joined.materialize(&cache);
            assert_eq!(out.pairs.len(), exact.pairs.len());
        }
    }

    assert_eq!(
        flatten::events(),
        after_build,
        "an exact pipeline path re-flattened Region/Polygon edges \
         instead of scanning the cache's SoA store"
    );
}
