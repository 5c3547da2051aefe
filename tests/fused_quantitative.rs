//! Differential lockdown of the fused quantitative pipeline: the single
//! SoA sweep that now computes a pair's relation *and* tile areas must be
//! **bit-identical** — relations equal and percentage matrices equal as
//! raw f64s — to the legacy two-pass per-pair path
//! (`compute_cdr_with_mbb` then `tile_areas_with_mbb`, which re-flattens
//! and re-divides every primary edge twice) *and* to the fully naive
//! entry points, across threads {1, 2, 8} × both engine entry points
//! (the materialized spatial join and the exact pass over every ordered
//! pair).
//!
//! It also pins the `fused_pairs` accounting: every kernel computation —
//! and only kernel computations — runs over the fused SoA kernels.

use cardir::core::{
    cdr_areas_from_soa, cdr_from_soa, compute_cdr, compute_cdr_pct, compute_cdr_with_mbb,
    tile_areas_with_mbb, CardinalRelation, NoopHook, PercentageMatrix,
};
use cardir::engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
use cardir::geometry::{BoundingBox, Point, Region};
use cardir::workloads::{archipelago, random_map, RegionSpec, SplitMix64};

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// Three independent computations of every ordered pair, all of which the
/// engine output is checked against:
///
/// * `naive` — `compute_cdr` / `compute_cdr_pct`, recomputing `mbb(b)`
///   from scratch (the paper's algorithms verbatim);
/// * `legacy` — the retired engine inner loop: cached MBB, then two
///   separate sweeps over `Region` edge iterators;
/// * `fused` — the SoA kernel called directly on the cache's edge store.
struct Oracle {
    relations: Vec<CardinalRelation>,
    percentages: Vec<PercentageMatrix>,
}

fn oracle(regions: &[Region], cache: &RegionCache<'_>) -> Oracle {
    let mut relations = Vec::new();
    let mut percentages = Vec::new();
    for (i, a) in regions.iter().enumerate() {
        for (j, b) in regions.iter().enumerate() {
            if i == j {
                continue;
            }
            let mbb = cache.mbb(j);

            let naive_rel = compute_cdr(a, b);
            let naive_pct = compute_cdr_pct(a, b);

            let legacy_rel = compute_cdr_with_mbb(a, mbb, &mut NoopHook);
            let legacy_pct = tile_areas_with_mbb(a, mbb, &mut NoopHook).percentages();

            let soa = cache.soa(i);
            let fused_rel_only = cdr_from_soa(&soa, mbb);
            let (fused_rel, fused_areas) = cdr_areas_from_soa(&soa, mbb);
            let fused_pct = fused_areas.percentages();

            assert_eq!(naive_rel, legacy_rel, "pair ({i}, {j}): naive vs legacy relation");
            assert_eq!(legacy_rel, fused_rel, "pair ({i}, {j}): legacy vs fused relation");
            assert_eq!(fused_rel, fused_rel_only, "pair ({i}, {j}): fused modes disagree");
            assert_eq!(naive_pct, legacy_pct, "pair ({i}, {j}): naive vs legacy percentages");
            assert_eq!(legacy_pct, fused_pct, "pair ({i}, {j}): legacy vs fused percentages");

            relations.push(fused_rel);
            percentages.push(fused_pct);
        }
    }
    Oracle { relations, percentages }
}

/// Runs both entry points over the triple oracle at every thread count
/// and checks the outputs bit for bit, plus the `fused_pairs`
/// accounting: one fused computation per pair not decided from boxes.
fn assert_fused_pipeline_cross_validates(regions: &[Region], family: &str) {
    let cache = RegionCache::build(regions);
    let truth = oracle(regions, &cache);
    let every: Vec<(usize, usize)> = (0..regions.len())
        .flat_map(|i| (0..regions.len()).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();

    for threads in [1usize, 2, 8] {
        let engine = BatchEngine::new().with_mode(EngineMode::Quantitative).with_threads(threads);
        let joined = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
        let exact = engine.run_pairs(&cache, &every, &RunPolicy::default()).unwrap();
        for (out, path) in [(&joined, "join"), (&exact, "every pair exact")] {
            let label = format!("{family}, {threads} threads, {path}");
            assert_eq!(out.pairs.len(), truth.relations.len(), "{label}");
            for (k, got) in out.pairs.iter().enumerate() {
                let got = got.ok().unwrap_or_else(|| panic!("{label}: pair #{k} failed"));
                assert_eq!(got.relation, truth.relations[k], "{label}, pair #{k}");
                assert_eq!(
                    got.percentages.as_ref(),
                    Some(&truth.percentages[k]),
                    "{label}, pair #{k}: percentage matrices must be bit-identical"
                );
            }
            // Every kernel computation runs over the fused SoA kernels —
            // including the quantitative N-tile fallback — and nothing
            // else does.
            let kernel = out.relations().filter(|p| !p.via_prefilter).count();
            assert_eq!(out.metrics.stats.fused_pairs, kernel, "{label}: accounting");
        }
        assert_eq!(exact.metrics.stats.fused_pairs, every.len(), "{family}: all exact");
    }
}

/// Family 1: jittered-grid star maps at several sizes — mostly disjoint
/// boxes, so the boxes decide most pairs and the N-tile fallback
/// fires for vertically stacked neighbours.
#[test]
fn grid_maps_fused_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(801);
    for n in [6usize, 19, 36] {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
        let regions: Vec<Region> =
            random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect();
        assert_fused_pipeline_cross_validates(&regions, &format!("grid map n={n}"));
    }
}

/// Family 2: composite archipelagos whose members interleave — the exact
/// path dominates, so nearly every pair exercises the fused sweep.
#[test]
fn archipelagos_fused_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(802);
    let regions: Vec<Region> = (0..7)
        .map(|i| {
            let spec = RegionSpec {
                polygons: 1 + i % 4,
                vertices_per_polygon: 8,
                center: Point::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 7.0),
                spread: 12.0,
            };
            archipelago(&mut rng, spec)
        })
        .collect();
    assert_fused_pipeline_cross_validates(&regions, "archipelago");
}

/// Family 3: the Ancient-Greece scenario — real composite coastlines with
/// touching boxes, grid-line contacts, and B/N-boundary area splits.
#[test]
fn greece_scenario_fused_bit_identical() {
    let regions: Vec<Region> =
        cardir::workloads::greece_scenario().into_iter().map(|r| r.region).collect();
    assert!(regions.len() >= 5, "scenario should exercise a real pair matrix");
    assert_fused_pipeline_cross_validates(&regions, "greece scenario");
}

/// Family 4: MBB boundary contact and vertical stacking — exact
/// configurations where the boxes must decline, plus strictly-north
/// primaries that force the quantitative N-tile fallback (the one decided
/// pair class that still runs a fused area sweep).
#[test]
fn boundary_contact_and_north_stack_fused_bit_identical() {
    let regions = vec![
        rect(0.0, 0.0, 4.0, 4.0),   // the reference square
        rect(1.0, 6.0, 3.0, 8.0),   // strictly north: N-tile fallback
        rect(0.5, 9.0, 3.5, 11.0),  // strictly north of both
        rect(4.0, 0.0, 8.0, 4.0),   // shares the full east edge
        rect(0.0, 4.0, 4.0, 8.0),   // shares the full north edge
        rect(4.0, 4.0, 8.0, 8.0),   // touches only the NE corner
        rect(2.0, 2.0, 6.0, 6.0),   // straddles the NE corner
        rect(0.0, 0.0, 4.0, 4.0),   // exact duplicate of the reference
    ];
    assert_fused_pipeline_cross_validates(&regions, "boundary contact + north stack");
}
