//! Cross-validation of the batch engine against the naive per-pair
//! algorithms: outputs must be **bit-identical** — relations equal and
//! percentage matrices equal as raw f64s, not approximately — on every
//! workload family, at every thread count, with every pair in the naive
//! double loop's order. Both entry points are checked: the materialized
//! spatial join (box-decided pairs emitted from the MBBs) and the exact
//! pass over an explicit list of every ordered pair (nothing decided
//! from boxes).

use cardir::core::{compute_cdr, compute_cdr_pct};
use cardir::engine::{decided_tile, BatchEngine, BatchOutcome, EngineMode, RegionCache, RunPolicy};
use cardir::geometry::{BoundingBox, Point, Region};
use cardir::workloads::{archipelago, random_map, RegionSpec, SplitMix64};

/// Checks one region family: at 1, 2, and 4 threads, the materialized
/// join *and* the all-exact pass over every ordered pair are
/// bit-identical to the naive loop, in both modes.
fn assert_engine_matches_naive(regions: &[Region], family: &str) {
    let cache = RegionCache::build(regions);
    let every: Vec<(usize, usize)> = (0..regions.len())
        .flat_map(|i| {
            (0..regions.len())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .collect();
    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        // The naive reference: the plain double loop in primary-major
        // order, straight through compute_cdr / compute_cdr_pct.
        let mut naive = Vec::new();
        for (i, a) in regions.iter().enumerate() {
            for (j, b) in regions.iter().enumerate() {
                if i != j {
                    let pct = (mode == EngineMode::Quantitative).then(|| compute_cdr_pct(a, b));
                    naive.push((i, j, compute_cdr(a, b), pct));
                }
            }
        }
        for threads in [1usize, 2, 4] {
            let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
            let joined = engine
                .run_join(&cache, &RunPolicy::default())
                .materialize(&cache);
            let exact = engine
                .run_pairs(&cache, &every, &RunPolicy::default())
                .unwrap();
            for (result, path) in [(&joined, "join"), (&exact, "every pair exact")] {
                let label = format!("{family}, {mode:?}, {threads} threads, {path}");
                assert_matches(result, &naive, &label);
            }
            let stats = &joined.stats;
            assert_eq!(stats.pairs, naive.len(), "{family}");
            assert_eq!(
                stats.mask_emitted + stats.exact_pairs,
                stats.pairs,
                "{family}"
            );
            let decided = every
                .iter()
                .filter(|&&(i, j)| decided_tile(cache.mbb(i), cache.mbb(j)).is_some())
                .count();
            assert_eq!(
                stats.mask_emitted, decided,
                "{family}: the boxes decide these pairs"
            );
            let stats = &exact.stats;
            assert_eq!(
                (stats.mask_emitted, stats.exact_pairs),
                (0, naive.len()),
                "{family}"
            );
        }
    }
}

fn assert_matches(
    result: &BatchOutcome,
    naive: &[(
        usize,
        usize,
        cardir::core::CardinalRelation,
        Option<cardir::core::PercentageMatrix>,
    )],
    label: &str,
) {
    assert_eq!(result.pairs.len(), naive.len(), "{label}");
    for (got, (i, j, rel, pct)) in result.pairs.iter().zip(naive) {
        let got = got
            .ok()
            .unwrap_or_else(|| panic!("{label}: pair ({i}, {j}) not computed"));
        assert_eq!(
            (got.primary, got.reference),
            (*i, *j),
            "{label}: order must be primary-major"
        );
        assert_eq!(got.relation, *rel, "{label}, pair ({i}, {j})");
        assert_eq!(
            got.percentages, *pct,
            "{label}, pair ({i}, {j}): percentage matrices must be bit-identical"
        );
    }
}

/// Family 1: jittered-grid star maps — mostly disjoint boxes, so the
/// boxes decide most pairs, at several sizes.
#[test]
fn grid_maps_bit_identical_across_threads() {
    let mut rng = SplitMix64::seed_from_u64(601);
    for n in [5usize, 17, 40] {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
        let regions: Vec<Region> = random_map(&mut rng, n, extent)
            .into_iter()
            .map(|m| m.region)
            .collect();
        assert_engine_matches_naive(&regions, &format!("grid map n={n}"));
    }
}

/// Family 2: the Ancient-Greece scenario — real composite coastlines with
/// touching and straddling boxes the boxes cannot decide.
#[test]
fn greece_scenario_bit_identical_across_threads() {
    let regions: Vec<Region> = cardir::workloads::greece_scenario()
        .into_iter()
        .map(|r| r.region)
        .collect();
    assert!(
        regions.len() >= 5,
        "scenario should exercise a real pair matrix"
    );
    assert_engine_matches_naive(&regions, "greece scenario");
}

/// Family 3: composite archipelagos whose members interleave, keeping the
/// exact path dominant (the boxes rarely decide a pair).
#[test]
fn archipelagos_bit_identical_across_threads() {
    let mut rng = SplitMix64::seed_from_u64(602);
    let regions: Vec<Region> = (0..8)
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
    assert_engine_matches_naive(&regions, "archipelago");
}

/// Family 4: MBB boundary contact — every pair shares a grid line or a
/// corner with some neighbour, the exact configurations where the boxes
/// must *decline* to decide. The join (which emits decided pairs from
/// the boxes) and the all-exact pass must agree bit for bit — the
/// strictness of the box decision is what this pins.
#[test]
fn shared_mbb_edges_and_corners_bit_identical_with_and_without_prefilter() {
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    };
    let regions = vec![
        rect(0.0, 0.0, 4.0, 4.0),   // the reference square
        rect(4.0, 0.0, 8.0, 4.0),   // shares the full east edge
        rect(0.0, 4.0, 4.0, 8.0),   // shares the full north edge
        rect(4.0, 4.0, 8.0, 8.0),   // touches only the NE corner
        rect(-4.0, -4.0, 0.0, 0.0), // touches only the SW corner
        rect(1.0, 4.0, 3.0, 6.0),   // sits on the north line, inside its span
        rect(-2.0, 2.0, 0.0, 3.0),  // sits on the west line
        rect(0.0, 0.0, 4.0, 4.0),   // exact duplicate of the reference
        rect(2.0, 2.0, 6.0, 6.0),   // straddles the NE corner
    ];
    assert_engine_matches_naive(&regions, "shared mbb edges/corners");
}

/// The engine's selected-pairs entry point agrees with the naive
/// computation on a random pair list, in list order, at several thread
/// counts.
#[test]
fn selected_pairs_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(603);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
    let regions: Vec<Region> = random_map(&mut rng, 30, extent)
        .into_iter()
        .map(|m| m.region)
        .collect();
    let cache = RegionCache::build(&regions);
    let pairs: Vec<(usize, usize)> = (0..200)
        .map(|_| {
            (
                rng.random_range(0..regions.len()),
                rng.random_range(0..regions.len()),
            )
        })
        .collect();
    for threads in [1usize, 2, 4] {
        let result = BatchEngine::new()
            .with_mode(EngineMode::Quantitative)
            .with_threads(threads)
            .run_pairs(&cache, &pairs, &RunPolicy::default())
            .unwrap();
        assert_eq!(result.pairs.len(), pairs.len());
        for (got, &(i, j)) in result.relations().zip(&pairs) {
            assert_eq!((got.primary, got.reference), (i, j), "{threads} threads");
            assert_eq!(
                got.relation,
                compute_cdr(&regions[i], &regions[j]),
                "{threads} threads"
            );
            assert_eq!(
                got.percentages,
                Some(compute_cdr_pct(&regions[i], &regions[j])),
                "{threads} threads, pair ({i}, {j})"
            );
        }
    }
}

/// `Configuration::compute_all_relations` (now engine-backed) stores the
/// same relations in the same order as the naive double loop over the
/// annotated regions — the XML output depends on both.
#[test]
fn configuration_relations_match_naive_order() {
    let mut rng = SplitMix64::seed_from_u64(604);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let map = random_map(&mut rng, 20, extent);
    let mut config = cardir::cardirect::Configuration::new("engine-check", "gen.png");
    for r in &map {
        config
            .add_region(r.id.clone(), r.id.clone(), r.color, r.region.clone())
            .unwrap();
    }
    config.compute_all_relations();
    let mut expected = Vec::new();
    for p in &map {
        for q in &map {
            if p.id != q.id {
                expected.push((
                    p.id.clone(),
                    q.id.clone(),
                    compute_cdr(&p.region, &q.region),
                ));
            }
        }
    }
    assert_eq!(config.relations().len(), expected.len());
    for (got, (p, q, rel)) in config.relations().iter().zip(&expected) {
        assert_eq!(&got.primary, p);
        assert_eq!(&got.reference, q);
        assert_eq!(&got.relation, rel, "{p} vs {q}");
    }
}
