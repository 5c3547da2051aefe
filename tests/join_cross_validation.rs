//! Differential lockdown of the spatial join: the materialized
//! `run_join` must be **bit-identical** to the naive per-pair loop —
//! relations equal and percentage matrices equal as raw f64s — at every
//! thread count, in both modes, on every adversarial scenario family,
//! and its partition must match the per-pair `decided_tile` oracle
//! exactly.
//!
//! The policy tests pin the join's documented fault semantics: the
//! `RunPolicy` (deadline, cancellation, panic isolation, failpoints)
//! governs the exact subset only — mask-emitted pairs are proven by the
//! boxes, cost `O(1)`, and are never work items.
//!
//! Every test that runs the engine holds `SERIAL`: failpoints are
//! process-global, so a test that arms `engine.pair.compute` would
//! otherwise inject its panic into whichever join runs beside it. This
//! file is its own test binary, so no other suite can race it.

use cardir::core::{compute_cdr, compute_cdr_pct, CardinalRelation, Tile};
use cardir::engine::{
    decided_tile, interacting_pairs, BatchEngine, CancelToken, CompletionStatus, EngineMode,
    PairOutcome, RegionCache, RunPolicy,
};
use cardir::faults::{self, sites, FaultAction, Trigger};
use cardir::geometry::{BoundingBox, Point, Region};
use cardir::workloads::{random_map, SplitMix64};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// The ordered pairs the boxes alone cannot decide — the ground truth
/// the sweep's interacting set must reproduce.
fn undecided_oracle(cache: &RegionCache<'_>) -> Vec<(u32, u32)> {
    let n = cache.len();
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && decided_tile(cache.mbb(i), cache.mbb(j)).is_none() {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// The full differential: the sweep partition matches the per-pair
/// oracle, the partition counters close over the pair space before and
/// after materializing, and the materialized join is bit-identical to
/// the naive double loop — with `via_prefilter` set exactly where the
/// boxes decided — for every thread count × mode.
fn assert_join_cross_validates(regions: &[Region], label: &str) {
    let cache = RegionCache::build(regions);
    let n = regions.len();
    let total = if n < 2 { 0 } else { n * (n - 1) };

    let (interacting, _) = interacting_pairs(&cache);
    assert_eq!(interacting, undecided_oracle(&cache), "{label}: partition oracle");

    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        let mut naive = Vec::new();
        for (i, a) in regions.iter().enumerate() {
            for (j, b) in regions.iter().enumerate() {
                if i != j {
                    let pct = (mode == EngineMode::Quantitative).then(|| compute_cdr_pct(a, b));
                    naive.push((i, j, compute_cdr(a, b), pct));
                }
            }
        }
        for threads in [1usize, 2, 8] {
            let sub = format!("{label}, {mode:?}, {threads} threads");
            let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
            let joined = engine.run_join(&cache, &RunPolicy::default());

            // Partition accounting closes before any materialization.
            let stats = joined.metrics.stats;
            assert_eq!(joined.total(), total, "{sub}");
            assert_eq!(stats.mask_emitted + stats.exact_pairs, total, "{sub}");
            assert_eq!(
                joined.succeeded + joined.failed + joined.skipped,
                total,
                "{sub}: accounting must close"
            );
            assert_eq!(joined.interacting.len(), stats.exact_pairs, "{sub}");
            assert_eq!(stats.exact_pairs, interacting.len(), "{sub}");

            let out = joined.materialize(&cache);
            assert_eq!(out.status, CompletionStatus::Complete, "{sub}");
            assert_eq!((out.succeeded, out.failed, out.skipped), (total, 0, 0), "{sub}");
            let after = out.metrics.stats;
            assert_eq!(
                (after.pairs, after.mask_emitted, after.exact_pairs, after.candidates),
                (stats.pairs, stats.mask_emitted, stats.exact_pairs, stats.candidates),
                "{sub}: materializing must not move the partition"
            );

            assert_eq!(out.pairs.len(), naive.len(), "{sub}");
            for (got, (i, j, rel, pct)) in out.pairs.iter().zip(&naive) {
                match got {
                    PairOutcome::Ok(pr) => {
                        assert_eq!((pr.primary, pr.reference), (*i, *j), "{sub}");
                        assert_eq!(pr.relation, *rel, "{sub}, pair ({i}, {j})");
                        assert_eq!(
                            pr.percentages, *pct,
                            "{sub}, pair ({i}, {j}): matrices must be bit-identical"
                        );
                        let via_boxes = match decided_tile(cache.mbb(*i), cache.mbb(*j)) {
                            Some(tile) => !(pct.is_some() && tile == Tile::N),
                            None => false,
                        };
                        assert_eq!(pr.via_prefilter, via_boxes, "{sub}, pair ({i}, {j})");
                    }
                    other => panic!("{sub}, pair ({i}, {j}): not computed: {other:?}"),
                }
            }
        }
    }
}

/// Every scenario family of the differential fuzzer — the six classic
/// degenerate-geometry families plus the ulp-adversarial one — passes
/// the full join differential.
#[test]
fn adversarial_families_cross_validate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut seen = std::collections::BTreeMap::new();
    let mut seed = 0u64;
    while seen.len() < 7 {
        let scenario = cardir_fuzz::gen::generate(seed);
        seen.entry(scenario.family).or_insert(scenario);
        seed += 1;
        assert!(seed < 1_000, "some family never appeared");
    }
    for (family, scenario) in &seen {
        assert_join_cross_validates(&scenario.regions, family);
    }
}

/// The join-clusters fuzz family — heavy MBB overlap anchored to shared
/// grid lines, far satellites, `2^±40` magnitudes — passes the full
/// differential on a block of seeds.
#[test]
fn join_cluster_scenarios_cross_validate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    for seed in 0..8u64 {
        let scenario = cardir_fuzz::gen::generate_join(seed);
        assert_join_cross_validates(&scenario.regions, &format!("join-clusters seed {seed}"));
    }
}

/// Jittered-grid random maps at a couple of sizes (the bench workload in
/// miniature) pass the full differential.
#[test]
fn random_maps_cross_validate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut rng = SplitMix64::seed_from_u64(71);
    for n in [6usize, 25] {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(500.0, 400.0));
        let regions: Vec<Region> =
            random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect();
        assert_join_cross_validates(&regions, &format!("random map n={n}"));
    }
}

/// Satellite audit of the box-vs-box mask fast path: every flavour of
/// MBB boundary contact — shared full edge, touching corner, a box
/// sitting *on* a grid line, duplicate boxes, a hairline sliver on the
/// boundary — must be routed to the exact pipeline (the mask declines),
/// while the strictly separated box is mask-emitted. Pinned pair by
/// pair, then cross-validated end to end.
#[test]
fn boundary_contact_pairs_stay_exact() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = vec![
        rect(0.0, 0.0, 4.0, 4.0),       // 0: the reference square
        rect(4.0, 0.0, 8.0, 4.0),       // 1: shares the full east edge
        rect(4.0, 4.0, 8.0, 8.0),       // 2: touches only the NE corner
        rect(1.0, 4.0, 3.0, 4.5),       // 3: sits on the north line, inside its span
        rect(0.0, 0.0, 4.0, 4.0),       // 4: exact duplicate of the reference
        rect(1.0, 3.999, 3.0, 4.001),   // 5: hairline sliver straddling the north line
        rect(10.0, 10.0, 11.0, 11.0),   // 6: strictly inside NE — the only decided one
    ];
    let cache = RegionCache::build(&regions);
    let (interacting, _) = interacting_pairs(&cache);
    let has = |i: u32, j: u32| interacting.binary_search(&(i, j)).is_ok();

    // Every boundary-contact pair goes exact, in both directions.
    for &(i, j, why) in &[
        (0u32, 1u32, "shared full edge"),
        (0, 2, "corner touch"),
        (0, 3, "box on the north grid line"),
        (0, 4, "exact duplicate"),
        (0, 5, "sliver straddling the north line"),
        (1, 2, "shared corner at (8, 4)"),
    ] {
        assert!(has(i, j), "({i}, {j}) [{why}] must be routed exact");
        assert!(has(j, i), "({j}, {i}) [{why}, reversed] must be routed exact");
    }
    // The far box is decided against everything, both ways.
    for other in 0u32..6 {
        assert!(!has(6, other), "(6, {other}) is strictly separated: mask-emitted");
        assert!(!has(other, 6), "({other}, 6) is strictly separated: mask-emitted");
        // And what the mask emits is the geometric truth.
        let tile = decided_tile(cache.mbb(6), cache.mbb(other as usize))
            .expect("strictly separated boxes are decided");
        assert_eq!(
            CardinalRelation::single(tile),
            compute_cdr(&regions[6], &regions[other as usize]),
            "mask emission for (6, {other}) must match compute_cdr"
        );
    }

    assert_join_cross_validates(&regions, "boundary contact");
}

/// A pre-cancelled token stops the exact pass before it starts, but the
/// mask-emitted pairs — proven by the boxes during discovery — are still
/// reported, and materialisation keeps the partition visible: emitted
/// pairs `Ok`, exact pairs `Skipped`.
#[test]
fn pre_cancelled_join_still_emits_mask_pairs() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = mixed_map();
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let token = CancelToken::new();
    token.cancel();
    let joined = BatchEngine::new()
        .with_threads(2)
        .run_join(&cache, &RunPolicy::default().with_cancel(token));

    assert_eq!(joined.status, CompletionStatus::Cancelled);
    assert!(joined.metrics.stats.mask_emitted > 0 && joined.metrics.stats.exact_pairs > 0, "{:?}", joined.metrics.stats);
    assert_eq!(joined.succeeded, joined.metrics.stats.mask_emitted, "emission ignores the token");
    assert_eq!(joined.skipped, joined.metrics.stats.exact_pairs, "the whole exact subset is skipped");
    assert_eq!(joined.failed, 0);

    let (interacting, _) = interacting_pairs(&cache);
    let out = joined.materialize(&cache);
    assert_eq!(out.pairs.len(), total);
    assert_eq!(out.status, CompletionStatus::Cancelled);
    for pair in &out.pairs {
        match pair {
            PairOutcome::Ok(pr) => {
                assert!(
                    !interacting.contains(&(pr.primary as u32, pr.reference as u32)),
                    "({}, {}) was exact work and must be skipped",
                    pr.primary,
                    pr.reference
                );
                assert_eq!(pr.relation, compute_cdr(&regions[pr.primary], &regions[pr.reference]));
            }
            PairOutcome::Skipped { primary, reference } => {
                assert!(
                    interacting.contains(&(*primary as u32, *reference as u32)),
                    "({primary}, {reference}) was mask-emittable and must not be skipped"
                );
            }
            PairOutcome::Failed(e) => panic!("nothing may fail: {e}"),
        }
    }
}

/// A zero deadline behaves like the pre-cancelled token, with
/// `DeadlineExceeded` status: the deadline governs exact work only.
#[test]
fn zero_deadline_join_skips_only_exact_pairs() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = mixed_map();
    let cache = RegionCache::build(&regions);

    let joined = BatchEngine::new()
        .with_threads(2)
        .run_join(&cache, &RunPolicy::default().with_deadline(std::time::Duration::ZERO));

    assert_eq!(joined.status, CompletionStatus::DeadlineExceeded);
    assert_eq!(joined.succeeded, joined.metrics.stats.mask_emitted);
    assert_eq!(joined.skipped, joined.metrics.stats.exact_pairs);
    assert!(joined.metrics.stats.mask_emitted > 0 && joined.metrics.stats.exact_pairs > 0, "{:?}", joined.metrics.stats);
}

/// Panic isolation parity: a poisoned exact pair fails alone — every
/// other pair (exact and mask-emitted) still computes, bit-identical to
/// the unpoisoned baseline, and the accounting closes.
#[test]
fn poisoned_exact_pair_is_isolated_and_survivors_match() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = mixed_map();
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let engine = BatchEngine::new().with_threads(1);
    let baseline = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
    assert_eq!(baseline.status, CompletionStatus::Complete);

    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("poisoned join pair".into()),
        Trigger::Nth(3),
    );
    let joined =
        faults::with_silent_panics(|| engine.run_join(&cache, &RunPolicy::default()));
    drop(guard);

    assert_eq!(joined.status, CompletionStatus::PartialPanics);
    assert_eq!(joined.failed, 1, "exactly one exact pair is poisoned");
    assert_eq!(joined.succeeded, total - 1);
    assert_eq!(joined.skipped, 0);

    let out = joined.materialize(&cache);
    assert_eq!(out.status, CompletionStatus::PartialPanics);
    assert_eq!(out.failed, 1);
    assert_eq!(out.pairs.len(), baseline.pairs.len());
    let mut failures = 0;
    for (got, want) in out.pairs.iter().zip(&baseline.pairs) {
        match got {
            PairOutcome::Ok(_) => assert_eq!(got, want, "survivors must be bit-identical"),
            PairOutcome::Failed(e) => {
                failures += 1;
                let (i, j) = got.indices();
                assert_eq!((i, j), want.indices(), "the failure sits in its input-order slot");
                assert!(e.to_string().contains("poisoned join pair"), "{e}");
            }
            PairOutcome::Skipped { .. } => panic!("nothing may be skipped"),
        }
    }
    assert_eq!(failures, 1);
}

/// Mask-emitted pairs never were work items, so the per-pair compute
/// failpoint cannot touch them: with *every* compute hit poisoned, a
/// fully scattered map (empty interacting set) still completes cleanly.
#[test]
fn mask_emission_never_hits_the_compute_failpoint() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    // Strictly diagonal boxes: every ordered pair is box-decided.
    let regions: Vec<Region> = (0..6)
        .map(|i| {
            let x = (i as f64) * 100.0;
            rect(x, x, x + 1.0, x + 1.0)
        })
        .collect();
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let (interacting, _) = interacting_pairs(&cache);
    assert!(interacting.is_empty(), "the map must be fully mask-emittable");

    let fault_guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("mask emission must not reach this site".into()),
        Trigger::Always,
    );
    let joined = BatchEngine::new().with_threads(2).run_join(&cache, &RunPolicy::default());
    let out = joined.materialize(&cache);
    drop(fault_guard);

    assert_eq!(out.status, CompletionStatus::Complete);
    assert_eq!(out.succeeded, total);
    assert_eq!(out.failed, 0);
    for pair in &out.pairs {
        match pair {
            PairOutcome::Ok(pr) => {
                assert_eq!(pr.relation, compute_cdr(&regions[pr.primary], &regions[pr.reference]));
            }
            other => panic!("every pair must compute: {other:?}"),
        }
    }
}

/// A map with both partition sides populated: a contact cluster around
/// the origin plus scattered satellites.
fn mixed_map() -> Vec<Region> {
    vec![
        rect(0.0, 0.0, 4.0, 4.0),
        rect(4.0, 0.0, 8.0, 4.0),     // shared edge
        rect(4.0, 4.0, 8.0, 8.0),     // corner touch
        rect(1.0, 1.0, 3.0, 3.0),     // strictly inside the reference's span
        rect(100.0, 100.0, 101.0, 101.0), // far satellite
        rect(-100.0, 50.0, -99.0, 51.0),  // far satellite
    ]
}
