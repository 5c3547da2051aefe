//! Fault-injection sweep over the resilient batch pipeline: failpoint
//! sites × actions (panic | error | latency) × thread counts, plus the
//! deadline and the stats plumbing. Every pair runs once under
//! `catch_unwind`, so each panic or error that fires fails exactly its
//! own pair. The runs hand the engine every ordered pair as an explicit
//! list, so every pair is a work item the failpoints can reach;
//! survivors are checked against the naive `compute_cdr` /
//! `compute_cdr_pct` results. The join's own fault semantics (only the
//! exact subset is work) are pinned in `join_cross_validation.rs`.
//!
//! Each test arms a fault plan that only its own runs carry, so the
//! tests run in parallel without seeing each other's faults.

use cardir::core::{compute_cdr, compute_cdr_pct};
use cardir::engine::{
    interacting_pairs, BatchEngine, BatchOutcome, BatchStats, CompletionStatus, EngineMode,
    PairFailure, PairOutcome, PairRelation, RegionCache, RunPolicy,
};
use cardir::faults::{sites, FaultAction, FaultPlan, Trigger};
use cardir::geometry::Region;
use cardir::telemetry::Registry;
use cardir::workloads::SplitMix64;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// `n` random disjoint-ish rectangles, deterministic in `seed`.
fn random_regions(n: usize, seed: u64) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x0 = (rng.next_u64() % 1000) as f64 / 10.0;
            let y0 = (rng.next_u64() % 1000) as f64 / 10.0;
            let w = 1.0 + (rng.next_u64() % 50) as f64 / 10.0;
            let h = 1.0 + (rng.next_u64() % 50) as f64 / 10.0;
            rect(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

/// Every ordered pair `(i, j)`, `i ≠ j`, in primary-major order.
fn every_pair(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect()
}

/// Runs every ordered pair of `cache` as an explicit list.
fn run_every_pair(
    cache: &RegionCache<'_>,
    mode: EngineMode,
    threads: usize,
    policy: &RunPolicy,
) -> BatchOutcome {
    BatchEngine::new()
        .with_mode(mode)
        .with_threads(threads)
        .run_pairs(cache, &every_pair(cache.len()), policy)
        .expect("indices are in range")
}

/// A fresh plan with `site` armed, and a default policy that carries it.
fn armed(site: &str, action: FaultAction, trigger: Trigger) -> (Arc<FaultPlan>, RunPolicy) {
    let plan = Arc::new(FaultPlan::new());
    plan.arm(site, action, trigger);
    let policy = RunPolicy::default().with_faults(Arc::clone(&plan));
    (plan, policy)
}

/// Heavily overlapping boxes: most of the 40·39 ordered pairs interact,
/// so the join's exact pass has several chunks of 256.
fn overlapping_regions(seed: u64) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..40)
        .map(|_| {
            let x0 = (rng.next_u64() % 200) as f64 / 10.0;
            let y0 = (rng.next_u64() % 200) as f64 / 10.0;
            let w = 5.0 + (rng.next_u64() % 200) as f64 / 10.0;
            let h = 5.0 + (rng.next_u64() % 200) as f64 / 10.0;
            rect(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

/// The five fault counters of a run's stats record: all zero when
/// nothing fault-related happened.
fn fault_counters(stats: &BatchStats) -> [usize; 5] {
    [
        stats.panics_caught,
        stats.injected_failures,
        stats.failed_pairs,
        stats.skipped_pairs,
        stats.deadline_hits,
    ]
}

/// A quantitative pair must match the naive algorithms bit for bit.
fn assert_naive(pr: &PairRelation, regions: &[Region], context: &str) {
    let (a, b) = (&regions[pr.primary], &regions[pr.reference]);
    assert_eq!(
        pr.relation,
        compute_cdr(a, b),
        "{context}: ({}, {})",
        pr.primary,
        pr.reference
    );
    assert_eq!(
        pr.percentages,
        Some(compute_cdr_pct(a, b)),
        "{context}: ({}, {})",
        pr.primary,
        pr.reference
    );
}

#[test]
fn default_policy_join_is_bit_identical_to_naive() {
    let regions = random_regions(12, 11);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    for threads in [1usize, 2, 4] {
        let outcome = BatchEngine::new()
            .with_mode(EngineMode::Quantitative)
            .with_threads(threads)
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);

        assert_eq!(outcome.status, CompletionStatus::Complete);
        assert!(outcome.is_complete());
        assert_eq!(outcome.succeeded, total);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.skipped, 0);
        assert_eq!(fault_counters(&outcome.stats), [0; 5], "threads={threads}");
        let relations: Vec<_> = outcome.relations().collect();
        assert_eq!(relations.len(), total);
        for (got, (i, j)) in relations.iter().zip(every_pair(regions.len())) {
            assert_eq!((got.primary, got.reference), (i, j), "threads={threads}");
            assert_naive(got, &regions, &format!("threads={threads}"));
        }
    }
}

#[test]
fn site_sweep_accounting_closes_for_every_action_and_thread_count() {
    let regions = random_regions(10, 23);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let actions = [
        FaultAction::Panic("sweep".into()),
        FaultAction::Error("sweep".into()),
        FaultAction::Delay(Duration::from_micros(50)),
    ];
    for action in &actions {
        for threads in [1usize, 2, 4] {
            let (plan, policy) = armed(
                sites::ENGINE_PAIR_COMPUTE,
                action.clone(),
                Trigger::Probability {
                    num: 1,
                    den: 5,
                    seed: 0xFEED ^ threads as u64,
                },
            );
            let outcome = run_every_pair(&cache, EngineMode::Quantitative, threads, &policy);

            assert_eq!(
                outcome.succeeded + outcome.failed + outcome.skipped,
                total,
                "{action:?} threads={threads}: accounting must close"
            );
            assert_eq!(outcome.skipped, 0, "no deadline was set");
            assert_eq!(outcome.pairs.len(), total);
            // Latency never fails a pair; each panic or error the plan
            // fires fails exactly one.
            if matches!(action, FaultAction::Delay(_)) {
                assert_eq!(outcome.failed, 0, "latency must not fail pairs");
                assert_eq!(outcome.status, CompletionStatus::Complete);
            } else {
                assert_eq!(
                    plan.fired(sites::ENGINE_PAIR_COMPUTE),
                    outcome.failed as u64,
                    "{action:?} threads={threads}: every fired fault is accounted for"
                );
            }
            // Every surviving pair is bit-identical to the naive result.
            for pr in outcome.relations() {
                assert_naive(pr, &regions, &format!("{action:?} threads={threads}"));
            }
        }
    }
}

/// Satellite regression: one poisoned pair must not take down the worker
/// scope — all other results still come back, exactly once.
#[test]
fn one_poisoned_pair_still_yields_all_other_results() {
    let regions = random_regions(8, 5);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let pairs = every_pair(regions.len());

    for threads in [1usize, 4] {
        // Exactly the 11th pair computation panics.
        let (_plan, policy) = armed(
            sites::ENGINE_PAIR_COMPUTE,
            FaultAction::Panic("poisoned pair".into()),
            Trigger::Nth(11),
        );
        let outcome = run_every_pair(&cache, EngineMode::Quantitative, threads, &policy);

        assert_eq!(
            outcome.status,
            CompletionStatus::PartialPanics,
            "threads={threads}"
        );
        assert_eq!(
            outcome.failed, 1,
            "threads={threads}: exactly one PairError"
        );
        assert_eq!(outcome.succeeded, total - 1);
        assert_eq!(outcome.stats.panics_caught, 1);
        let failures: Vec<_> = outcome.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0].failure, PairFailure::Panicked(_)));
        assert!(
            failures[0].to_string().contains("poisoned pair"),
            "{}",
            failures[0]
        );
        // The N−1 others are correct and in their slots.
        for (got, &want) in outcome.pairs.iter().zip(&pairs) {
            assert_eq!(got.indices(), want);
            match got {
                PairOutcome::Ok(pr) => assert_naive(pr, &regions, &format!("threads={threads}")),
                PairOutcome::Failed(_) => {}
                PairOutcome::Skipped { .. } => panic!("nothing may be skipped"),
            }
        }
    }
}

/// `Configuration::compute_all_relations` promises a relation for every
/// pair, so it re-raises the first `Failed` outcome of its qualitative
/// `run_join` + `materialize`. It runs under the default policy, which
/// carries no fault plan; this pins the outcome it re-raises: the whole
/// batch still runs (the scope does not abort mid-flight), and the one
/// poisoned pair comes back as a `Failed` slot whose message is the
/// facade's panic message.
#[test]
fn injected_panic_yields_the_failed_outcome_the_facade_rethrows() {
    // Overlapping boxes, so the join has exact work for the failpoint.
    let regions = [
        rect(0.0, 0.0, 4.0, 4.0),
        rect(2.0, 2.0, 6.0, 6.0),
        rect(1.0, 3.0, 5.0, 7.0),
    ];
    let cache = RegionCache::build(&regions);
    let (plan, policy) = armed(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("legacy".into()),
        Trigger::Nth(3),
    );
    let outcome = BatchEngine::new()
        .with_mode(EngineMode::Qualitative)
        .run_join(&cache, &policy)
        .materialize(&cache);
    assert_eq!(plan.fired(sites::ENGINE_PAIR_COMPUTE), 1);
    assert_eq!(outcome.status, CompletionStatus::PartialPanics);
    assert_eq!(
        (outcome.succeeded, outcome.failed, outcome.skipped),
        (5, 1, 0)
    );
    let failure = outcome.failures().next().expect("one pair failed");
    assert!(matches!(failure.failure, PairFailure::Panicked(_)));
    let message = failure.to_string();
    assert!(
        message.contains("failed:") && message.contains("legacy"),
        "{message}"
    );
}

#[test]
fn zero_deadline_skips_everything() {
    let regions = random_regions(8, 13);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let outcome = run_every_pair(
        &cache,
        EngineMode::Qualitative,
        2,
        &RunPolicy::default().with_deadline(Duration::ZERO),
    );

    assert_eq!(outcome.status, CompletionStatus::DeadlineExceeded);
    assert_eq!(outcome.skipped, total);
    assert_eq!(outcome.succeeded, 0);
    assert!(outcome.stats.deadline_hits > 0);
    // Every slot still names its pair.
    assert_eq!(outcome.pairs.len(), total);
    for pair in &outcome.pairs {
        assert!(matches!(pair, PairOutcome::Skipped { .. }));
    }
}

#[test]
fn mid_run_deadline_completes_some_chunks_and_skips_the_rest() {
    // 30 regions → 870 pairs → 4 chunks of ≤256 on one thread.
    let regions = random_regions(30, 17);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    // Each chunk claim stalls 30 ms; the 50 ms deadline lets roughly one
    // or two chunks through, never all four.
    let (_plan, policy) = armed(
        sites::ENGINE_CHUNK_CLAIM,
        FaultAction::Delay(Duration::from_millis(30)),
        Trigger::Always,
    );
    let outcome = run_every_pair(
        &cache,
        EngineMode::Quantitative,
        1,
        &policy.with_deadline(Duration::from_millis(50)),
    );

    assert_eq!(outcome.status, CompletionStatus::DeadlineExceeded);
    assert!(outcome.skipped > 0, "some chunks must miss the deadline");
    assert!(
        outcome.succeeded > 0,
        "the first chunk fits in the deadline"
    );
    assert_eq!(outcome.succeeded + outcome.skipped, total);
    assert_eq!(outcome.succeeded + outcome.failed + outcome.skipped, total);
    // Every slot, skipped or computed, names its own pair in input order.
    let order: Vec<(usize, usize)> = outcome.pairs.iter().map(PairOutcome::indices).collect();
    assert_eq!(order, every_pair(regions.len()));
    assert_eq!(
        outcome
            .pairs
            .iter()
            .filter(|p| matches!(p, PairOutcome::Skipped { .. }))
            .count(),
        outcome.skipped
    );
    // Completed work is contiguous from the front (chunk order on one
    // thread), and all of it is correct.
    let done = outcome
        .pairs
        .iter()
        .take_while(|p| p.ok().is_some())
        .count();
    assert_eq!(done, outcome.succeeded, "completed work is a prefix");
    for pr in outcome.relations() {
        assert_naive(pr, &regions, "mid-run deadline");
    }
}

/// The join's exact pass under a deadline: the work items come from
/// the discovery rows, so a chunk nobody claimed still names its pairs,
/// in the primary-major order `interacting_pairs` reports.
#[test]
fn mid_run_deadline_on_the_join_keeps_unclaimed_pairs_in_row_order() {
    let regions = overlapping_regions(31);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let (interacting, _) = interacting_pairs(&cache);
    assert!(
        interacting.len() > 3 * 256,
        "{} interacting pairs",
        interacting.len()
    );

    let (_plan, policy) = armed(
        sites::ENGINE_CHUNK_CLAIM,
        FaultAction::Delay(Duration::from_millis(30)),
        Trigger::Always,
    );
    let outcome = BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(1)
        .run_join(&cache, &policy.with_deadline(Duration::from_millis(50)));

    assert_eq!(outcome.status, CompletionStatus::DeadlineExceeded);
    assert!(outcome.skipped > 0, "some chunks must miss the deadline");
    assert_eq!(outcome.total(), total);
    assert_eq!(outcome.succeeded + outcome.failed + outcome.skipped, total);
    let order: Vec<(u32, u32)> = outcome
        .interacting
        .iter()
        .map(|p| {
            let (i, j) = p.indices();
            (i as u32, j as u32)
        })
        .collect();
    assert_eq!(
        order, interacting,
        "every slot names its pair in primary-major order"
    );
    assert_eq!(
        outcome
            .interacting
            .iter()
            .filter(|p| matches!(p, PairOutcome::Skipped { .. }))
            .count(),
        outcome.skipped
    );
    let done = outcome
        .interacting
        .iter()
        .take_while(|p| p.ok().is_some())
        .count();
    assert!(done > 0, "the first chunk fits in the deadline");
    assert_eq!(
        done,
        interacting.len() - outcome.skipped,
        "completed work is a prefix"
    );
    for pr in outcome.interacting.iter().filter_map(PairOutcome::ok) {
        assert_naive(pr, &regions, "join deadline");
    }
}

#[test]
fn fault_events_flow_into_telemetry() {
    let regions = random_regions(8, 31);
    let cache = RegionCache::build(&regions);

    let (plan, policy) = armed(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("telemetry".into()),
        Trigger::Nth(5),
    );
    let outcome = run_every_pair(&cache, EngineMode::Qualitative, 2, &policy);
    assert_eq!(outcome.failed, 1);
    assert_eq!(plan.fired(sites::ENGINE_PAIR_COMPUTE), 1);

    let registry = Registry::new();
    outcome.stats.export(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.faults.panics_caught"), Some(1));
    assert_eq!(snap.counter("engine.faults.failed_pairs"), Some(1));
}

/// The run's one stats record closes its own accounting whatever stopped
/// or failed the run: claimed plus skipped work items are the exact
/// pairs, the fault counters repeat the outcome's failed and skipped
/// counts, and the partition covers the pair space — on the compact join
/// outcome and again on its materialization.
#[test]
fn the_stats_record_closes_its_own_accounting() {
    let regions = overlapping_regions(41);
    let cache = RegionCache::build(&regions);
    let closes = |stats: &BatchStats, failed: usize, skipped: usize, context: &str| {
        let claimed: usize = stats.per_thread_pairs.iter().sum();
        assert_eq!(
            claimed + skipped,
            stats.exact_pairs,
            "{context}: claimed + skipped"
        );
        assert_eq!(stats.failed_pairs, failed, "{context}: failed");
        assert_eq!(stats.skipped_pairs, skipped, "{context}: skipped");
        assert_eq!(
            stats.mask_emitted + stats.exact_pairs,
            stats.pairs,
            "{context}: partition"
        );
    };
    for threads in [1usize, 2] {
        let (_, stalled) = armed(
            sites::ENGINE_CHUNK_CLAIM,
            FaultAction::Delay(Duration::from_millis(30)),
            Trigger::Always,
        );
        let fifth = || {
            let action = FaultAction::Panic("fifth attempt".into());
            armed(sites::ENGINE_PAIR_COMPUTE, action, Trigger::Nth(5)).1
        };
        let cases = [
            (
                "zero deadline",
                RunPolicy::default().with_deadline(Duration::ZERO),
            ),
            ("deadline", stalled.with_deadline(Duration::from_millis(50))),
            ("nth(5)", fifth()),
        ];
        for (label, policy) in cases {
            let context = format!("{label} threads={threads}");
            let joined = BatchEngine::new()
                .with_mode(EngineMode::Quantitative)
                .with_threads(threads)
                .run_join(&cache, &policy);
            closes(&joined.stats, joined.failed, joined.skipped, &context);
            if label == "zero deadline" {
                assert_eq!(joined.skipped, joined.stats.exact_pairs, "{context}");
            }
            let outcome = joined.materialize(&cache);
            let stats = &outcome.stats;
            closes(stats, outcome.failed, outcome.skipped, &context);
            assert_eq!(outcome.failures().count(), outcome.failed, "{context}");
            assert_eq!(
                outcome.succeeded + outcome.failed + outcome.skipped,
                stats.pairs,
                "{context}"
            );
            match label {
                "zero deadline" => assert_eq!(outcome.skipped, stats.exact_pairs, "{context}"),
                "nth(5)" => {
                    let counts = (outcome.failed, stats.panics_caught);
                    assert_eq!(counts, (1, 1), "{context}: failed, panics");
                }
                _ => {}
            }
        }
    }
}

/// Fault plans are scoped to the runs that carry them: two joins over
/// the same cache at the same time, one under a plan that fails every
/// pair computation, the other under the default policy. The unarmed
/// join never sees a fault, and the plan counts exactly what its own
/// join injected.
#[test]
fn concurrent_joins_see_only_their_own_plan() {
    let regions = overlapping_regions(37);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let engine = BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(2);
    let (plan, armed_policy) = armed(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("scoped".into()),
        Trigger::Always,
    );
    for round in 0..4 {
        let start = Barrier::new(2);
        let (faulted, clean) = std::thread::scope(|s| {
            let faulted = s.spawn(|| {
                start.wait();
                engine.run_join(&cache, &armed_policy)
            });
            let clean = s.spawn(|| {
                start.wait();
                engine
                    .run_join(&cache, &RunPolicy::default())
                    .materialize(&cache)
            });
            (faulted.join().unwrap(), clean.join().unwrap())
        });

        assert_eq!(clean.status, CompletionStatus::Complete, "round {round}");
        assert_eq!((clean.failed, clean.skipped), (0, 0), "round {round}");
        assert_eq!(fault_counters(&clean.stats), [0; 5], "round {round}");
        assert_eq!(clean.pairs.len(), total);
        for (got, (i, j)) in clean.pairs.iter().zip(every_pair(regions.len())) {
            let pr = got.ok().expect("the unarmed join fails no pair");
            assert_eq!((pr.primary, pr.reference), (i, j));
            assert_naive(pr, &regions, &format!("round {round}"));
        }

        let injected = faulted.stats.injected_failures as u64;
        assert!(injected > 0, "round {round}: the armed join has exact work");
        assert_eq!(faulted.failed as u64, injected, "round {round}");
        assert_eq!(
            plan.fired(sites::ENGINE_PAIR_COMPUTE),
            injected * (round + 1),
            "round {round}: the plan counts its own join's injections only"
        );
    }
}
